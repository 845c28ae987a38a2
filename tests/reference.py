"""Single-state and single-block references the tests check the package against.

No number the package prints needs these: the channel views of one state,
a block's 2x2 matrix and its symmetric logarithmic derivative, the family
oracle column that builds its own points, and the earlier forms of the
Bloch conversion, the Jacobi convergence norm and the mixed closed forms,
which the package's must match in raw bits.  They are written on top of the
package's stacked routes, or from the definitions alone.
"""

import numpy as np

from xqmetro import channels
from xqmetro.errors import NotXFormError, SingularBlockError
from xqmetro.linalg import diff_step
from xqmetro.oracle import oracle_column
from xqmetro.xstate import XState, _check_tangent, _fail, dense_from_compact, xstate_from_dense

PAULI = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)


def apply_kraus(state, kind, param):
    """The channel image of one state through the dense Kraus route, validated."""
    return xstate_from_dense(channels.apply_kraus_dense(state.to_dense(), kind, param))


def apply_channel_compact(state, kind, param):
    """The channel image of one state through the compact closed-form route, validated."""
    return XState(*channels._damped_compact(kind, state.diag, state.anti, param))


def block_matrix(w):
    """2x2 matrix of a block from its Bloch 4-vector."""
    return 0.5 * np.einsum("a,aij->ij", np.asarray(w, dtype=float), PAULI)


def sld_block(w, dw):
    """Symmetric logarithmic derivative of a mixed block, as a 2x2 matrix.

    L = p0 I + sum_i p_i sigma_i with
    p0 = gap(w, dw) / gap(w, w) and p_i = (dw_i - w_i p0) / w0, where
    gap(w, v) = w0 v0 - w1 v1 - w2 v2 - w3 v3; it satisfies
    d rho = (rho L + L rho) / 2 and Tr(d rho L) = F.
    """
    w = np.asarray(w, dtype=float)
    dw = np.asarray(dw, dtype=float)
    gap_ww = w[0] * w[0] - w[1:] @ w[1:]
    if w[0] <= 1e-10 or gap_ww <= 1e-10:
        raise SingularBlockError("SLD closed form needs a strictly mixed block")
    p0 = (w[0] * dw[0] - w[1:] @ dw[1:]) / gap_ww
    coeffs = np.empty(4)
    coeffs[0] = p0
    coeffs[1:] = (dw[1:] - w[1:] * p0) / w[0]
    return np.einsum("a,aij->ij", coeffs, PAULI)


def family_oracles_at(points):
    """Fisher and skew oracle columns ``(fisher, skew)`` at ``(family, phi)``
    points, each point's tangent and states built here once: the stacked
    tangent check, which names a bad tangent's point index, then one
    :func:`oracle.oracle_column` call on every rho(phi) and skew probe
    rho(phi -+ h), ``h = diff_step(phi)``."""
    points = list(points)
    tangents = [family.tangent_at(phi) for family, phi in points]
    diag = np.reshape([t.diag for t in tangents], (-1, 8))
    anti = np.reshape([t.anti for t in tangents], (-1, 4))
    _check_tangent(diag, anti)
    steps = [diff_step(phi) for _, phi in points]
    states = [[], [], []]
    for (family, phi), h in zip(points, steps):
        for stack, x in zip(states, (phi, phi - h, phi + h)):
            stack.append(family.state(x).to_dense())
    states = np.reshape(states, (3, len(points), 8, 8))
    return oracle_column(states, dense_from_compact(diag, anti), steps)


# Every kind of special value a float64 entry can hold, with two ordinary ones.
SPECIAL_VALUES = (0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e308, -1e308, 0.3, -0.1)


def bloch_by_assignment(diag, anti):
    """Block Bloch coordinates as four temporaries assigned into slices: the
    form of ``xstate.bloch_from_compact`` before each column became one
    ufunc writing in place."""
    diag = np.asarray(diag)
    anti = np.asarray(anti)
    upper = diag[..., :4]
    lower = diag[..., :3:-1]
    w = np.empty(diag.shape[:-1] + (4, 4))
    w[..., 0] = upper + lower
    w[..., 1] = 2.0 * anti.real
    w[..., 2] = -2.0 * anti.imag
    w[..., 3] = upper - lower
    return w


def offdiag_norm_where(a):
    """Frobenius norm of each matrix's off-diagonal part through a complex
    ``np.where`` copy: the form of ``linalg._offdiag_norm`` before it zeroed
    and squared one float temporary in place."""
    off = np.where(np.eye(a.shape[-1], dtype=bool), 0.0, a)
    return np.sqrt(np.sum(np.abs(off) ** 2, axis=(-2, -1)))


def gap(w, v):
    """Minkowski contraction of whole stacked Bloch 4-vectors, sliced per call."""
    return w[..., 0] * v[..., 0] - np.vecdot(w[..., 1:], v[..., 1:])


def _require_finite(w, dw):
    """The first NaN/+-inf entry of ``w``, then of ``dw``, raises naming it."""
    for name, x in (("w", w), ("dw", dw)):
        bad = ~np.isfinite(x)
        if bad.any():
            _fail(NotXFormError, bad, lambda i, j: f"{name}[{j}] is {x[i + (j,)]}, not finite", 1)


def _require_mixed(w, gap_ww, message):
    singular = ~((w[..., 0] > 1e-10) & (gap_ww > 1e-10))  # a NaN gap is not mixed
    if singular.any():
        _fail(SingularBlockError, singular, lambda i: f"{message}, got gap {gap_ww[i]:.3e}")


def qfi_block_by_gap(w, dw):
    """``metrics.qfi_block_mixed`` written on whole 4-vectors, every
    contraction slicing its arguments again."""
    w = np.asarray(w, dtype=float)
    dw = np.asarray(dw, dtype=float)
    _require_finite(w, dw)
    gap_ww = gap(w, w)
    _require_mixed(w, gap_ww, "mixed-block form needs w0 > 0 and w0^2 > |w|^2")
    w0 = w[..., 0]
    value = np.float_power(dw[..., 0], 2.0) / w0 + (
        np.float_power(gap(w, dw), 2.0) / gap_ww - gap(dw, dw)
    ) / w0
    return float(value) if np.ndim(value) == 0 else value


def skew_block_by_gap(w, dw):
    """``metrics.skew_block`` with its ``gap(w, w)`` on whole 4-vectors."""
    w = np.asarray(w, dtype=float)
    dw = np.asarray(dw, dtype=float)
    _require_finite(w, dw)
    gap_ww = gap(w, w)
    _require_mixed(w, gap_ww, "skew closed form needs a strictly mixed block")
    w0, dw0, vec, dvec = w[..., 0], dw[..., 0], w[..., 1:], dw[..., 1:]
    radial = np.sqrt(gap_ww)
    k = w0 + radial
    sqrt_k = np.sqrt(k)
    dot = np.vecdot(vec, dvec)
    dd0 = (sqrt_k * dw0 - dot / sqrt_k) / (4.0 * radial)
    lam = 1.0 / sqrt_k
    sig = lam / radial
    gam = lam / (radial * k)
    ddi = (
        -(sig / 4.0)[..., None] * vec * dw0[..., None]
        + (lam / 2.0)[..., None] * dvec
        + (gam / 4.0)[..., None] * vec * dot[..., None]
    )
    value = 8.0 * (np.float_power(dd0, 2.0) + np.vecdot(ddi, ddi))
    return float(value) if np.ndim(value) == 0 else value
