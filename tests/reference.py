"""Single-state and single-block references the tests check the package against.

No number the package prints needs these: the channel views of one state,
a block's 2x2 matrix and its symmetric logarithmic derivative, and the
family oracle column that builds its own points.  They are written on top
of the package's stacked routes, or from the definitions alone.
"""

import numpy as np

from xqmetro import channels
from xqmetro.errors import SingularBlockError
from xqmetro.oracle import family_oracles
from xqmetro.xstate import XState, xstate_from_dense

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
    """:func:`oracle.family_oracles` with each point's state and tangent at
    ``phi`` built here, once per point."""
    points = list(points)
    return family_oracles(points, [(f.state(phi), f.tangent_at(phi)) for f, phi in points])
