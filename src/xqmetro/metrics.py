"""Estimation metrics for one-parameter X-state families.

Quantum Fisher information and skew information decompose over the four
blocks; each block is handled in its Bloch coordinates ``w = (w0, w1, w2, w3)``
with the Minkowski-signature contractions

    gap(w, v)   = w0*v0 - w1*v1 - w2*v2 - w3*v3.

Mixed blocks (``gap(w, w) > 1e-10``) use closed forms; blocks at or beyond the
purity boundary take the rank-aware 2x2 spectral sum, closed over the block
eigenvalues ``(w0 +- |w|)/2`` (Fisher information), or the documented
pure-limit stand-in ``4 Tr((d rho)^2)`` (skew information): the mixed closed
forms see only mixed blocks, and no route calls an eigensolver.

Every closed form works on stacked arrays.  :func:`evaluate_stack` is the one
kernel that routes blocks and sums them over any stack of states;
:func:`qfi_total`, :func:`skew_total` and :func:`concurrence_ghz_class` are
its single-state views, and ``ghz.ghz_grid`` hands it a whole sweep grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

import numpy as np

from .errors import NotXFormError, SingularBlockError
# eigh is unused here, but importable from this module: the benchmark's
# tracer rebinds, and its self-test calls, xqmetro.metrics.eigh.
from .linalg import central_diff, eigh  # noqa: F401
from .xstate import (
    BLOCK_PAIRS,
    PAULI,
    XState,
    XTangent,
    bloch_from_compact,
    check_bloch,
)

EPS_SINGULAR = 1e-10
RANK_CUTOFF = 1e-12


def _gap(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Minkowski contraction over the last axis of stacked Bloch 4-vectors."""
    return w[..., 0] * v[..., 0] - np.vecdot(w[..., 1:], v[..., 1:])


def _require_mixed(w: np.ndarray, gap_ww: np.ndarray, message: str) -> None:
    singular = (w[..., 0] <= EPS_SINGULAR) | (gap_ww <= EPS_SINGULAR)
    if singular.any():
        gap = np.asarray(gap_ww)[np.unravel_index(int(np.argmax(singular)), singular.shape)]
        raise SingularBlockError(f"{message}, got gap {gap:.3e}")


def _float_if_single(value: np.ndarray):
    return float(value) if np.ndim(value) == 0 else value


def qfi_block_mixed(w: np.ndarray, dw: np.ndarray):
    """Fisher information of mixed 2x2 blocks, one or stacked.

    F = (dw0)^2/w0 + [ gap(w, dw)^2 / gap(w, w) - gap(dw, dw) ] / w0,
    valid for w0 > 0 and gap(w, w) > 0.  ``w``, ``dw`` have shape
    ``(..., 4)``; a single block gives a float.
    """
    w = np.asarray(w, dtype=float)
    dw = np.asarray(dw, dtype=float)
    gap_ww = _gap(w, w)
    _require_mixed(w, gap_ww, "mixed-block form needs w0 > 0 and w0^2 > |w|^2")
    w0 = w[..., 0]
    # Squares go through pow() via np.float_power, the rounding of a scalar
    # x**2; an array ** 2 computes x*x, which differs in rare last bits.
    value = np.float_power(dw[..., 0], 2.0) / w0 + (
        np.float_power(_gap(w, dw), 2.0) / gap_ww - _gap(dw, dw)
    ) / w0
    return _float_if_single(value)


def sld_block(w: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """Symmetric logarithmic derivative of a mixed block, as a 2x2 matrix.

    L = p0 I + sum_i p_i sigma_i with
    p0 = gap(w, dw) / gap(w, w) and p_i = (dw_i - w_i p0) / w0; satisfies
    d rho = (rho L + L rho) / 2 and Tr(d rho L) = F.
    """
    w = np.asarray(w, dtype=float)
    dw = np.asarray(dw, dtype=float)
    gap_ww = _gap(w, w)
    if w[0] <= EPS_SINGULAR or gap_ww <= EPS_SINGULAR:
        raise SingularBlockError("SLD closed form needs a strictly mixed block")
    p0 = _gap(w, dw) / gap_ww
    coeffs = np.empty(4)
    coeffs[0] = p0
    coeffs[1:] = (dw[1:] - w[1:] * p0) / w[0]
    return np.einsum("a,aij->ij", coeffs, PAULI)


def block_matrix(w: np.ndarray) -> np.ndarray:
    """2x2 matrix of a block from its Bloch 4-vector."""
    return 0.5 * np.einsum("a,aij->ij", np.asarray(w, dtype=float), PAULI)


def skew_block(w: np.ndarray, dw: np.ndarray):
    """Skew information of mixed blocks, 8[(d d0)^2 + sum_i (d d_i)^2].

    The square root of the block is d0 I + sum d_i sigma_i with
    d0 = sqrt(w0 + R)/2, d_i = w_i / (2 sqrt(w0 + R)), R = sqrt(w0^2 - |w|^2);
    the derivative coefficients below are the closed forms of d(d0), d(d_i).
    Normalisation: 4 Tr((d sqrt(rho))^2).  ``w``, ``dw`` have shape
    ``(..., 4)``; a single block gives a float.
    """
    w = np.asarray(w, dtype=float)
    dw = np.asarray(dw, dtype=float)
    gap_ww = _gap(w, w)
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
    return _float_if_single(8.0 * (np.float_power(dd0, 2.0) + np.vecdot(ddi, ddi)))


def _qfi_blocks_spectral(w: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """Rank-aware spectral Fisher information of blocks ``(n, 4)``, in closed form.

    F = sum over eigenpairs with lam_i + lam_j > c = RANK_CUTOFF of
    2 |<i| d rho |j>|^2 / (lam_i + lam_j), exact on singular and pure blocks.
    With v = (w1, w2, w3), r = |v| and a = dv.v / r (0 at r = 0, where the
    sum does not depend on the axis), the eigenpairs (w0 +- r)/2 along +-v/r
    give [w0 + r > c] (dw0 + a)^2 / (2 (w0 + r))
    + [w0 - r > c] (dw0 - a)^2 / (2 (w0 - r)) + [w0 > c] (|dv|^2 - a^2) / w0.
    """
    w0, dw0, v, dv = w[..., 0], dw[..., 0], w[..., 1:], dw[..., 1:]
    r = np.sqrt(np.vecdot(v, v))

    def ratio(numerator, denominator, cut):
        return np.divide(numerator, denominator, out=np.zeros_like(r), where=cut)

    a = ratio(np.vecdot(dv, v), r, r > 0.0)
    return (
        ratio(0.5 * (dw0 + a) ** 2, w0 + r, w0 + r > RANK_CUTOFF)
        + ratio(0.5 * (dw0 - a) ** 2, w0 - r, w0 - r > RANK_CUTOFF)
        + ratio(np.vecdot(dv, dv) - a * a, w0, w0 > RANK_CUTOFF)
    )


def _skew_block_singular(w: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """Pure/singular-limit stand-in: 4 Tr((d rho)^2) on the block = 2 sum dw^2."""
    return 2.0 * np.vecdot(dw, dw)


def _concurrence(diag: np.ndarray, anti: np.ndarray) -> np.ndarray:
    """GHZ-class concurrence over stacked compact states (..., 8), (..., 4)."""
    # sqrt(rho_ii rho_jj) of the inner BLOCK_PAIRS (1, 6), (2, 5), (3, 4); a
    # population in the tolerated band [-1e-12, 0) makes the product negative.
    roots = np.sqrt(np.maximum(diag[..., 1:4] * diag[..., 6:3:-1], 0.0))
    penalty = 0.0 + roots[..., 0] + roots[..., 1] + roots[..., 2]
    excess = np.hypot(anti[..., 0].real, anti[..., 0].imag) - penalty
    return 2.0 * np.where(excess > 0.0, excess, 0.0)


def _block_sum(blocks: np.ndarray) -> np.ndarray:
    """Sum over the block axis, in block order."""
    total = 0.0
    for j in range(4):
        total = total + blocks[..., j]
    return total


def evaluate_stack(
    metrics: Iterable[str],
    bloch: np.ndarray | None = None,
    tangent: np.ndarray | None = None,
    diag: np.ndarray | None = None,
    anti: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """The block kernel: metric totals over stacked X states.

    ``"qfi"`` and ``"skew"`` read the Bloch coordinates ``bloch`` and their
    derivative ``tangent`` (shapes ``(..., 4, 4)`` that broadcast together);
    ``"concurrence"`` reads the compact state ``diag`` (..., 8), ``anti``
    (..., 4).  Each result has the stack's shape.

    Mixed blocks (w0 > 1e-10 and gap(w, w) > 1e-10) take the closed forms of
    :func:`qfi_block_mixed` and :func:`skew_block` in one call per metric;
    every other block takes the rank-aware 2x2 spectral Fisher sum, in closed
    form over the block's eigenpairs, and the pure-limit skew stand-in, so no
    mixed closed form ever sees a singular block.  A NaN/+-inf coordinate
    raises :class:`NotXFormError`, worded as by :func:`check_bloch`.
    Each element's value equals the one :func:`qfi_total`,
    :func:`skew_total` and :func:`concurrence_ghz_class` give for it alone,
    bit for bit: those are this kernel's single-state views.
    """
    out = {}
    # Built per call: a closed form rebound on the module (say, by a tracer)
    # is the one called.
    routes = (
        ("qfi", qfi_block_mixed, _qfi_blocks_spectral),
        ("skew", skew_block, _skew_block_singular),
    )
    if "qfi" in metrics or "skew" in metrics:
        w = np.asarray(bloch, dtype=float)
        dw = np.asarray(tangent, dtype=float)
        if w.shape != dw.shape:
            w, dw = np.broadcast_arrays(w, dw)
        if not np.isfinite(w).all():
            check_bloch(w)  # its first check names the coordinate
        mixed = (w[..., 0] > EPS_SINGULAR) & (_gap(w, w) > EPS_SINGULAR)
        singular = ~mixed
        fallback = singular.any()
    for name, closed_form, singular_form in routes:
        if name not in metrics:
            continue
        if fallback:
            blocks = np.empty(mixed.shape)
            blocks[mixed] = closed_form(w[mixed], dw[mixed])
            blocks[singular] = singular_form(w[singular], dw[singular])
        else:
            blocks = closed_form(w, dw)
        out[name] = _block_sum(blocks)
    if "concurrence" in metrics:
        out["concurrence"] = _concurrence(np.asarray(diag), np.asarray(anti))
    return out


@dataclass(frozen=True)
class ParamFamily:
    """One-parameter family of X states ``phi -> rho(phi)``.

    ``tangent`` supplies the analytic derivative as an :class:`XTangent`
    with shapes ``(8,)`` and ``(4,)`` (any other raises
    :class:`NotXFormError`); when absent, derivatives fall back to
    symmetric differences of the compact components with step
    ``diff_step(phi)``, 1e-6 * max(1, |phi|).
    """

    state: Callable[[float], XState]
    tangent: Callable[[float], XTangent] | None = None

    def tangent_at(self, phi: float) -> XTangent:
        if self.tangent is not None:
            tangent = self.tangent(phi)
            shapes = np.shape(tangent.diag), np.shape(tangent.anti)
            if shapes != ((8,), (4,)):
                raise NotXFormError(
                    f"at phi={phi!r}: tangent diag shape {shapes[0]} and anti shape"
                    f" {shapes[1]}, expected (8,) and (4,)"
                )
            return tangent
        # Both differences probe the same two points: build each state once.
        state = lru_cache(maxsize=2)(self.state)
        diag = central_diff(lambda x: state(x).diag, phi)
        anti = central_diff(lambda x: state(x).anti, phi)
        return XTangent(diag, anti)

    def bloch_at(self, phi: float) -> np.ndarray:
        s = self.state(phi)
        return bloch_from_compact(s.diag, s.anti)


def _total(name: str, family: ParamFamily, phi: float) -> float:
    """Metric ``name`` of the family at ``phi`` through the block kernel.

    A non-finite result with a NaN or infinite tangent entry raises
    :class:`NotXFormError` naming the first such entry; the check runs only
    after a non-finite result, so a finite one costs a single test.
    """
    w = family.bloch_at(phi)
    tangent = family.tangent_at(phi)
    with np.errstate(invalid="ignore"):  # inf - inf of an infinite tangent: raised below
        total = float(evaluate_stack((name,), bloch=w, tangent=tangent.to_bloch_array())[name])
    if not math.isfinite(total):
        for field, values in (("diag", tangent.diag), ("anti", tangent.anti)):
            finite = np.isfinite(values)
            if not finite.all():
                k = int(np.argmin(finite))
                raise NotXFormError(
                    f"at phi={phi!r}: tangent {field}[{k}] is {values[k]}, not finite"
                )
    return total


def qfi_total(family: ParamFamily, phi: float) -> float:
    """Quantum Fisher information of the family at ``phi`` (sum over blocks)."""
    return _total("qfi", family, phi)


def skew_total(family: ParamFamily, phi: float) -> float:
    """Skew information 4 Tr((d sqrt(rho))^2) of the family at ``phi``."""
    return _total("skew", family, phi)


def concurrence_ghz_class(state: XState) -> float:
    """GHZ-class concurrence of an X state.

    C = 2 max(0, |rho_18| - sqrt(rho_22 rho_77) - sqrt(rho_33 rho_66)
                 - sqrt(rho_44 rho_55)).
    """
    return float(
        evaluate_stack(("concurrence",), diag=state.diag, anti=state.anti)["concurrence"]
    )


def random_family(rng: np.random.Generator) -> ParamFamily:
    """Seeded well-conditioned X-state family with an analytic tangent.

    Populations move along a floored simplex segment (floor 0.03 keeps every
    block bounded away from singularity), coherences keep a fixed fraction
    u in [0.1, 0.85] of the positivity bound while their phases rotate
    linearly; one of three motion modes (populations only, phases only, both)
    is drawn per family.  Used as the validation corpus for the oracle
    cross-checks.
    """
    d0 = 0.03 + 0.76 * rng.dirichlet(np.ones(8))
    d1 = 0.03 + 0.76 * rng.dirichlet(np.ones(8))
    fraction = rng.uniform(0.1, 0.85, size=4)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=4)
    rate = rng.uniform(-2.0, 2.0, size=4)
    mode = int(rng.integers(0, 3))
    if mode == 0:
        d1 = d0.copy()
    elif mode == 1:
        rate = np.zeros(4)

    rows = np.array([pair[0] for pair in BLOCK_PAIRS])
    cols = np.array([pair[1] for pair in BLOCK_PAIRS])
    slope = d1 - d0

    def populations(phi: float) -> np.ndarray:
        return (1.0 - phi) * d0 + phi * d1

    def state(phi: float) -> XState:
        diag = populations(phi)
        radius = fraction * np.sqrt(diag[rows] * diag[cols])
        return XState(diag, radius * np.exp(1j * (theta + rate * phi)))

    def tangent(phi: float) -> XTangent:
        diag = populations(phi)
        prod = diag[rows] * diag[cols]
        dprod = slope[rows] * diag[cols] + diag[rows] * slope[cols]
        radius = fraction * np.sqrt(prod)
        dradius = fraction * dprod / (2.0 * np.sqrt(prod))
        phase = np.exp(1j * (theta + rate * phi))
        return XTangent(slope.astype(float), (dradius + 1j * rate * radius) * phase)

    return ParamFamily(state=state, tangent=tangent)
