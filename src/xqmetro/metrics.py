"""Estimation metrics for one-parameter X-state families.

Quantum Fisher information and skew information decompose over the four
blocks; each block is handled in its Bloch coordinates ``w = (w0, w1, w2, w3)``
with the Minkowski-signature contractions

    gap(w, v)   = w0*v0 - w1*v1 - w2*v2 - w3*v3.

Mixed blocks (``w0 > 1e-10`` and ``gap(w, w) > 1e-10``) use closed forms;
the other blocks take the rank-aware 2x2 spectral sum, closed over the block
eigenvalues ``(w0 +- |w|)/2`` (Fisher information), or the documented
pure-limit stand-in ``4 Tr((d rho)^2)`` (skew information): the mixed closed
forms see only mixed blocks, and no route calls an eigensolver.  Every
route works on the Bloch coordinates alone: none builds a block's 2x2
matrix or its symmetric logarithmic derivative.

Every closed form works on stacked arrays.  :func:`evaluate_stack` is the one
kernel that routes blocks and sums them over any stack of states, in two
parts: a checked boundary, which checks compact stacks of states (with
:func:`check_compact`, the package's one definition of a state) and of
tangents and converts them to Bloch form, and one core that routes, runs
the closed forms and sums, checking nothing.  The callers that check their
own inputs call the core directly: ``ghz.ghz_grid``, with a whole sweep
grid's stacks, and :func:`qfi_total`, :func:`skew_total` and
:func:`concurrence_ghz_class`, the kernel's single-state views, which take
only :class:`XState` states, validated when built, and check each tangent
once.

The cost of a single-state call is numpy dispatch on 4x4 arrays (the
README gives per-call figures), so the routing mask and each closed form
slice a block's ``w0`` and vector part once and hand the slices to
``_gap``, and :func:`~xqmetro.xstate.bloch_from_compact` writes each Bloch
column with one ufunc.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

import numpy as np

from .errors import BadParameterError, NotXFormError, SingularBlockError
# eigh is unused here, but importable from this module: the benchmark's
# tracer rebinds, and its self-test calls, xqmetro.metrics.eigh.
from .linalg import central_diff, eigh  # noqa: F401
from .xstate import (
    XState,
    XTangent,
    _check_tangent,
    _fail,
    _xstate,
    bloch_from_compact,
    check_compact,
)

EPS_SINGULAR = 1e-10
RANK_CUTOFF = 1e-12
# The kernel's metrics, in the order of every table and report column.
METRIC_NAMES = ("qfi", "skew", "concurrence")


def _gap(a0: np.ndarray, a: np.ndarray, b0: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minkowski contraction of stacked Bloch 4-vectors, given as their
    0th coordinates ``a0``, ``b0`` and vector parts ``a``, ``b`` (..., 3)."""
    return a0 * b0 - np.vecdot(a, b)


def _require_mixed(w0: np.ndarray, gap_ww: np.ndarray, message: str) -> None:
    singular = (w0 <= EPS_SINGULAR) | (gap_ww <= EPS_SINGULAR)
    if singular.any():
        _fail(SingularBlockError, singular, lambda i: f"{message}, got gap {gap_ww[i]:.3e}")


def _check_names(metrics: Iterable[str]) -> tuple[str, ...]:
    """The names as a tuple; the first unknown name raises :class:`BadParameterError`."""
    metrics = tuple(metrics)
    for name in metrics:
        if name not in METRIC_NAMES:
            raise BadParameterError(f"unknown metric {name!r}; expected qfi, skew or concurrence")
    return metrics


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
    w0, v, dw0, dv = w[..., 0], w[..., 1:], dw[..., 0], dw[..., 1:]
    gap_ww = _gap(w0, v, w0, v)
    _require_mixed(w0, gap_ww, "mixed-block form needs w0 > 0 and w0^2 > |w|^2")
    # Squares go through pow() via np.float_power, the rounding of a scalar
    # x**2; an array ** 2 computes x*x, which differs in rare last bits.
    value = np.float_power(dw0, 2.0) / w0 + (
        np.float_power(_gap(w0, v, dw0, dv), 2.0) / gap_ww - _gap(dw0, dv, dw0, dv)
    ) / w0
    return _float_if_single(value)


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
    w0, vec, dw0, dvec = w[..., 0], w[..., 1:], dw[..., 0], dw[..., 1:]
    gap_ww = _gap(w0, vec, w0, vec)
    _require_mixed(w0, gap_ww, "skew closed form needs a strictly mixed block")
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


def evaluate_stack(
    metrics: Iterable[str],
    diag: np.ndarray,
    anti: np.ndarray,
    tangent_diag: np.ndarray | None = None,
    tangent_anti: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """The block kernel: metric totals over stacked X states.

    Takes compact stacks: the states ``diag`` (..., 8), ``anti`` (..., 4)
    and their tangent ``(tangent_diag, tangent_anti)``, which broadcasts to
    the states' shapes and which ``"concurrence"`` does not read.  Each
    result has the stack's shape, and each element is, bit for bit, what
    :func:`qfi_total`, :func:`skew_total` and :func:`concurrence_ghz_class`
    (this kernel's single-state views) give for it alone.

    The boundary, in order: an unknown metric name raises
    :class:`BadParameterError`; the states pass :func:`check_compact` (the
    errors :class:`XState` raises, naming the element); a tangent that does
    not broadcast raises :class:`NotXFormError` naming the shapes, and
    :func:`~xqmetro.xstate._check_tangent` names its first bad entry; then
    ``"qfi"`` or ``"skew"`` without a tangent raises
    :class:`BadParameterError`.  A tangent need not have trace 0: central
    differences of states that each hold trace 1 to 1e-12 give traces up to
    about 1e-6 at h = 1e-6.
    """
    metrics = _check_names(metrics)
    diag, anti = np.asarray(diag, dtype=float), np.asarray(anti, dtype=complex)
    check_compact(diag, anti)
    w = dw = None
    if tangent_diag is not None and tangent_anti is not None:
        try:
            tangent_diag = np.broadcast_to(tangent_diag, diag.shape)
            tangent_anti = np.broadcast_to(tangent_anti, anti.shape)
        except ValueError:
            raise NotXFormError(
                f"expected a tangent that broadcasts to shapes {diag.shape} and {anti.shape},"
                f" got shapes {np.shape(tangent_diag)} and {np.shape(tangent_anti)}"
            ) from None
        w = bloch_from_compact(diag, anti)
        with np.errstate(all="ignore"):  # a non-finite or overflowing entry is named below
            dw = bloch_from_compact(tangent_diag.real, tangent_anti)
        if np.iscomplexobj(tangent_diag) or not np.isfinite(dw).all():
            _check_tangent(tangent_diag, tangent_anti, dw)
    elif "qfi" in metrics or "skew" in metrics:
        raise BadParameterError("metrics 'qfi' and 'skew' need tangent_diag and tangent_anti")
    return _kernel(metrics, w, dw, diag, anti)


def _kernel(metrics, w, dw, diag, anti) -> dict[str, np.ndarray]:
    """The kernel's core: route the blocks, run the closed forms, sum the blocks.

    Reads only inputs that passed :func:`evaluate_stack`'s boundary, or that
    hold what it checks by construction, and checks nothing.  ``dw`` may be
    a tangent that broadcasts to ``w``'s shape: the closed forms
    broadcast it, so its tangent-only terms are computed once per tangent,
    and the fallback branch broadcasts it before masking blocks.
    """
    out = {}
    if "qfi" in metrics or "skew" in metrics:
        w0, v = w[..., 0], w[..., 1:]
        mixed = (w0 > EPS_SINGULAR) & (_gap(w0, v, w0, v) > EPS_SINGULAR)
        fallback = not mixed.all()
        if fallback and dw.shape != w.shape:
            dw = np.broadcast_to(dw, w.shape)
    # Looked up per call: a closed form rebound on the module (say, by a
    # tracer) is the one called.
    for name, closed_form, singular_form in (
        ("qfi", qfi_block_mixed, _qfi_blocks_spectral),
        ("skew", skew_block, _skew_block_singular),
    ):
        if name not in metrics:
            continue
        if fallback:
            singular = ~mixed
            blocks = np.empty(mixed.shape)
            blocks[mixed] = closed_form(w[mixed], dw[mixed])
            blocks[singular] = singular_form(w[singular], dw[singular])
        else:
            blocks = closed_form(w, dw)
        # Bit for bit ((((0.0 + b0) + b1) + b2) + b3): numpy adds fewer than 8
        # terms in sequence, and initial=0.0 turns -0.0 into 0.0 as 0.0 + b0 does.
        out[name] = np.add.reduce(blocks, axis=-1, initial=0.0)
    if "concurrence" in metrics:
        out["concurrence"] = _concurrence(diag, anti)
    return out


@dataclass(frozen=True)
class ParamFamily:
    """One-parameter family of X states ``phi -> rho(phi)``.

    ``tangent`` supplies the analytic derivative as an :class:`XTangent`
    with shapes ``(8,)`` and ``(4,)`` (any other raises
    :class:`NotXFormError`); when absent, derivatives fall back to
    symmetric differences of the compact components with step
    ``diff_step(phi)``, 1e-6 * max(1, |phi|); a probe state that is not an
    :class:`XState` raises :class:`NotXFormError` naming the probe's
    ``phi``.  A Hermitian tangent has a real diagonal: a complex ``diag``
    raises :class:`NotXFormError` from :func:`~xqmetro.xstate._check_tangent`,
    naming ``phi``, unless its imaginary parts are all zero; then it is
    returned as its real part.
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
            if np.iscomplexobj(tangent.diag):
                _check_tangent(tangent.diag, tangent.anti, where=f"at phi={phi!r}: ")
                tangent = XTangent(np.asarray(tangent.diag).real, tangent.anti)
            return tangent
        # Both differences probe the same two points: build each state once.
        state = lru_cache(maxsize=2)(lambda x: _xstate(self.state(x), x))
        diag = central_diff(lambda x: state(x).diag, phi)
        anti = central_diff(lambda x: state(x).anti, phi)
        return XTangent(diag, anti)

    def bloch_at(self, phi: float) -> np.ndarray:
        """Bloch coordinates ``(4, 4)`` of the state at ``phi``.

        The state must be an :class:`XState`, validated when built: any other
        object raises :class:`NotXFormError` naming ``phi`` and its type.
        """
        s = _xstate(self.state(phi), phi)
        return bloch_from_compact(s.diag, s.anti)


def _total(name: str, family: ParamFamily, phi: float) -> float:
    """Metric ``name`` of the family at ``phi`` through the kernel's core.

    The state comes checked from :meth:`ParamFamily.bloch_at`, and the
    tangent's diag real from :meth:`ParamFamily.tangent_at`.  The tangent
    is tested once, on the Bloch array the core reads; only a failure runs
    :func:`~xqmetro.xstate._check_tangent`, which names ``phi`` and the
    first NaN/+-inf compact entry, or the first Bloch entry if only the
    Bloch form overflows.
    """
    w = family.bloch_at(phi)
    tangent = family.tangent_at(phi)
    dw = tangent.to_bloch_array()
    if not np.isfinite(dw).all():
        _check_tangent(tangent.diag, tangent.anti, dw, f"at phi={phi!r}: ")
    return float(_kernel((name,), w, dw, None, None)[name])


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
    Any state but an :class:`XState` raises :class:`NotXFormError` naming
    its type.
    """
    state = _xstate(state)
    return float(_concurrence(state.diag, state.anti))


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

    slope = d1 - d0

    def populations(phi: float) -> np.ndarray:
        return (1.0 - phi) * d0 + phi * d1

    def state(phi: float) -> XState:
        diag = populations(phi)
        radius = fraction * np.sqrt(diag[:4] * diag[:3:-1])
        return XState(diag, radius * np.exp(1j * (theta + rate * phi)))

    def tangent(phi: float) -> XTangent:
        diag = populations(phi)
        prod = diag[:4] * diag[:3:-1]
        dprod = slope[:4] * diag[:3:-1] + diag[:4] * slope[:3:-1]
        radius = fraction * np.sqrt(prod)
        dradius = fraction * dprod / (2.0 * np.sqrt(prod))
        phase = np.exp(1j * (theta + rate * phi))
        return XTangent(slope.astype(float), (dradius + 1j * rate * radius) * phase)

    return ParamFamily(state=state, tangent=tangent)
