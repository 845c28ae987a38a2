"""Estimation metrics for one-parameter X-state families.

Quantum Fisher information and skew information decompose over the four
blocks; each block is handled in its Bloch coordinates ``w = (w0, w1, w2, w3)``
with the Minkowski-signature contractions

    gap(w, v)   = w0*v0 - w1*v1 - w2*v2 - w3*v3.

Mixed blocks (``gap(w, w) > 1e-10``) use closed forms; blocks at or beyond the
purity boundary take the rank-aware 2x2 spectral sum, closed over the block
eigenvalues ``(w0 +- |w|)/2`` (Fisher information), or the documented
pure-limit stand-in ``4 Tr((d rho)^2)`` (skew information): the mixed closed
forms see only mixed blocks, and no route calls an eigensolver.  Every
route works on the Bloch coordinates alone: none builds a block's 2x2
matrix or its symmetric logarithmic derivative.

Every closed form works on stacked arrays.  :func:`evaluate_stack` is the one
kernel that routes blocks and sums them over any stack of states, in two
parts: a checked boundary (metric names, the inputs each metric reads, their
shapes and finite entries) and one core that routes, runs the closed forms
and sums, checking nothing.  The callers that check their own inputs call
the core directly: ``ghz.ghz_grid``, with a whole sweep grid's stacks, and
:func:`qfi_total`, :func:`skew_total` and :func:`concurrence_ghz_class`,
the kernel's single-state views, which check each input once and skip what
an :class:`XState` was validated for when built.
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
    BLOCK_PAIRS,
    XState,
    XTangent,
    _fail,
    _first_failure,
    _not_finite,
    bloch_from_compact,
    check_compact,
)

EPS_SINGULAR = 1e-10
RANK_CUTOFF = 1e-12
# The kernel's metrics, in the order of every table and report column.
METRIC_NAMES = ("qfi", "skew", "concurrence")


def _gap(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Minkowski contraction over the last axis of stacked Bloch 4-vectors."""
    return w[..., 0] * v[..., 0] - np.vecdot(w[..., 1:], v[..., 1:])


def _require_mixed(w: np.ndarray, gap_ww: np.ndarray, message: str) -> None:
    singular = (w[..., 0] <= EPS_SINGULAR) | (gap_ww <= EPS_SINGULAR)
    if singular.any():
        _fail(SingularBlockError, singular, lambda i: f"{message}, got gap {gap_ww[i]:.3e}")


def _check_names(metrics: Iterable[str]) -> None:
    """Raise :class:`BadParameterError` for the first name that is not a kernel metric."""
    for name in metrics:
        if name not in METRIC_NAMES:
            raise BadParameterError(f"unknown metric {name!r}; expected qfi, skew or concurrence")


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


def evaluate_stack(
    metrics: Iterable[str],
    bloch: np.ndarray | None = None,
    tangent: np.ndarray | None = None,
    diag: np.ndarray | None = None,
    anti: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """The block kernel: metric totals over stacked X states.

    ``"qfi"`` and ``"skew"`` read the Bloch coordinates ``bloch`` and their
    derivative ``tangent`` (shapes that broadcast together to ``(..., 4,
    4)``); ``"concurrence"`` reads the compact state ``diag`` (..., 8),
    ``anti`` (..., 4).  Each result has the stack's shape.  An unknown metric
    name, or a metric without the inputs it reads, raises
    :class:`BadParameterError`.

    Mixed blocks (w0 > 1e-10 and gap(w, w) > 1e-10) take the closed forms of
    :func:`qfi_block_mixed` and :func:`skew_block` in one call per metric;
    every other block takes the rank-aware 2x2 spectral Fisher sum, in closed
    form over the block's eigenpairs, and the pure-limit skew stand-in, so no
    mixed closed form ever sees a singular block.  Shapes that do not
    broadcast as above, or a NaN/+-inf entry of an input a metric reads,
    raise :class:`NotXFormError` naming both shapes or the first such entry.
    Each element's value equals the one :func:`qfi_total`,
    :func:`skew_total` and :func:`concurrence_ghz_class` give for it alone,
    bit for bit: those are this kernel's single-state views.
    """
    return _kernel(metrics, *_checked_inputs(metrics, bloch, tangent, diag, anti))


def _checked_inputs(metrics, bloch, tangent, diag, anti):
    """The kernel's boundary: every check of :func:`evaluate_stack`, in its order.

    Returns the arrays :func:`_kernel` reads, ``(w, dw, diag, anti)``; an
    input no requested metric reads is passed on unchecked.
    """
    _check_names(metrics)
    inputs = {"qfi": (bloch, tangent), "skew": (bloch, tangent), "concurrence": (diag, anti)}
    for name in metrics:
        if any(value is None for value in inputs[name]):
            needs = "diag and anti" if name == "concurrence" else "bloch and tangent"
            raise BadParameterError(f"metric {name!r} needs {needs}")
    w = dw = None
    if "qfi" in metrics or "skew" in metrics:
        w = np.asarray(bloch, dtype=float)
        dw = np.asarray(tangent, dtype=float)
        if w.shape != dw.shape:
            try:
                w, dw = np.broadcast_arrays(w, dw)
            except ValueError:
                pass  # the shapes stay apart and are named below
        if w.shape != dw.shape or w.shape[-2:] != (4, 4):
            raise NotXFormError(
                "expected bloch and tangent that broadcast to (..., 4, 4),"
                f" got shapes {np.shape(bloch)} and {np.shape(tangent)}"
            )
        if not (np.isfinite(w).all() and np.isfinite(dw).all()):
            _first_failure(_not_finite("w", w, 2), _not_finite("tangent w", dw, 2))
    if "concurrence" in metrics:
        diag, anti = np.asarray(diag), np.asarray(anti)
        shaped = diag.shape[-1:] == (8,) and anti.shape == diag.shape[:-1] + (4,)
        if not (shaped and np.isfinite(diag).all() and np.isfinite(anti).all()):
            check_compact(diag, anti)  # its first checks: these shapes, then finite entries
    return w, dw, diag, anti


def _kernel(metrics, w, dw, diag, anti) -> dict[str, np.ndarray]:
    """The kernel's core: route the blocks, run the closed forms, sum the blocks.

    Reads only inputs that passed :func:`_checked_inputs`, or that hold
    what it checks by construction, and checks nothing itself.  ``dw`` may
    be a tangent that broadcasts to ``w``'s shape: the closed forms
    broadcast it, so its tangent-only terms are computed once per tangent,
    and the fallback branch broadcasts it before masking blocks.
    """
    out = {}
    if "qfi" in metrics or "skew" in metrics:
        mixed = (w[..., 0] > EPS_SINGULAR) & (_gap(w, w) > EPS_SINGULAR)
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
    ``diff_step(phi)``, 1e-6 * max(1, |phi|).  A Hermitian tangent has a
    real diagonal: a complex ``diag`` with a NaN/+-inf entry or a nonzero
    imaginary part raises :class:`NotXFormError` naming ``phi`` and the
    entry, and one whose imaginary parts are all zero is returned as its
    real part.
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
                diag = np.asarray(tangent.diag)
                _first_failure(
                    _not_finite(f"at phi={phi!r}: tangent diag", diag),
                    (NotXFormError, diag.imag != 0.0,
                     lambda _, k: f"at phi={phi!r}: tangent diag[{k}] is {diag[k]}, not real", 1),
                )
                tangent = XTangent(diag.real, tangent.anti)
            return tangent
        # Both differences probe the same two points: build each state once.
        state = lru_cache(maxsize=2)(self.state)
        diag = central_diff(lambda x: state(x).diag, phi)
        anti = central_diff(lambda x: state(x).anti, phi)
        return XTangent(diag, anti)

    def bloch_at(self, phi: float) -> np.ndarray:
        """Bloch coordinates ``(4, 4)`` of the state at ``phi``.

        An :class:`XState` was validated when built.  Any other state gets
        the kernel's checks here: shapes other than ``(8,)`` and ``(4,)``,
        or a NaN or infinite coordinate, raise :class:`NotXFormError` naming
        ``phi``.
        """
        s = self.state(phi)
        if isinstance(s, XState):
            return bloch_from_compact(s.diag, s.anti)
        shapes = np.shape(s.diag), np.shape(s.anti)
        if shapes != ((8,), (4,)):
            raise NotXFormError(
                f"at phi={phi!r}: state diag shape {shapes[0]} and anti shape"
                f" {shapes[1]}, expected (8,) and (4,)"
            )
        w = bloch_from_compact(s.diag, s.anti)
        if not np.isfinite(w).all():
            _first_failure(_not_finite(f"at phi={phi!r}: w", w, 2))
        return w


def _total(name: str, family: ParamFamily, phi: float) -> float:
    """Metric ``name`` of the family at ``phi`` through the kernel's core.

    The state comes checked from :meth:`ParamFamily.bloch_at`, and the
    tangent's diag real from :meth:`ParamFamily.tangent_at`.  The tangent
    is checked once, on the Bloch array the core reads: a NaN or infinite
    entry raises :class:`NotXFormError` naming ``phi`` and the first such
    compact entry, or the first Bloch entry if only the Bloch form
    overflows.
    """
    w = family.bloch_at(phi)
    tangent = family.tangent_at(phi)
    dw = tangent.to_bloch_array()
    if not np.isfinite(dw).all():
        _first_failure(
            _not_finite(f"at phi={phi!r}: tangent diag", tangent.diag),
            _not_finite(f"at phi={phi!r}: tangent anti", tangent.anti),
            _not_finite("tangent w", dw, 2),
        )
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
    An :class:`XState` goes straight to the core's closed form; any other
    state is checked as :func:`evaluate_stack` checks it.
    """
    if isinstance(state, XState):
        return float(_concurrence(state.diag, state.anti))
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
