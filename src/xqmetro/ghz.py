"""Damped Werner-GHZ application: pipeline family, reference closed forms, crosschecks.

The Werner-GHZ line ``rho(q) = q/8 I + (1-q) |GHZ><GHZ|`` is pushed through
each channel and the mixing parameter ``q`` is treated as the estimated
parameter.

``closed_form_qfi`` / ``closed_form_skew`` / ``closed_form_concurrence`` are
hand-derived per-channel reference expressions transcribed verbatim into this
one quarantined module.  They are *never* used by the generic pipeline
(channels + metrics); the :func:`crosscheck_grid` engine evaluates pipeline,
closed form and brute-force oracle side by side and reports a verdict per
metric.  Known defects of the reference expressions (see the depolarizing
helpers below) therefore show up as reported deviations, not as wrong
pipeline numbers.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np

from .channels import (
    ChannelKind,
    ChannelParam,
    _damped_compact,
    apply_kraus_dense,
    damped_bloch_array,
)
from .errors import BadParameterError
from .linalg import diff_step
from .metrics import (
    METRIC_NAMES,
    ParamFamily,
    _check_names,
    _float_if_single,
    _kernel,
    evaluate_stack,
)

# Unused here, but importable from this module: the benchmark's tracer
# self-test calls xqmetro.ghz.qfi_total.
from .metrics import qfi_total  # noqa: F401
from .oracle import oracle_column
from .xstate import (
    XState,
    XTangent,
    bloch_from_compact,
    check_compact,
    compact_from_bloch,
    compact_from_dense,
    dense_from_compact,
)

GHZ_QMIN = 1e-3
CLOSED_FORM_TOL = 1e-8


def _werner_compact(q):
    """Compact form of the Werner-GHZ state; array ``q`` gives a stack.

    Any finite ``q`` is accepted, so probes may step past [0, 1]; a NaN or
    infinite one raises :class:`BadParameterError` naming the first.
    """
    q = np.asarray(q, dtype=float)
    finite = np.isfinite(q)
    if not finite.all():
        raise BadParameterError(f"q must be finite, got {float(q[~finite][0])}")
    diag = np.empty(q.shape + (8,))
    diag[...] = (q / 8.0)[..., None]
    diag[..., 0] = diag[..., 7] = (4.0 - 3.0 * q) / 8.0
    anti = np.zeros(q.shape + (4,), dtype=complex)
    anti[..., 0] = (1.0 - q) / 2.0
    return diag, anti


# The Werner line is affine in q, so its q-derivative is rho(1) - rho(0).
_TANGENT_DIAG, _TANGENT_ANTI = (
    ends[1] - ends[0] for ends in _werner_compact(np.array([0.0, 1.0]))
)
_TANGENT_DIAG.setflags(write=False)
_TANGENT_ANTI.setflags(write=False)

# (q, p) points per kernel pass in :func:`ghz_grid`.  A pass pays a fixed
# cost of about 100 numpy calls, and its working set grows by about 0.9 KiB
# per point: the budget bounds the working set, not the p count.
GRID_POINTS = 1000


def werner_ghz(q: float) -> XState:
    """Werner-GHZ state ``q/8 I + (1-q)|GHZ><GHZ|`` for q in [0, 1]."""
    if not np.isfinite(q) or not 0.0 <= q <= 1.0:
        raise BadParameterError(f"q must lie in [0, 1], got {float(q)!r}")
    return XState(*_werner_compact(q))


def ghz_family(kind: ChannelKind, p: float) -> ParamFamily:
    """Damped Werner-GHZ family in ``q`` through the closed-form channel route.

    The channel is linear, so the analytic tangent is the channel image of
    d rho / dq (constant in q).  The state callable accepts small
    out-of-range probes so finite-difference oracles can straddle q = 0, 1.
    """
    param = ChannelParam(p)

    def state(q: float) -> XState:
        return XState(*_damped_compact(kind, *_werner_compact(q), param))

    tangent = XTangent(*_damped_compact(kind, _TANGENT_DIAG, _TANGENT_ANTI, param))
    return ParamFamily(state=state, tangent=lambda q: tangent)


def _axis(name: str, values) -> np.ndarray:
    """``values`` as a float array; :class:`BadParameterError` unless one-dimensional."""
    axis = np.asarray(values, dtype=float)
    if axis.ndim != 1:
        raise BadParameterError(f"{name} must be one-dimensional, got shape {axis.shape}")
    return axis


def ghz_grid(kind: ChannelKind, q_values, p_values, metrics=METRIC_NAMES) -> dict[str, np.ndarray]:
    """Pipeline metrics of the damped Werner-GHZ family over a whole (q, p) grid.

    Returns ``{metric: array of shape (len(q_values), len(p_values))}``.
    Element ``[i, j]`` is, bit for bit, what ``qfi_total`` / ``skew_total`` /
    ``concurrence_ghz_class`` give on ``ghz_family(kind, p_j)`` at ``q_i``:
    states take the same route to compact form and back to Bloch
    coordinates (that round trip is not exact), and every stack passes the
    checks of :class:`XState`.  Unknown metric names raise before any
    work, then a q or p axis that is not one-dimensional; then a NaN or
    infinite q, and a q outside [0, 1] with the text of :func:`werner_ghz`,
    raise before any channel or kernel work.

    The p axis is walked in the fewest contiguous passes of at most
    ``max(1, GRID_POINTS // len(q_values))`` p values, split evenly (51 p
    over 40 q run as 17 + 17 + 17).  Every kernel operation is elementwise
    or per block row, so the split moves no bit.  The Werner states' Bloch
    coordinates and the damped constant tangent (every p) are made once.
    Each pass's states pass :func:`check_compact` and go straight to the
    kernel's core with the tangent ``(p, 1, 4, 4)`` un-broadcast: checked
    compact stacks and the damped tangent are finite, so
    :func:`evaluate_stack`'s boundary would find nothing.
    """
    metrics = _check_names(metrics)
    q = _axis("q_values", q_values)
    params = [ChannelParam(p) for p in _axis("p_values", p_values).tolist()]
    werner = bloch_from_compact(*_werner_compact(q))
    outside = (q < 0.0) | (q > 1.0)
    if outside.any():
        raise BadParameterError(f"q must lie in [0, 1], got {float(q[outside][0])!r}")
    out = {name: np.empty((len(q), len(params))) for name in metrics}
    tangent = bloch_from_compact(*_damped_compact(kind, _TANGENT_DIAG, _TANGENT_ANTI, params))
    width = max(1, GRID_POINTS // max(1, len(q)))
    passes = -(-len(params) // width)
    stops = [len(params) * k // passes for k in range(1, passes + 1)]
    for start, stop in zip([0, *stops], stops):
        # (p, q, 8), (p, q, 4)
        diag, anti = compact_from_bloch(damped_bloch_array(kind, werner, params[start:stop]))
        check_compact(diag, anti)
        values = _kernel(
            metrics, bloch_from_compact(diag, anti), tangent[start:stop, None], diag, anti
        )
        for name, value in values.items():
            out[name][:, start:stop] = value.T
    return out


def _closed_form_inputs(q, p) -> tuple[np.ndarray, np.ndarray]:
    """``q`` and the survival ``1 - p`` as float arrays, for the closed forms.

    Each closed form takes ``q`` and ``p`` as floats or as arrays that
    broadcast, and gives a float for a float pair.  Every q is checked against
    [``GHZ_QMIN``, 1], then every p against [0, 1] (the text of
    :class:`ChannelParam`); the first outside, NaN included, raises naming it
    as a float.  Every power is ``np.float_power``, which rounds as a scalar
    ``**`` does where the array ``**`` does not, so a grid call's elements are
    its one-point calls bit for bit.  A division by zero or a root of a
    negative number reads NaN or infinite without a warning.
    """
    q, p = np.asarray(q, dtype=float), np.asarray(p, dtype=float)
    outside = ~((q >= GHZ_QMIN) & (q <= 1.0))
    if outside.any():
        value = float(q[outside][0])
        raise BadParameterError(f"closed forms need q in [{GHZ_QMIN}, 1], got {value!r}")
    outside = ~((p >= 0.0) & (p <= 1.0))
    if outside.any():
        ChannelParam(float(p[outside][0]))  # raises BadProbabilityError naming it
    return q, 1.0 - p


@np.errstate(divide="ignore", invalid="ignore")
def closed_form_qfi(kind: ChannelKind, q, p):
    """Reference Fisher information of the damped Werner-GHZ family.

    Transcribed verbatim per channel.  The depolarizing expression carries a
    known factor-4 deficit in its diagonal-block term — see
    :func:`depolarizing_qfi_gap`; the phase-flip expression contains one
    unbalanced fragment whose minimal reading is ``(2S-1)^6 (1-q)``.  ``q``
    and ``p`` are floats or arrays (see :func:`_closed_form_inputs`): a q
    outside [0.001, 1] raises ``closed forms need q in [0.001, 1], got …``,
    then a p outside [0, 1] ``p must lie in [0, 1], got …``.
    """
    q, s = _closed_form_inputs(q, p)
    if kind is ChannelKind.DEPOLARIZING:
        s2, s3, s4, s6 = (np.float_power(s, n) for n in (2.0, 3.0, 4.0, 6.0))
        a = 1.0 + 3.0 * s2 - 3.0 * q * s2
        b = s3 - q * s3
        num = np.float_power(-3.0 * s2 * a / 16.0 + s3 * b, 2.0)
        den = np.float_power(a, 2.0) / 16.0 - np.float_power(b, 2.0)
        return _float_if_single(
            (4.0 / a) * (num / den - (9.0 * s4 / 16.0 - s6))
            + 3.0 * s4 / (16.0 * (1.0 - s2 + q * s2))
            + 9.0 * s4 / (4.0 * a)
        )
    # Phase damping reads S^6 where phase flip reads (2S-1)^6, and each keeps
    # its printed leading term (they round differently).
    a = 4.0 - 3.0 * q
    if kind is ChannelKind.PHASE_DAMPING:
        g6, lead = np.float_power(s, 6.0), -3.0 * a / 16.0
    else:
        g6, lead = np.float_power(2.0 * s - 1.0, 6.0), (-12.0 + 9.0 * q) / 16.0
    num = np.float_power(lead + g6 * (1.0 - q), 2.0)
    den = np.float_power(a, 2.0) / 16.0 - g6 * np.float_power(1.0 - q, 2.0)
    return _float_if_single(
        3.0 / (4.0 * q) + 9.0 / (4.0 * a) + (4.0 / a) * (num / den - (9.0 / 16.0 - g6))
    )


@np.errstate(divide="ignore", invalid="ignore")
def closed_form_concurrence(kind: ChannelKind, q, p):
    """Reference concurrence of the damped Werner-GHZ state, per channel.

    Phase damping and depolarizing are transcribed verbatim (the depolarizing
    expression deviates from the pipeline; the crosscheck reports it).  The
    phase-flip expression ``(2S-1)^3 + q(1/4 - 6S + 12S^2 - 8S^3)`` expands to
    ``(2S-1)^3 (1-q) - 3q/4``, i.e. the anti-diagonal magnitude's derivation
    with the magnitude bars dropped: past p = 1/2 the signed cube goes
    negative while the concurrence depends on |2S-1|^3, so the magnitude
    reading is used.  A value that is not positive, or NaN, reads 0.0.
    Inputs and their checks are those of :func:`closed_form_qfi`.
    """
    q, s = _closed_form_inputs(q, p)
    s3, s6 = np.float_power(s, 3.0), np.float_power(s, 6.0)
    if kind is ChannelKind.PHASE_DAMPING:
        value = (
            -3.0 * q / 4.0
            + (4.0 - 3.0 * q + 4.0 * s3 - 4.0 * q * s3) / 8.0
            + (-4.0 + 3.0 * q + 4.0 * s3 - 4.0 * q * s3) / 8.0
        )
    elif kind is ChannelKind.DEPOLARIZING:
        root = np.sqrt(
            16.0 * (1.0 - 2.0 * s3 + 5.0 * s6)
            - 8.0 * q * (3.0 - 6.0 * s3 + 19.0 * s6)
            + np.float_power(q, 2.0) * (9.0 - 18.0 * s3 + 73.0 * s6)
        )
        value = (-3.0 * q * s * (1.0 + s) + root) / 8.0
    else:
        value = np.float_power(np.abs(2.0 * s - 1.0), 3.0) * (1.0 - q) - 0.75 * q
    return _float_if_single(np.where(value > 0.0, value, 0.0))


@np.errstate(divide="ignore", invalid="ignore")
def closed_form_skew(kind: ChannelKind, q, p):
    """Reference skew information of the damped Werner-GHZ family.

    Transcribed verbatim per channel, including the depolarizing expression's
    printed inner quantities (its lambda_2 leading term and an unsquared
    coherence factor disagree with the pipeline; the crosscheck reports the
    deviation).  The phase-flip expression's coherence term uses the
    ``(2S-1)^6 (1-q)`` reading that mirrors the phase-damping structure.
    At (q, p) = (1, 0) the depolarizing lambda_2 base is 0: the value is NaN,
    which the crosscheck reports as a singular verdict.  Inputs and their
    checks are those of :func:`closed_form_qfi`.
    """
    q, s = _closed_form_inputs(q, p)
    s3 = np.float_power(s, 3.0)
    if kind is ChannelKind.DEPOLARIZING:
        s2, b = np.float_power(s, 2.0), s3 - q * s3
        b2 = np.float_power(b, 2.0)
        root = np.sqrt(np.float_power((1.0 + 3.0 * s2) / 4.0 - 3.0 * q * s2 / 4.0, 2.0) - b2)
        lam2 = np.float_power((1.0 + s2) / 4.0 - 3.0 * q * s2 / 4.0 + root, -0.5)
        theta2, gamma2 = lam2 / root, np.float_power(lam2, 3.0) / root
        pref = 1.0 / (np.float_power(1.0 + 3.0 * s2 - 3.0 * q * s2, 2.0) - 16.0 * b2)
        term0_sq = pref * np.float_power(-3.0 * s2 / 4.0 / lam2 + lam2 * s3 * b, 2.0)
        term1 = 3.0 * theta2 / 16.0 * s2 * b - lam2 / 2.0 * s3 - gamma2 / 4.0 * s3 * b
        return _float_if_single(
            8.0 * (term0_sq + np.float_power(term1, 2.0))
            + 3.0 * np.float_power(s, 4.0) / (4.0 * (1.0 - s2 + q * s2))
        )
    # Phase damping reads S^3 where phase flip reads (2S-1)^3, and S^9 where
    # it reads ((2S-1)^3)^3; the two round differently, so each keeps its own.
    if kind is ChannelKind.PHASE_DAMPING:
        g3, g6, g9 = s3, np.float_power(s, 6.0), np.float_power(s, 9.0)
    else:
        g3 = np.float_power(2.0 * s - 1.0, 3.0)
        g6, g9 = np.float_power(g3, 2.0), np.float_power(g3, 3.0)
    u2 = np.float_power(1.0 - q, 2.0)
    radicand = np.float_power(4.0 - 3.0 * q, 2.0) / 16.0 - g6 * u2
    root = np.sqrt(radicand)
    k = (4.0 - 3.0 * q) / 4.0 + root
    lam = np.float_power(k, -0.5)
    theta, gamma = lam / root, np.float_power(lam, 3.0) / root
    term1 = 3.0 * theta / 16.0 * g3 * (1.0 - q) - lam / 2.0 * g3 - gamma / 4.0 * g9 * u2
    coherence = -3.0 * np.sqrt(k) / 4.0 + g6 * (1.0 - q) / np.sqrt(k)
    if kind is ChannelKind.PHASE_DAMPING:
        term0 = 1.0 / (4.0 * root) * coherence
        return _float_if_single(
            3.0 / (4.0 * q) + 8.0 * (np.float_power(term0, 2.0) + np.float_power(term1, 2.0))
        )
    term0_sq = 1.0 / (16.0 * radicand) * np.float_power(coherence, 2.0)
    return _float_if_single(8.0 * (np.float_power(term1, 2.0) + 3.0 / (32.0 * q) + term0_sq))


@np.errstate(divide="ignore", invalid="ignore")
def depolarizing_qfi_gap(q, p):
    """Expected deficit pipeline - closed form in the depolarizing Fisher information.

    The reference expression's diagonal-block term reads
    3 S^4 / (16 (1 - S^2 + q S^2)) where the pipeline and oracles give
    3 S^4 / (4 (1 - S^2 + q S^2)) — a factor-4 deficit, i.e. a gap of
    (9/16) S^4 / (1 - S^2 + q S^2).  Inputs and their checks are those of
    :func:`closed_form_qfi`.
    """
    q, s = _closed_form_inputs(q, p)
    s2 = np.float_power(s, 2.0)
    return _float_if_single((9.0 / 16.0) * np.float_power(s, 4.0) / (1.0 - s2 + q * s2))


class Verdict(enum.Enum):
    AGREE = "agree"
    CLOSED_FORM_DEVIATES = "closed-form-deviates"
    SINGULAR = "singular"
    PIPELINE_NON_FINITE = "pipeline-non-finite"


class MetricCheck(NamedTuple):
    """One metric compared across the three routes: arrays over a (q, p) grid,
    or their elements at one point."""

    pipeline: np.ndarray
    closed_form: np.ndarray
    oracle: np.ndarray
    verdict: np.ndarray  # of Verdict members

    @property
    def closed_form_delta(self) -> np.ndarray:
        return np.abs(self.pipeline - self.closed_form)

    @property
    def oracle_delta(self) -> np.ndarray:
        return np.abs(self.pipeline - self.oracle) / np.maximum(np.abs(self.oracle), 1.0)


def crosscheck(kind: ChannelKind, q: float, p: float) -> dict[str, MetricCheck]:
    """Evaluate pipeline, reference closed form, and oracle at one grid point.

    The one-point view of :func:`crosscheck_grid`, which documents the routes
    and the error semantics: each field is that grid's element ``[0, 0]``.
    """
    return {
        name: MetricCheck._make(field[0, 0] for field in check)
        for name, check in crosscheck_grid(kind, [q], [p]).items()
    }


def crosscheck_grid(kind: ChannelKind, q_values, p_values) -> dict[str, MetricCheck]:
    """Crosscheck every point of a (q, p) grid, one :class:`MetricCheck` per metric.

    Returns ``{metric: MetricCheck}`` keyed and ordered by ``METRIC_NAMES``;
    each field is an array of shape ``(len(q_values), len(p_values))``, and
    ``verdict`` an object array of :class:`Verdict` members.  An empty axis
    gives empty arrays.

    Pipeline values ride the compact closed-form channel route, the whole
    grid in one :func:`ghz_grid` call.  Oracle values ride the dense Kraus
    route, one :func:`apply_kraus_dense` call with the whole p axis as its
    parameter sequence, over the stack of rho(q) for every q, the skew
    probes rho(q -+ h) with ``h = diff_step(q)``, and d rho.  Its images,
    one per p, are then arranged as (probe, p, q): one :func:`~xqmetro.oracle.oracle_column` call
    gives the Fisher and skew oracles of the whole grid, and concurrence is
    the pipeline's expression on the Kraus images of rho(q), one kernel
    call.  Every value is, bit for bit, what the same point alone gives.

    A q or p axis that is not one-dimensional raises :class:`BadParameterError`.
    Each closed form is then called once, ``q[:, None]`` against ``p[None, :]``,
    before any channel work: every q, then every p, is checked with the texts
    of :func:`closed_form_qfi`, also beside an empty axis, and a closed form
    that raises raises here.  Where one reads NaN or infinite, that metric's
    verdict comes from the pipeline value (SINGULAR, or PIPELINE_NON_FINITE
    for a NaN or infinite one).  The Werner-GHZ inputs pass the checks of :class:`XState` as a
    stack, a failure naming (rho / left probe / right probe, q index); the
    Kraus images of the states do too, a failure naming (probe, p index,
    q index).  So does the oracle column, for the eigensolver's Hermiticity
    test (1e-12) with :class:`NotHermitianError` and the finishes' spectrum
    tests with :class:`NotPSDError` or :class:`TraceViolationError`; an
    eigensolver out of sweeps raises :class:`NotConvergedError`.  Each
    stacked check names its first failing element in C order, so probe by
    probe.  The Kraus image of a Hermitian state is Hermitian up to
    rounding, so a completely positive and trace-preserving channel fails
    none of these on an in-domain point.
    """
    q, p = _axis("q_values", q_values), _axis("p_values", p_values)
    # Looked up per call, so that a rebound closed form is the one that runs.
    forms = (closed_form_qfi, closed_form_skew, closed_form_concurrence)
    closed = {name: form(kind, q[:, None], p[None, :]) for name, form in zip(METRIC_NAMES, forms)}
    pipeline = ghz_grid(kind, q, p)

    # Oracle inputs: rho(q), then the skew probes rho(q - h) and rho(q + h),
    # as one (3, q) stack of states followed by d rho.
    steps = [diff_step(x) for x in q.tolist()]
    h = np.array(steps)
    diag, anti = _werner_compact(np.array([q, q - h, q + h]))
    check_compact(diag, anti)
    tangent = XTangent(_TANGENT_DIAG, _TANGENT_ANTI).to_dense()
    stack = np.concatenate([dense_from_compact(diag, anti).reshape((-1, 8, 8)), tangent[None]])

    # One Kraus image per p, then (probe, p, q) stacks of states and the
    # (p, 1) stack of d rho, which broadcasts over q as the steps do.
    images = apply_kraus_dense(stack, kind, [ChannelParam(x) for x in p.tolist()])
    states = images[:, :-1].reshape((len(p),) + diag.shape[:-1] + (8, 8)).swapaxes(0, 1)
    kraus_diag, kraus_anti = compact_from_dense(states)
    # The eigen oracle reads the raw image of rho, as it does d rho; the
    # skew probes are rebuilt from their compact forms.
    column = np.concatenate([states[:1], dense_from_compact(kraus_diag[1:], kraus_anti[1:])])
    drho = images[:, -1:].copy()
    del images, states  # not held through the oracle column
    fisher, skew = oracle_column(column, drho, steps)
    concurrence = evaluate_stack(("concurrence",), kraus_diag[0], kraus_anti[0])
    oracle = {"qfi": fisher.T, "skew": skew.T, "concurrence": concurrence["concurrence"].T}

    checks = {}
    for name, closed_form in closed.items():
        values = pipeline[name]
        with np.errstate(invalid="ignore"):  # inf - inf: a non-finite value, decided first
            delta = np.abs(values - closed_form)
        verdict = np.select(
            [
                # A NaN or infinite pipeline value is a fault of the pipeline, whatever
                # the reference says; it is not singular, so validate still fails on it.
                ~np.isfinite(values),
                # A closed form that is NaN or infinite is undefined at the point (the
                # depolarizing skew form at q = 1, p = 0), not a deviation.
                ~np.isfinite(closed_form),
                delta <= CLOSED_FORM_TOL,
            ],
            [Verdict.PIPELINE_NON_FINITE, Verdict.SINGULAR, Verdict.AGREE],
            Verdict.CLOSED_FORM_DEVIATES,
        )
        checks[name] = MetricCheck(values, closed_form, oracle[name], verdict)
    return checks
