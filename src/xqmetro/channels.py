"""Single-qubit decoherence channels applied independently to all three qubits.

Each channel is available on two deliberately separate routes, both over
stacks:

* :func:`apply_kraus_dense` — dense 8x8 conjugation by triple Kronecker
  products of the single-qubit Kraus operators;
* :func:`damped_bloch_array` — exact closed-form linear map on block Bloch
  coordinates, built from the channel's per-qubit Bloch scaling factors and
  the literal z-sector sign tables ``M_EVEN``/``M_ODD`` kept here; its
  compact composition ``_damped_compact`` is the one ``ghz`` reuses.

Both take one :class:`ChannelParam` or a sequence of them; a sequence adds a
leading parameter axis to the result, and one parameter is its one-element
view.

The two routes share no channel mathematics, so their agreement (tested to
1e-12 elementwise) is a real check rather than a tautology.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BadParameterError, BadProbabilityError
from .xstate import bloch_from_compact, compact_from_bloch


class ChannelKind(enum.Enum):
    """Decoherence channel family; values double as CLI labels."""

    PHASE_DAMPING = "pdc"
    DEPOLARIZING = "dpc"
    PHASE_FLIP = "pfc"

    @classmethod
    def from_label(cls, label: str) -> "ChannelKind":
        try:
            return cls(label.lower())
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise BadParameterError(
                f"unknown channel {label!r}; expected one of {valid}"
            ) from None


@dataclass(frozen=True)
class ChannelParam:
    """Channel strength ``p`` in [0, 1] with derived quantities.

    ``survival = 1 - p`` (so survival 1 means no noise) and, for the
    depolarizing channel, the Kraus weight ``p_prime = 3 p / 4``.
    """

    p: float

    def __post_init__(self):
        if not np.isfinite(self.p) or not 0.0 <= self.p <= 1.0:
            raise BadProbabilityError(f"p must lie in [0, 1], got {float(self.p)!r}")

    @property
    def survival(self) -> float:
        return 1.0 - self.p

    @property
    def p_prime(self) -> float:
        return 0.75 * self.p


_ID = np.eye(2, dtype=complex)
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_P0 = np.array([[1, 0], [0, 0]], dtype=complex)
_P1 = np.array([[0, 0], [0, 1]], dtype=complex)


def kraus_operators(kind: ChannelKind, param: ChannelParam) -> list[np.ndarray]:
    """Single-qubit Kraus operators of the channel.

    Phase damping:  sqrt(1-p) I,  sqrt(p) |0><0|,  sqrt(p) |1><1|.
    Depolarizing:   sqrt(1-p') I, sqrt(p'/3) sx, sqrt(p'/3) sy, sqrt(p'/3) sz
                    with p' = 3p/4.
    Phase flip:     sqrt(1-p) I,  sqrt(p) sz.

    Completeness sum(K^dag K) = I holds exactly up to rounding.
    """
    s = param.survival
    if kind is ChannelKind.PHASE_DAMPING:
        return [
            np.sqrt(s) * _ID,
            np.sqrt(param.p) * _P0,
            np.sqrt(param.p) * _P1,
        ]
    if kind is ChannelKind.DEPOLARIZING:
        pp = param.p_prime
        return [
            np.sqrt(1.0 - pp) * _ID,
            np.sqrt(pp / 3.0) * _SX,
            np.sqrt(pp / 3.0) * _SY,
            np.sqrt(pp / 3.0) * _SZ,
        ]
    if kind is ChannelKind.PHASE_FLIP:
        return [np.sqrt(s) * _ID, np.sqrt(param.p) * _SZ]
    raise BadParameterError(f"unknown channel kind {kind!r}")


# Matrices per pass of :func:`apply_kraus_dense`; bounds its working set to
# one chunk's gather and one parameter's terms, two (n, m^3, width) complex
# buffers reused by every pass, where width counts the live output entries
# (16 on X states: 256 KiB each for depolarizing), beside the output and the
# per-parameter value tables.  Re-scanned on the live-width passes (warm,
# 2 vCPUs, numpy 2.4): the three passes of validate --grid 9's channel suite
# take 13.5, 11.6, 10.7, 10.3 and 11.3 ms at 4, 8, 16, 32 and 64, so 16 is
# the smaller working set of the two fastest.
KRAUS_CHUNK = 16


@lru_cache(maxsize=256)
def _triple_kraus(kind: ChannelKind, p: float):
    """Triple operators K_a x K_b x K_c as the per-row tables of :func:`apply_kraus_dense`.

    Every triple operator has at most one nonzero entry per row: operator k
    reads, for row r, column ``c_k[r]`` with value ``v_k[r]``.  A zero row
    reads its own column with value 0, so a non-finite input entry reaches
    its own output entry (0 * nan is nan).  Returns ``c`` and ``v``, each of
    shape (m^3, 8).  :func:`apply_kraus_dense` takes its (m^3, width) gather
    and value tables from them on every call, at the output entries that
    call's input can reach: they take microseconds.
    """
    # K_a x K_b x K_c entry by entry as (a * b) * c, the products np.kron
    # makes, for every (a, b, c) in operator order at once.
    ops = np.stack(kraus_operators(kind, ChannelParam(p)))
    m = len(ops)
    pairs = (ops[:, None, :, None, :, None] * ops[None, :, None, :, None, :]).reshape(m * m, 4, 4)
    kr = (pairs[:, None, :, None, :, None] * ops[None, :, None, :, None, :]).reshape(m**3, 8, 8)
    nonzero = kr != 0
    cols = np.where(nonzero.any(axis=-1), np.argmax(nonzero, axis=-1), np.arange(8))
    values = np.take_along_axis(kr, cols[..., None], axis=-1)[..., 0]
    for table in (cols, values):
        table.setflags(write=False)
    return cols, values


def apply_kraus_dense(
    matrix: np.ndarray, kind: ChannelKind, param: ChannelParam | Sequence[ChannelParam]
) -> np.ndarray:
    """Kraus action ``sum K M K^dag`` on dense 8x8 matrices ``(..., 8, 8)`` (no validation).

    Leading axes are stack axes, walked ``KRAUS_CHUNK`` matrices at a time.
    Given a sequence of parameters instead of one, the result gains a
    leading axis with one entry per parameter; one parameter is the
    one-element view of the same loop.

    Every triple operator has at most one nonzero entry per row, real or
    imaginary, in column ``c[r]`` with value ``v[r]``, so ``(K M K^dag)[r, s]
    = (v[r] M[c[r], c[s]]) conj(v[s])``.  Each matrix is viewed as its 64
    entries and gathered with one ``take`` at the flat index ``8 c[r] + c[s]``.
    The index depends on the parameter only through the column table ``c``,
    so each chunk is gathered once per distinct table (one for pdc and pfc,
    two for dpc, whose p = 0 rows read their own column); each parameter
    then multiplies the gather by ``v[r]`` and then by ``conj(v[s])``, and
    the Kraus sum runs in operator order.  Each entry comes out bit for bit
    as the dense product ``(K @ M) @ K^dag`` gives it for finite input, and
    each element as it would alone, for one parameter or in a sequence.

    Only the live output entries are computed: those where some operator of
    the table reads an input entry that is nonzero in some matrix of the
    stack (NaN included), 16 of 64 on X states, and always (0, 0) and
    (7, 7).  Every other entry is a sum of terms ``(v[r] 0) conj(v[s])``
    with finite ``v``, each a signed zero, and numpy's sum starts from its
    identity +0.0, so the entry is exactly +0.0, which is what the output
    holds there.  A general matrix leaves all 64 entries live.
    """
    single = isinstance(param, ChannelParam)
    params = [param] if single else list(param)
    m = np.asarray(matrix, dtype=complex)
    flat = m.reshape((-1, 64))
    support = (flat != 0).any(axis=0)  # NaN != 0, so a NaN entry reaches its outputs
    # Parameters grouped by column table: {table bytes: (index, live, [(k, left, right)])}.
    groups = {}
    for k, p in enumerate(params):
        cols, values = _triple_kraus(kind, p.p)
        if (key := cols.tobytes()) not in groups:
            index = (8 * cols[:, :, None] + cols[:, None, :]).reshape(len(cols), 64)
            reach = support[index].any(axis=0)
            # Two entries at least: numpy sums a one-entry-wide stack of
            # terms pairwise, not in operator order.
            reach[[0, 63]] = True
            live = np.flatnonzero(reach)
            groups[key] = (index[:, live], live, [])
        _, live, members = groups[key]
        # v[r] and conj(v[s]) at each live 8 r + s.
        members.append((k, values[:, live // 8], values.conj()[:, live % 8]))
    # Where the output is allocated moves the heap layout, and with it the
    # peak RSS of validate --grid 9: 41.0 MiB before the tables, 40.4 MiB
    # after the buffers, 40.2 MiB here.
    out = np.zeros((len(params),) + flat.shape, dtype=complex)
    # One chunk's gather and one parameter's terms and sums, reused by every
    # pass.  The index never leaves [0, 64), so mode="clip" clips nothing;
    # unlike the default mode="raise", it lets ``take`` write into its out
    # unbuffered.
    rows = max((len(index) for index, _, _ in groups.values()), default=0)  # m^3
    width = max((len(live) for _, live, _ in groups.values()), default=0)
    gather_buffer = np.empty(KRAUS_CHUNK * rows * width, dtype=complex)
    terms_buffer = np.empty_like(gather_buffer)
    sums_buffer = np.empty(KRAUS_CHUNK * width, dtype=complex)
    # A non-finite input entry stays non-finite at its output entries, for
    # the X-pattern check downstream to report; 0 * inf is not warned about.
    with np.errstate(invalid="ignore"):
        for start in range(0, len(flat), KRAUS_CHUNK):
            chunk = flat[start : start + KRAUS_CHUNK]
            for index, live, members in groups.values():
                shape, size = (len(chunk),) + index.shape, len(chunk) * index.size
                gathered = gather_buffer[:size].reshape(shape)
                terms = terms_buffer[:size].reshape(shape)
                sums = sums_buffer[: len(chunk) * len(live)].reshape((len(chunk), len(live)))
                chunk.take(index, axis=1, out=gathered, mode="clip")
                for k, left, right in members:
                    np.multiply(gathered, left, out=terms)
                    terms *= right
                    terms.sum(axis=1, out=sums)
                    out[k, start : start + KRAUS_CHUNK][:, live] = sums
    out = out.reshape((len(params),) + m.shape)
    return out[0] if single else out


def bloch_damping_factors(kind: ChannelKind, param: ChannelParam) -> tuple[float, float]:
    """Per-qubit Bloch scalings ``(transverse, longitudinal)`` of the channel.

    A correlation-tensor slot with ``n_t`` transverse indices and ``n_z``
    z indices is damped by ``transverse**n_t * longitudinal**n_z``; this
    single rule reproduces every closed-form damping map below.
    """
    s = param.survival
    if kind is ChannelKind.PHASE_DAMPING:
        return s, 1.0
    if kind is ChannelKind.DEPOLARIZING:
        return s, s
    if kind is ChannelKind.PHASE_FLIP:
        return 2.0 * s - 1.0, 1.0
    raise BadParameterError(f"unknown channel kind {kind!r}")


# Sign tables of the two z sectors: w[j, 0] = (1/4) M_EVEN[j] @ t and
# w[j, 3] = (1/4) M_ODD[j] @ t, where row j is block j and t lists the
# correlation-tensor slots T[a, b, c] = Tr(rho @ s_a x s_b x s_c) (s_0 = I)
# that an X state can populate in that sector.  The literals are the trace
# definition worked out; tests/test_xstate.py derives them again from it.
# Z_*_COUNTS[k] is the number of z indices of slot k.
M_EVEN = np.array([[1, 1, 1, 1], [1, -1, -1, 1], [1, -1, 1, -1], [1, 1, -1, -1]], dtype=float)
Z_EVEN_COUNTS = (0, 2, 2, 2)  # slots T[0,0,0], T[0,3,3], T[3,0,3], T[3,3,0]
M_ODD = np.array([[1, 1, 1, 1], [-1, 1, 1, -1], [1, -1, 1, -1], [-1, -1, 1, 1]], dtype=float)
Z_ODD_COUNTS = (1, 1, 1, 3)  # slots T[0,0,3], T[0,3,0], T[3,0,0], T[3,3,3]
M_EVEN.setflags(write=False)
M_ODD.setflags(write=False)


def _sign_product(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``m @ v`` over the last axis of a stack of 4-vectors ``v``."""
    return np.einsum("rk,...k->...r", m, v)


def damped_bloch_array(
    kind: ChannelKind, w: np.ndarray, param: ChannelParam | Sequence[ChannelParam]
) -> np.ndarray:
    """Closed-form channel action on raw block Bloch coordinates ``(..., 4, 4)``.

    Leading axes of ``w`` are stack axes.  Given a sequence of parameters
    instead of one, the result gains a leading axis with one entry per
    parameter.

    The transverse columns scale uniformly by ``transverse**3``.  When the
    longitudinal factor differs from one (depolarizing), the two z sectors
    mix across blocks: in tensor slots the map is diagonal, so in block
    coordinates it is ``(1/4) M diag(fz**n_z) M.T``, with the literal sign
    tables ``M_EVEN``/``M_ODD`` and z-index counts ``n_z`` of this module.
    """
    single = isinstance(param, ChannelParam)
    params = [param] if single else list(param)
    w = np.asarray(w, dtype=float)
    out = np.empty((len(params),) + w.shape)
    out[...] = w
    # The damping factors stay Python floats per parameter, then become one
    # array axis that broadcasts over the stack and block axes of w.
    factors = [bloch_damping_factors(kind, p) for p in params]
    transverse = np.array([ft**3 for ft, _ in factors]).reshape((-1,) + (1,) * (w.ndim - 1))
    out[..., 1] *= transverse
    out[..., 2] *= transverse
    mixing = [k for k, (_, fz) in enumerate(factors) if fz != 1.0]
    if mixing:
        for m, counts, col in ((M_EVEN, Z_EVEN_COUNTS, 0), (M_ODD, Z_ODD_COUNTS, 3)):
            scale = np.array(
                [[factors[k][1] ** n_z for n_z in counts] for k in mixing]
            ).reshape((-1,) + (1,) * (w.ndim - 2) + (4,))
            out[mixing, ..., col] = 0.25 * _sign_product(
                m, scale * _sign_product(m.T, out[mixing, ..., col])
            )
    return out[0] if single else out


def _damped_compact(kind: ChannelKind, diag, anti, param):
    """Compact ``(diag, anti)`` of the channel image, through the closed-form Bloch route.

    ``diag`` (..., 8) and ``anti`` (..., 4) may be stacks; ``param`` is one
    :class:`ChannelParam` or a sequence (see :func:`damped_bloch_array`).
    No validation.
    """
    return compact_from_bloch(damped_bloch_array(kind, bloch_from_compact(diag, anti), param))
