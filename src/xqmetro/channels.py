"""Single-qubit decoherence channels applied independently to all three qubits.

Each channel is available on two deliberately separate routes:

* :func:`apply_kraus_dense` — dense 8x8 conjugation by triple Kronecker
  products of the single-qubit Kraus operators, with :func:`apply_kraus` its
  validated single-state view;
* :func:`damped_bloch_array` — exact closed-form linear map on block Bloch
  coordinates, built from the channel's per-qubit Bloch scaling factors, with
  :func:`apply_channel_compact` its single-state view.

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
from .xstate import (
    M_EVEN,
    M_ODD,
    Z_EVEN_PATTERNS,
    Z_ODD_PATTERNS,
    XState,
    bloch_from_compact,
    compact_from_bloch,
    xstate_from_dense,
)


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
            raise BadProbabilityError(f"p must lie in [0, 1], got {self.p!r}")

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


# Matrices per pass of :func:`apply_kraus_dense`; bounds its working set,
# one (n, m^3, 8, 8) complex temporary (64 KiB per matrix for depolarizing).
KRAUS_CHUNK = 4


@lru_cache(maxsize=256)
def _triple_kraus(kind: ChannelKind, p: float):
    """Triple operators K_a x K_b x K_c as the gather tables of :func:`apply_kraus_dense`.

    Every triple operator has at most one nonzero entry per row: operator k
    reads, for row r, column ``c_k[r]`` with value ``v_k[r]``.  A zero row
    reads its own column with value 0, so a non-finite input entry reaches
    its own output entry (0 * nan is nan).  Returns the column indices
    ``c[:, :, None]`` and ``c[:, None, :]`` and the values ``v[:, :, None]``
    and ``conj(v)[:, None, :]``, each broadcasting to shape (m^3, 8, 8).
    """
    ops = kraus_operators(kind, ChannelParam(p))
    kr = np.stack([np.kron(np.kron(a, b), c) for a in ops for b in ops for c in ops])
    nonzero = kr != 0
    cols = np.where(nonzero.any(axis=-1), np.argmax(nonzero, axis=-1), np.arange(8))
    values = np.take_along_axis(kr, cols[..., None], axis=-1)[..., 0]
    tables = (cols[:, :, None], cols[:, None, :], values[:, :, None], values.conj()[:, None, :])
    for table in tables:
        table.setflags(write=False)
    return tables


def apply_kraus_dense(matrix: np.ndarray, kind: ChannelKind, param: ChannelParam) -> np.ndarray:
    """Kraus action ``sum K M K^dag`` on dense 8x8 matrices ``(..., 8, 8)`` (no validation).

    Leading axes are stack axes, walked ``KRAUS_CHUNK`` matrices at a time.
    Every triple operator has at most one nonzero entry per row, real or
    imaginary, in column ``c[r]`` with value ``v[r]``, so ``(K M K^dag)[r, s]
    = (v[r] M[c[r], c[s]]) conj(v[s])``: one gather of M, then two products,
    then the Kraus sum in operator order.  Each entry comes out bit for bit
    as the dense product ``(K @ M) @ K^dag`` gives it for finite input, and
    each element as it would alone.
    """
    rows, cols, left, right = _triple_kraus(kind, param.p)
    m = np.asarray(matrix, dtype=complex)
    flat = m.reshape((-1, 8, 8))
    out = np.empty(flat.shape, dtype=complex)
    # A non-finite input entry stays non-finite at its output entries, for
    # the X-pattern check downstream to report; 0 * inf is not warned about.
    with np.errstate(invalid="ignore"):
        for start in range(0, len(flat), KRAUS_CHUNK):
            terms = flat[start : start + KRAUS_CHUNK][:, rows, cols]
            terms *= left
            terms *= right
            terms.sum(axis=1, out=out[start : start + KRAUS_CHUNK])
    return out.reshape(m.shape)


def apply_kraus(state: XState, kind: ChannelKind, param: ChannelParam) -> XState:
    """Apply the channel to all three qubits via the dense Kraus route.

    The result is validated (X pattern, trace, block positivity), never
    assumed.
    """
    return xstate_from_dense(apply_kraus_dense(state.to_dense(), kind, param))


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


def _z_count(pattern) -> int:
    return sum(1 for idx in pattern if idx == 3)


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
    coordinates it is ``(1/4) M diag(fz**n_z) M.T``.
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
        for m, patterns, col in ((M_EVEN, Z_EVEN_PATTERNS, 0), (M_ODD, Z_ODD_PATTERNS, 3)):
            scale = np.array(
                [[factors[k][1] ** _z_count(pattern) for pattern in patterns] for k in mixing]
            ).reshape((-1,) + (1,) * (w.ndim - 2) + (4,))
            out[mixing, ..., col] = 0.25 * _sign_product(
                m, scale * _sign_product(m.T, out[mixing, ..., col])
            )
    return out[0] if single else out


def apply_channel_compact(state: XState, kind: ChannelKind, param: ChannelParam) -> XState:
    """Channel action through the compact closed-form route, returning a state."""
    w = damped_bloch_array(kind, bloch_from_compact(state.diag, state.anti), param)
    diag, anti = compact_from_bloch(w)
    return XState(diag, anti)
