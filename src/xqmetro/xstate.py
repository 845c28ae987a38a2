"""Three-qubit X states: compact storage and block Bloch form.

Conventions, fixed here once and tested:

* Basis order is |000>, |001>, ..., |111> (qubit 1 = leftmost bit).
* An X state is nonzero only on the main diagonal and the anti-diagonal.
  The four anti-diagonal coherences are stored as the upper entries
  ``anti[k] = rho[i, j]`` for the index pairs (0,7), (1,6), (2,5), (3,4).
* The state splits into four 2x2 blocks spanned by {|000>,|111>},
  {|001>,|110>}, {|010>,|101>}, {|011>,|100>}.
* Each block carries Bloch coordinates ``w = (w0, w1, w2, w3)`` defined by
  ``block = (w0*I + w1*sx + w2*sy + w3*sz) / 2`` in the block basis, i.e.
  ``w_a = Tr(block @ sigma_a)``.  Consequently ``w1 - i*w2`` equals twice the
  stored coherence and ``w0`` is the block's trace weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BlockNotPSDError, NotXFormError, TraceViolationError

DIAG_TOL = 1e-12
PATTERN_TOL = 1e-10

BLOCK_PAIRS = ((0, 7), (1, 6), (2, 5), (3, 4))
_UPPER, _LOWER = zip(*BLOCK_PAIRS)
_DIAGONAL = tuple(range(8))
# Entries an X state leaves empty: all but the main diagonal and the anti-diagonal.
_OFF_PATTERN = ~(np.eye(8, dtype=bool) | np.eye(8, dtype=bool)[::-1])


@dataclass(frozen=True)
class XState:
    """Validated three-qubit X state in compact form.

    Attributes
    ----------
    diag : ndarray, shape (8,)
        Real populations in basis order; a complex one with a nonzero (or
        NaN) imaginary part raises :class:`NotXFormError`.  Compact input is
        given entry by entry, so no imaginary part is allowed here, while
        :func:`xstate_from_dense` drops one up to 1e-10 from a diagonal that
        arithmetic produced.
    anti : ndarray, shape (4,)
        Complex upper anti-diagonal entries, one per block pair.
    """

    diag: np.ndarray
    anti: np.ndarray

    def __post_init__(self):
        diag = np.asarray(self.diag)
        anti = np.array(self.anti, dtype=complex)
        if diag.shape != (8,) or anti.shape != (4,):
            raise NotXFormError(
                f"expected 8 populations and 4 coherences, got shapes {diag.shape} and {anti.shape}"
            )
        diag = np.array(_real_diag(diag), dtype=float)
        check_compact(diag, anti)
        diag.setflags(write=False)
        anti.setflags(write=False)
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "anti", anti)

    def to_dense(self) -> np.ndarray:
        """Dense 8x8 complex density matrix."""
        return dense_from_compact(self.diag, self.anti)


def _xstate(state, phi=None) -> XState:
    """``state`` if it is an :class:`XState`; any other object raises
    :class:`NotXFormError` naming its type, after ``at phi=...: `` if given."""
    if isinstance(state, XState):
        return state
    where = "" if phi is None else f"at phi={phi!r}: "
    raise NotXFormError(f"{where}expected an XState, got {type(state).__name__}")


class XTangent(NamedTuple):
    """Derivative of an X-state family: same layout as XState.

    Checked by :func:`_check_tangent`.  Its trace need not be 0: central
    differences of states that each hold trace 1 to 1e-12 give traces up to
    about 1e-6 at h = 1e-6.
    """

    diag: np.ndarray
    anti: np.ndarray

    def to_dense(self) -> np.ndarray:
        return dense_from_compact(self.diag, self.anti)


def dense_from_compact(diag: np.ndarray, anti: np.ndarray) -> np.ndarray:
    """Assemble dense 8x8 matrices ``(..., 8, 8)`` from compact X components.

    Leading axes of ``diag`` (..., 8) and ``anti`` (..., 4) are stack axes.
    """
    diag = np.asarray(diag)
    anti = np.asarray(anti)
    out = np.zeros(diag.shape[:-1] + (8, 8), dtype=complex)
    out[..., _DIAGONAL, _DIAGONAL] = diag
    out[..., _UPPER, _LOWER] = anti
    out[..., _LOWER, _UPPER] = np.conj(anti)
    return out


def _fail(error, flags: np.ndarray, message, entries: int = 0) -> None:
    """Raise ``error`` for the first element (C order) whose flags are set.

    The trailing ``entries`` axes of ``flags`` are entry axes: ``message``
    gets the element's index, then one index per entry axis of that
    element's first flagged entry.  For a stack, the element's index is
    named in front of the text.
    """
    first = tuple(int(k) for k in np.unravel_index(int(np.argmax(flags)), flags.shape))
    index, entry = first[: len(first) - entries], first[len(first) - entries :]
    where = f"element {index[0] if len(index) == 1 else index}: " if index else ""
    raise error(where + message(index, *entry))


def _first_failure(*rows) -> None:
    """Raise for the first row ``(error, flags, message[, entries])`` that flags anything."""
    for error, flags, message, *entries in rows:
        if flags.any():
            _fail(error, flags, message, *entries)


def _not_finite(name: str, values, entries: int = 1, error=NotXFormError):
    """Row raising ``error``, naming the first NaN/+-inf entry of ``values`` as ``name[...]``."""
    values = np.asarray(values)
    return (
        error,
        ~np.isfinite(values),
        lambda i, *k: f"{name}[{', '.join(map(str, k))}] is {values[i + k]}, not finite",
        entries,
    )


def _not_real(name: str, values):
    """Row naming the first entry of ``values`` with a nonzero or NaN imaginary part."""
    return (NotXFormError, values.imag != 0.0,
            lambda i, k: f"{name}[{k}] is {values[i + (k,)]}, not real", 1)


def _real_diag(diag) -> np.ndarray:
    """``diag`` (..., 8) as real populations; a nonzero or NaN imaginary part raises."""
    diag = np.asarray(diag)
    if diag.dtype.kind == "c":
        _first_failure(_not_real("diag", np.atleast_1d(diag)))
        diag = diag.real
    return diag


def _check_tangent(diag, anti, phi=None) -> np.ndarray:
    """The one tangent check, one or stacked: ``diag`` (..., 8), ``anti`` (..., 4).

    Returns the tangent's Bloch form ``(..., 4, 4)``, or raises :class:`NotXFormError`
    for the first of: a NaN/+-inf entry of ``diag``, then of ``anti`` (``tangent
    diag[k]``, ``tangent anti[k]``), a ``diag`` entry that is not real, then a
    NaN/+-inf Bloch entry (``tangent w[j, a]``), each after ``at phi=...: `` if given.
    """
    diag = np.asarray(diag)
    with np.errstate(all="ignore"):  # a non-finite or overflowing entry is named below
        w = bloch_from_compact(diag.real, anti)
    if diag.dtype.kind != "c" and np.isfinite(w).all():
        return w
    where = "" if phi is None else f"at phi={phi!r}: "
    _first_failure(
        _not_finite(f"{where}tangent diag", diag),
        _not_finite(f"{where}tangent anti", anti),
        _not_real(f"{where}tangent diag", diag),
        _not_finite(f"{where}tangent w", w, 2),
    )
    return w


def check_compact(diag: np.ndarray, anti: np.ndarray) -> None:
    """Validate compact X states, one or stacked: shapes ``(..., 8)``, ``(..., 4)``.

    These are the checks of :class:`XState`, in its order: finite entries,
    unit trace, no population below -1e-12, and block positivity
    ``rho_ii rho_jj - |rho_ij|^2 >= -1e-12``.  The first check that fails
    raises for the first element (C order) it fails on, with the error
    :class:`XState` would raise and, for a stack, the element's index named
    in the message.
    """
    if diag.shape[-1:] != (8,) or anti.shape != diag.shape[:-1] + (4,):
        raise NotXFormError(
            f"expected stacks of 8 populations and 4 coherences,"
            f" got shapes {diag.shape} and {anti.shape}"
        )
    with np.errstate(all="ignore"):  # non-finite input is reported below, not warned about
        trace = np.add.reduce(diag, axis=-1)
        lowest = np.minimum.reduce(diag, axis=-1)
        # BLOCK_PAIRS pairs population k with population 7 - k.
        margin = diag[..., :4] * diag[..., :3:-1] - np.float_power(
            np.hypot(anti.real, anti.imag), 2.0
        )
    # Every comparison fails on NaN, and a non-finite entry leaves a NaN or
    # an infinity in one of the three.
    passed = (abs(trace - 1.0) <= DIAG_TOL) & (lowest >= -DIAG_TOL) & (
        np.minimum.reduce(margin, axis=-1) >= -DIAG_TOL
    )
    if passed if passed.ndim == 0 else passed.all():
        return
    _first_failure(
        _not_finite("diag", diag),
        _not_finite("anti", anti),
        (TraceViolationError, abs(trace - 1.0) > DIAG_TOL,
         lambda i: f"trace {float(trace[i])!r} differs from 1 beyond 1e-12"),
        (BlockNotPSDError, lowest < -DIAG_TOL, lambda i: f"negative population {lowest[i]:.3e}"),
        (BlockNotPSDError, margin < -DIAG_TOL,
         lambda _, k: f"block {k}: |coherence|^2 exceeds population product", 1),
    )


def bloch_from_compact(diag: np.ndarray, anti: np.ndarray) -> np.ndarray:
    """Block Bloch coordinates ``(..., 4, 4)`` from compact X components.

    Leading axes of ``diag`` (..., 8) and ``anti`` (..., 4) are stack axes.
    Each column is one ufunc written in place; ``diag`` must be real (a
    complex one raises numpy's casting error).
    """
    diag = np.asarray(diag)
    anti = np.asarray(anti)
    upper = diag[..., :4]  # populations i of the BLOCK_PAIRS (i, j)
    lower = diag[..., :3:-1]  # populations j = 7 - i
    w = np.empty(diag.shape[:-1] + (4, 4))
    np.add(upper, lower, out=w[..., 0])
    np.multiply(anti.real, 2.0, out=w[..., 1])
    np.multiply(anti.imag, -2.0, out=w[..., 2])
    np.subtract(upper, lower, out=w[..., 3])
    return w


def compact_from_bloch(w: np.ndarray):
    """Inverse of :func:`bloch_from_compact`; returns ``(diag, anti)`` arrays.

    Bloch coordinates hold a state iff their compact form passes
    :func:`check_compact`: the package has no second validator for them.
    """
    w = np.asarray(w)
    diag = np.empty(w.shape[:-2] + (8,))
    diag[..., :4] = (w[..., 0] + w[..., 3]) / 2.0
    diag[..., :3:-1] = (w[..., 0] - w[..., 3]) / 2.0
    anti = np.empty(w.shape[:-2] + (4,), dtype=complex)
    anti.real = w[..., 1] / 2.0  # apart, so an infinite entry stays infinite
    anti.imag = -w[..., 2] / 2.0
    return diag, anti


def compact_from_dense(matrix: np.ndarray):
    """Validate dense matrices ``(..., 8, 8)`` as X states; return ``(diag, anti)``.

    The checks, in order: no entry off the X pattern beyond 1e-10 in
    magnitude, no imaginary part on the diagonal beyond 1e-10, and each
    coherence pair conjugate to 1e-10 (else :class:`NotXFormError` naming the
    first failing entry; NaN fails the first two), then :func:`check_compact`
    on the compact components.  The first check that fails raises for the
    first element (C order) it fails on and, for a stack, names its index.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.shape[-2:] != (8, 8):
        raise NotXFormError(f"expected 8x8 matrices, got shape {m.shape}")
    upper = m[..., _UPPER, _LOWER]
    lower = m[..., _LOWER, _UPPER]
    diagonal = m[..., _DIAGONAL, _DIAGONAL]
    with np.errstate(all="ignore"):  # non-finite pattern entries are caught by check_compact
        off = np.abs(m)
        unpaired = np.abs(upper - np.conj(lower)) > PATTERN_TOL
    imaginary = np.abs(diagonal.imag)
    # Both tests fail on NaN: the compact components drop these entries.
    _first_failure(
        (NotXFormError, _OFF_PATTERN & ~(off <= PATTERN_TOL),
         lambda i, r, c: f"off-pattern entry [{r}, {c}] of magnitude {off[i][r, c]:.3e}", 2),
        (NotXFormError, ~(imaginary <= PATTERN_TOL),
         lambda i, k: f"diagonal entry [{k}, {k}] has imaginary part {imaginary[i][k]:.3e}"
         " beyond 1e-10", 1),
        (NotXFormError, unpaired, lambda _, k: f"block {k}: coherence pair is not conjugate", 1),
    )
    diag, anti = diagonal.real, (upper + np.conj(lower)) / 2.0
    check_compact(diag, anti)
    return diag, anti


def xstate_from_dense(matrix: np.ndarray) -> XState:
    """Validate a dense matrix as an X state and return its compact form.

    Dense input comes from arithmetic (a Kraus image, a matrix product), so
    an imaginary part on its diagonal is held to the 1e-10 of the other
    pattern checks and dropped, where :class:`XState`, given its populations
    entry by entry, rejects any.

    Raises
    ------
    NotXFormError
        If any entry outside the X pattern exceeds 1e-10 in magnitude, a
        diagonal entry has an imaginary part beyond 1e-10, or the pattern
        entries are not Hermitian-consistent at that tolerance.
    TraceViolationError, BlockNotPSDError
        If the compact form violates the state invariants.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (8, 8):
        raise NotXFormError(f"expected an 8x8 matrix, got shape {m.shape}")
    return XState(*compact_from_dense(m))


def random_xstate(rng: np.random.Generator) -> XState:
    """Random X state: flat-simplex populations, coherences within the PSD disc.

    Populations are a flat Dirichlet draw; each coherence is ``r e^{i theta}``
    with ``r`` uniform on [0, sqrt(rho_ii rho_jj)] and ``theta`` uniform on
    [0, 2 pi).  The draws come in the order diag, r_0, theta_0, r_1, ...,
    theta_3, each ``r`` and ``theta`` one unit double scaled by its bound,
    which is bit for bit what ``rng.uniform(0, bound)`` returns.
    """
    diag = rng.dirichlet(np.ones(8))
    # uniform(0, b) is 0.0 + b * u with u one unit double: exactly b * u.
    r, theta = rng.random((4, 2)).T
    anti = np.sqrt(diag[:4] * diag[:3:-1]) * r * np.exp(1j * (2.0 * np.pi * theta))
    return XState(diag, anti)
