"""Brute-force full-matrix oracles for Fisher and skew information.

Both oracles work on dense 8x8 matrices through the self-contained Jacobi
eigensolver and never touch the block closed forms they are used to check.
"""

from __future__ import annotations

import numpy as np

from .errors import NotHermitianError, TraceViolationError
from .linalg import _not_psd, diff_step, eigh, eigh_stack, sqrt_from_spectrum
from .metrics import ParamFamily
from .xstate import _first_failure, _not_finite, _xstate

TRACE_TOL = 1e-10
# Eigenpairs with lam_i + lam_j at or below this are null pairs.  It equals
# metrics.RANK_CUTOFF but is not imported from there: the oracles stay
# independent of the code they check.
RANK_CUTOFF = 1e-12


def qfi_eigen_oracle(rho: np.ndarray, drho: np.ndarray) -> float:
    """Fisher information from the full eigendecomposition.

    F = sum over eigenpairs with lam_i + lam_j > RANK_CUTOFF of
    2 |<i| d rho |j>|^2 / (lam_i + lam_j).  A non-finite entry in ``rho`` or
    ``drho``, or shapes that differ, raise :class:`NotHermitianError` naming them.
    """
    rho = np.asarray(rho, dtype=complex)
    drho = np.asarray(drho, dtype=complex)
    if drho.shape != rho.shape:
        raise NotHermitianError(f"drho shape {drho.shape} differs from rho shape {rho.shape}")
    _first_failure(_not_finite("drho", drho, 2, NotHermitianError))
    values, vectors = eigh(rho)
    return float(qfi_from_spectrum(values, vectors, drho))


def qfi_from_spectrum(values: np.ndarray, vectors: np.ndarray, drho: np.ndarray) -> np.ndarray:
    """The eigen oracle's Fisher sums from spectra ``(values, vectors)``.

    Leading axes of ``values`` ``(..., n)`` and ``vectors`` ``(..., n, n)``
    are stack axes; ``drho`` ``(..., n, n)`` broadcasts against them.  The
    (i, j) terms are added in one order for the whole stack, so every
    element is, in raw bits, what it gives alone.  Raises
    :class:`NotPSDError` for a lowest eigenvalue below -1e-12 or NaN and
    :class:`TraceViolationError` for a trace off 1 by more than 1e-10 or
    NaN, naming the first such element (C order) of a stack.
    """
    trace = values.sum(axis=-1)
    _first_failure(
        _not_psd("state eigenvalue", values),
        (TraceViolationError, ~(abs(trace - 1.0) <= TRACE_TOL),
         lambda i: f"state trace {float(trace[i])!r} differs from 1"),
    )
    overlap = vectors.conj().swapaxes(-1, -2) @ drho @ vectors
    # |<i|drho|j>| with a scalar complex abs's rounding (see linalg._rotate).
    weight = 2.0 * np.float_power(np.hypot(overlap.real, overlap.imag), 2.0)
    denom = values[..., :, None] + values[..., None, :]
    terms = np.divide(weight, denom, out=np.zeros_like(denom), where=denom > RANK_CUTOFF)
    total = 0.0  # a masked pair adds 0.0, which leaves the sum's bits as they are
    for i, j in np.ndindex(terms.shape[-2:]):
        total = total + terms[..., i, j]
    return total


def skew_sqrt_oracle(family: ParamFamily, phi: float) -> float:
    """Skew information 4 Tr((d sqrt(rho))^2) with d sqrt(rho) by central
    differences; a probe that is not an :class:`XState` raises naming its ``phi``."""
    h = diff_step(phi)
    left = _xstate(family.state(phi - h), phi - h).to_dense()
    right = _xstate(family.state(phi + h), phi + h).to_dense()
    return float(skew_from_spectra(eigh(left), eigh(right), h))


def skew_from_spectra(left, right, h) -> np.ndarray:
    """Skew information from the spectra of dense states at ``phi - h`` and ``phi + h``.

    ``left`` and ``right`` are ``(values, vectors)`` pairs whose leading
    stack axes ``h`` matches.  The central difference
    ``(sqrt(right) - sqrt(left)) / 2h`` stands for d sqrt(rho); the result
    is 4 Tr((d sqrt(rho))^2), each element in raw bits what it gives alone.
    """
    step = 2.0 * np.asarray(h)[..., None, None]
    droot = (sqrt_from_spectrum(*right) - sqrt_from_spectrum(*left)) / step
    return np.real(np.trace(droot @ droot, axis1=-2, axis2=-1)) * 4.0


def oracle_column(states: np.ndarray, drho: np.ndarray, steps):
    """Fisher and skew oracles ``(fisher, skew)`` of many points from one :func:`eigh_stack`.

    ``states`` ``(3, ..., 8, 8)`` stacks rho and the skew probes
    rho(phi - h) and rho(phi + h); ``drho`` broadcasts against rho, and
    ``steps``, each point's ``h``, against rho's stack axes.  Each element
    is, in raw bits, what :func:`qfi_from_spectrum` and
    :func:`skew_from_spectra` give it alone.  Every failure raises naming
    (rho / left probe / right probe, then the point's stack indices): the
    eigensolver's, a spectrum below -1e-12 or a trace of rho off 1.
    """
    values, vectors = eigh_stack(states)
    _first_failure(_not_psd("state eigenvalue", values))  # here, so the probe is named too
    fisher = qfi_from_spectrum(values[:1], vectors[:1], drho)[0]
    return fisher, skew_from_spectra((values[1], vectors[1]), (values[2], vectors[2]), steps)
