"""Brute-force full-matrix oracles for Fisher and skew information.

Both oracles work on dense 8x8 matrices through the self-contained Jacobi
eigensolver and never touch the block closed forms they are used to check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPSDError, TraceViolationError
from .linalg import check_finite, eigh, psd_sqrt
from .metrics import ParamFamily

PSD_TOL = 1e-12
TRACE_TOL = 1e-10


@dataclass(frozen=True)
class OracleConfig:
    """Numerical knobs: finite-difference step scale and spectral rank cutoff."""

    fd_step: float = 1e-6
    rank_cutoff: float = 1e-12


def qfi_eigen_oracle(
    rho: np.ndarray, drho: np.ndarray, config: OracleConfig = OracleConfig()
) -> float:
    """Fisher information from the full eigendecomposition.

    F = sum over eigenpairs with lam_i + lam_j > rank_cutoff of
    2 |<i| d rho |j>|^2 / (lam_i + lam_j).  A non-finite entry in ``rho`` or
    ``drho`` raises :class:`NotHermitianError` naming it.
    """
    rho = np.asarray(rho, dtype=complex)
    drho = np.asarray(drho, dtype=complex)
    check_finite(drho, "drho")
    values, vectors = eigh(rho)
    if values[0] < -PSD_TOL:
        raise NotPSDError(f"state eigenvalue {values[0]:.3e} below -1e-12")
    if abs(values.sum() - 1.0) > TRACE_TOL:
        raise TraceViolationError(f"state trace {values.sum()!r} differs from 1")
    overlap = vectors.conj().T @ drho @ vectors
    n = values.size
    total = 0.0
    for i in range(n):
        for j in range(n):
            denom = values[i] + values[j]
            if denom > config.rank_cutoff:
                total += 2.0 * abs(overlap[i, j]) ** 2 / denom
    return total


def skew_sqrt_oracle(
    family: ParamFamily, phi: float, config: OracleConfig = OracleConfig()
) -> float:
    """Skew information 4 Tr((d sqrt(rho))^2) with d sqrt(rho) by central differences."""
    h = config.fd_step * max(1.0, abs(phi))
    return skew_from_probes(
        family.state(phi - h).to_dense(), family.state(phi + h).to_dense(), h
    )


def skew_from_probes(left: np.ndarray, right: np.ndarray, h: float) -> float:
    """Skew information from dense states at ``phi - h`` and ``phi + h``.

    The central difference ``(sqrt(right) - sqrt(left)) / 2h`` stands for
    d sqrt(rho); the result is 4 Tr((d sqrt(rho))^2).
    """
    droot = (psd_sqrt(right) - psd_sqrt(left)) / (2.0 * h)
    return float(np.real(np.trace(droot @ droot)) * 4.0)
