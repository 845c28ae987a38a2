"""Brute-force full-matrix oracles for Fisher and skew information.

Both oracles work on dense 8x8 matrices through the self-contained Jacobi
eigensolver and never touch the block closed forms they are used to check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParameterError, NotPSDError, TraceViolationError
from .linalg import check_finite, eigh, eigh_stack, sqrt_from_spectrum
from .metrics import ParamFamily

PSD_TOL = 1e-12
TRACE_TOL = 1e-10


@dataclass(frozen=True)
class OracleConfig:
    """Numerical knobs: finite-difference step scale and spectral rank cutoff.

    ``fd_step`` must be finite and positive, ``rank_cutoff`` finite and
    non-negative; anything else raises :class:`BadParameterError`.
    """

    fd_step: float = 1e-6
    rank_cutoff: float = 1e-12

    def __post_init__(self):
        if not (np.isfinite(self.fd_step) and self.fd_step > 0.0):
            raise BadParameterError(f"fd_step must be finite and positive, got {self.fd_step!r}")
        if not (np.isfinite(self.rank_cutoff) and self.rank_cutoff >= 0.0):
            raise BadParameterError(
                f"rank_cutoff must be finite and non-negative, got {self.rank_cutoff!r}"
            )

    def probe_step(self, phi: float) -> float:
        """Step ``h = fd_step * max(1, |phi|)`` of the skew probes rho(phi -+ h)."""
        return self.fd_step * max(1.0, abs(phi))


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
    return qfi_from_spectrum(values, vectors, drho, config)


def qfi_from_spectrum(
    values: np.ndarray, vectors: np.ndarray, drho: np.ndarray, config: OracleConfig
) -> float:
    """The eigen oracle's Fisher sum from the state's spectrum ``(values, vectors)``.

    Raises :class:`NotPSDError` for an eigenvalue below -1e-12 and
    :class:`TraceViolationError` for a trace off 1 by more than 1e-10.
    """
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
    h = config.probe_step(phi)
    left = family.state(phi - h).to_dense()
    right = family.state(phi + h).to_dense()
    return skew_from_spectra(eigh(left), eigh(right), h)


def skew_from_spectra(left, right, h: float) -> float:
    """Skew information from the spectra of dense states at ``phi - h`` and ``phi + h``.

    ``left`` and ``right`` are ``(values, vectors)`` pairs.  The central
    difference ``(sqrt(right) - sqrt(left)) / 2h`` stands for d sqrt(rho);
    the result is 4 Tr((d sqrt(rho))^2).
    """
    droot = (sqrt_from_spectrum(*right) - sqrt_from_spectrum(*left)) / (2.0 * h)
    return float(np.real(np.trace(droot @ droot)) * 4.0)


def family_oracles(
    points, config: OracleConfig = OracleConfig()
) -> list[tuple[float, float]]:
    """Fisher and skew oracle values at many ``(family, phi)`` points at once.

    Element k is, bit for bit, ``(qfi_eigen_oracle(rho, drho, config),
    skew_sqrt_oracle(family, phi, config))`` at the k-th point, with ``rho``
    and ``drho`` the family's dense state and tangent at ``phi``.  The
    states rho(phi) and the skew probes rho(phi -+ h), with ``h`` from
    :meth:`OracleConfig.probe_step`, go through one :func:`eigh_stack` call;
    each point is then finished alone.  A probe that fails the eigensolver's
    Hermiticity test raises, naming (rho / left probe / right probe, point
    index).
    """
    states, tangents, steps = [[], [], []], [], []
    for family, phi in points:
        h = config.probe_step(phi)
        for stack, x in zip(states, (phi, phi - h, phi + h)):
            stack.append(family.state(x).to_dense())
        drho = family.tangent_at(phi).to_dense()
        check_finite(drho, "drho")
        tangents.append(drho)
        steps.append(h)
    if not tangents:
        return []
    values, vectors = eigh_stack(np.array(states))
    return [
        (
            qfi_from_spectrum(values[0, k], vectors[0, k], drho, config),
            skew_from_spectra(
                (values[1, k], vectors[1, k]), (values[2, k], vectors[2, k]), steps[k]
            ),
        )
        for k, drho in enumerate(tangents)
    ]
