"""Self-contained linear algebra for small Hermitian matrices.

The eigensolver is a cyclic Jacobi iteration on complex Hermitian matrices
(2x2 and 8x8 in this package).  Everything downstream that needs a spectrum
or a matrix square root goes through these routines, so they deliberately do
not call into ``numpy.linalg``: the brute-force oracles built on top of them
stay independent of the closed-form code paths they are used to check.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import NotConvergedError, NotHermitianError, NotPSDError

HERMITICITY_TOL = 1e-12
OFFDIAG_TOL = 1e-14
PSD_CLAMP = 1e-12
MAX_SWEEPS = 100


class EigenDecomposition(NamedTuple):
    """Eigenvalues in ascending order and matching orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _offdiag_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.sqrt(np.sum(np.abs(off) ** 2)))


def check_finite(matrix: np.ndarray, name: str = "matrix") -> None:
    """Raise :class:`NotHermitianError` naming the NaN/+-inf entries of ``matrix``."""
    bad = np.argwhere(~np.isfinite(matrix))
    if len(bad):
        shown = ", ".join(f"{name}[{i}, {j}] = {matrix[i, j]}" for i, j in bad[:4])
        more = f" and {len(bad) - 4} more" if len(bad) > 4 else ""
        raise NotHermitianError(f"non-finite entries: {shown}{more}")


def eigh(matrix: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    Parameters
    ----------
    matrix : ndarray
        Square Hermitian matrix; Hermiticity is enforced to ``1e-12``.

    Returns
    -------
    EigenDecomposition
        ``eigenvalues`` ascending, ``eigenvectors`` with orthonormal columns
        such that ``matrix @ v[:, k] == w[k] * v[:, k]``.

    Raises
    ------
    NotHermitianError
        If ``max |A - A^dagger|`` exceeds the tolerance, or an entry is NaN
        or infinite (the message names the non-finite entries).
    NotConvergedError
        If ``MAX_SWEEPS`` sweeps leave the off-diagonal norm above ``1e-14``.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotHermitianError(f"expected a square matrix, got shape {a.shape}")
    # A non-finite entry leaves a NaN or an infinity in A - A^dagger, so the
    # finiteness check rides on the failure branch of this one comparison.
    if not np.max(np.abs(a - a.conj().T)) <= HERMITICITY_TOL:
        check_finite(a)
        raise NotHermitianError("matrix is not Hermitian within 1e-12")

    n = a.shape[0]
    a = (a + a.conj().T) / 2.0
    vec = np.eye(n, dtype=complex)

    for _ in range(MAX_SWEEPS):
        if _offdiag_norm(a) <= OFFDIAG_TOL:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) == 0.0:
                    continue
                # Phase rotation makes the target entry real, then a plane
                # rotation annihilates it.
                phase = apq / abs(apq)
                app = a[p, p].real
                aqq = a[q, q].real
                theta = 0.5 * np.arctan2(2.0 * abs(apq), app - aqq)
                c = np.cos(theta)
                s = np.sin(theta)

                a[:, q] *= np.conj(phase)
                a[q, :] *= phase
                vec[:, q] *= np.conj(phase)

                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p + s * col_q
                a[:, q] = -s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p + s * row_q
                a[q, :] = -s * row_p + c * row_q

                vcol_p = vec[:, p].copy()
                vcol_q = vec[:, q].copy()
                vec[:, p] = c * vcol_p + s * vcol_q
                vec[:, q] = -s * vcol_p + c * vcol_q

                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real
    else:
        raise NotConvergedError(
            f"Jacobi iteration on a {n}x{n} matrix did not converge in {MAX_SWEEPS} sweeps"
        )

    values = np.real(np.diag(a))
    order = np.argsort(values, kind="stable")
    return EigenDecomposition(values[order], vec[:, order])


def psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Principal square root of a positive semidefinite Hermitian matrix.

    Eigenvalues in ``[-1e-12, 0]`` are clamped to zero; anything lower raises
    ``NotPSDError``.
    """
    values, vectors = eigh(matrix)
    if values[0] < -PSD_CLAMP:
        raise NotPSDError(f"eigenvalue {values[0]:.3e} below -1e-12")
    clamped = np.clip(values, 0.0, None)
    root = (vectors * np.sqrt(clamped)) @ vectors.conj().T
    return (root + root.conj().T) / 2.0


def central_diff(func: Callable[[float], np.ndarray], x: float, step: float | None = None):
    """Symmetric difference quotient ``(f(x+h) - f(x-h)) / 2h``.

    The default step is ``1e-6 * max(1, |x|)``; the error is O(h^2) for
    smooth ``func``.
    """
    h = step if step is not None else 1e-6 * max(1.0, abs(x))
    return (func(x + h) - func(x - h)) / (2.0 * h)
