"""Self-contained linear algebra for small Hermitian matrices.

The eigensolver is a cyclic Jacobi iteration on complex Hermitian matrices
(2x2 and 8x8 in this package): :func:`eigh` on one matrix, and
:func:`eigh_stack`, bit for bit the same, on a stack of them.  Everything
downstream that needs a spectrum or a matrix square root goes through these
routines, so they deliberately do not call into ``numpy.linalg``: the
brute-force oracles built on top of them stay independent of the
closed-form code paths they are used to check.
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


def _offdiag_norm(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of the off-diagonal part of each matrix ``(..., k, k)``."""
    off = np.where(np.eye(a.shape[-1], dtype=bool), 0.0, a)
    return np.sqrt(np.sum(np.abs(off) ** 2, axis=(-2, -1)))


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


def eigh_stack(matrices: np.ndarray) -> EigenDecomposition:
    """:func:`eigh` over a stack of Hermitian matrices ``(..., k, k)``, bit for bit.

    Leading axes are stack axes.  Returns ``eigenvalues`` ``(..., k)``
    ascending and ``eigenvectors`` ``(..., k, k)``; every element is, in raw
    bits, what :func:`eigh` gives it alone.  Each sweep starts from a
    per-element convergence mask, and each rotation (p, q) acts only on the
    elements still active with ``a_pq != 0``, through :func:`eigh`'s own
    sequence of operations with ``c``, ``s`` and the phase broadcast over
    the stack.  Elements that converge early stop rotating; the sweeps stop
    when every element has converged.

    Raises
    ------
    NotHermitianError
        If an element fails :func:`eigh`'s Hermiticity or finiteness test;
        the message names the first such element (C order) in front of
        :func:`eigh`'s message.
    NotConvergedError
        If ``MAX_SWEEPS`` sweeps leave an element's off-diagonal norm above
        ``1e-14``, with :func:`eigh`'s message.
    """
    a = np.asarray(matrices, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise NotHermitianError(f"expected a stack of square matrices, got shape {a.shape}")
    stack_shape, n = a.shape[:-2], a.shape[-1]
    a = a.reshape((-1, n, n))
    a_dagger = a.conj().swapaxes(-1, -2)
    hermitian = np.max(np.abs(a - a_dagger), axis=(-2, -1)) <= HERMITICITY_TOL
    if not hermitian.all():
        first = int(np.argmin(hermitian))
        index = np.unravel_index(first, stack_shape)
        where = index[0] if len(index) == 1 else tuple(int(i) for i in index)
        try:
            eigh(a[first])
        except NotHermitianError as exc:
            raise NotHermitianError(f"element {where}: {exc}") from None
    a = (a + a_dagger) / 2.0
    vec = np.broadcast_to(np.eye(n, dtype=complex), a.shape).copy()

    for _ in range(MAX_SWEEPS):
        active = ~(_offdiag_norm(a) <= OFFDIAG_TOL)
        if not active.any():
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[:, p, q]
                rotate = active & (np.hypot(apq.real, apq.imag) != 0.0)
                if rotate.all():
                    _rotate(a, vec, p, q)
                elif rotate.any():
                    sub_a, sub_vec = a[rotate], vec[rotate]
                    _rotate(sub_a, sub_vec, p, q)
                    a[rotate], vec[rotate] = sub_a, sub_vec
    else:
        raise NotConvergedError(
            f"Jacobi iteration on a {n}x{n} matrix did not converge in {MAX_SWEEPS} sweeps"
        )

    values = np.real(np.diagonal(a, axis1=-2, axis2=-1))
    order = np.argsort(values, axis=-1, kind="stable")
    values = np.take_along_axis(values, order, axis=-1)
    # Column-major elements, the layout of eigh's ``vec[:, order]``, so that
    # products with the vectors take the same BLAS path as after eigh.
    vec = np.take_along_axis(vec.swapaxes(-1, -2), order[:, :, None], axis=-2)
    vec = vec.reshape(stack_shape + (n, n)).swapaxes(-1, -2)
    return EigenDecomposition(values.reshape(stack_shape + (n,)), vec)


def _rotate(a: np.ndarray, vec: np.ndarray, p: int, q: int) -> None:
    """:func:`eigh`'s Jacobi rotation (p, q), in place on stacks ``a`` and ``vec``.

    ``|a_pq|`` is ``np.hypot`` of its parts, the rounding of :func:`eigh`'s
    scalar ``abs`` (the array ``np.abs`` differs in rare last bits).
    """
    apq = a[:, p, q]
    magnitude = np.hypot(apq.real, apq.imag)
    phase = apq / magnitude
    app = a[:, p, p].real
    aqq = a[:, q, q].real
    theta = 0.5 * np.arctan2(2.0 * magnitude, app - aqq)
    c = np.cos(theta)[:, None]
    s = np.sin(theta)[:, None]

    a[:, :, q] *= np.conj(phase)[:, None]
    a[:, q, :] *= phase[:, None]
    vec[:, :, q] *= np.conj(phase)[:, None]

    col_p = a[:, :, p].copy()
    col_q = a[:, :, q].copy()
    a[:, :, p] = c * col_p + s * col_q
    a[:, :, q] = -s * col_p + c * col_q
    row_p = a[:, p, :].copy()
    row_q = a[:, q, :].copy()
    a[:, p, :] = c * row_p + s * row_q
    a[:, q, :] = -s * row_p + c * row_q

    vcol_p = vec[:, :, p].copy()
    vcol_q = vec[:, :, q].copy()
    vec[:, :, p] = c * vcol_p + s * vcol_q
    vec[:, :, q] = -s * vcol_p + c * vcol_q

    a[:, p, q] = 0.0
    a[:, q, p] = 0.0
    a[:, p, p] = a[:, p, p].real
    a[:, q, q] = a[:, q, q].real


def sqrt_from_spectrum(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix from its :func:`eigh` spectrum.

    Eigenvalues in ``[-1e-12, 0]`` are clamped to zero; anything lower raises
    ``NotPSDError``.
    """
    if values[0] < -PSD_CLAMP:
        raise NotPSDError(f"eigenvalue {values[0]:.3e} below -1e-12")
    clamped = np.clip(values, 0.0, None)
    root = (vectors * np.sqrt(clamped)) @ vectors.conj().T
    return (root + root.conj().T) / 2.0


def psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Principal square root of a positive semidefinite Hermitian matrix.

    Eigenvalues in ``[-1e-12, 0]`` are clamped to zero; anything lower raises
    ``NotPSDError``.
    """
    return sqrt_from_spectrum(*eigh(matrix))


def central_diff(func: Callable[[float], np.ndarray], x: float, step: float | None = None):
    """Symmetric difference quotient ``(f(x+h) - f(x-h)) / 2h``.

    The default step is ``1e-6 * max(1, |x|)``; the error is O(h^2) for
    smooth ``func``.
    """
    h = step if step is not None else 1e-6 * max(1.0, abs(x))
    return (func(x + h) - func(x - h)) / (2.0 * h)
