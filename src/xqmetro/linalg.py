"""Self-contained linear algebra for small Hermitian matrices.

The eigensolver is a cyclic Jacobi iteration on complex Hermitian matrices
(2x2 and 8x8 in this package), written once over stacks: :func:`eigh_stack`
takes ``(..., k, k)``, and :func:`eigh` is its one-matrix view (about 0.1 ms
for a 2x2 and 0.35-0.55 ms for an 8x8 X state per call on a 2-vCPU VM with
numpy 2.4, 2-3x a per-matrix loop; no hot path calls it one matrix at a
time).  Everything downstream that needs a spectrum or a matrix square root
goes through these routines, so they deliberately do not call into
``numpy.linalg``: the brute-force oracles built on top of them stay
independent of the closed-form code paths they are used to check.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import NotConvergedError, NotHermitianError, NotPSDError
from .xstate import _first_failure, _not_finite

HERMITICITY_TOL = 1e-12
OFFDIAG_TOL = 1e-14
PSD_CLAMP = 1e-12
MAX_SWEEPS = 100
FD_STEP = 1e-6


class EigenDecomposition(NamedTuple):
    """Eigenvalues in ascending order and matching orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _offdiag_norm(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of the off-diagonal part of each matrix ``(..., k, k)``.

    One float temporary, zeroed on the diagonal and squared in place; the
    tests hold it in raw bits to the complex ``np.where`` form it replaced.
    """
    n = a.shape[-1]
    off = np.abs(a)
    off[..., range(n), range(n)] = 0.0
    np.square(off, out=off)
    return np.sqrt(np.sum(off, axis=(-2, -1)))


def eigh(matrix: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of one Hermitian matrix: :func:`eigh_stack` on it alone.

    Returns ``eigenvalues`` ascending and ``eigenvectors`` with orthonormal
    columns, ``matrix @ v[:, k] == w[k] * v[:, k]``.  Raises
    :class:`NotHermitianError` for a matrix that is not square, and
    otherwise as :func:`eigh_stack` does, with no element named.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotHermitianError(f"expected a square matrix, got shape {a.shape}")
    return eigh_stack(a)


def eigh_stack(matrices: np.ndarray) -> EigenDecomposition:
    """Cyclic Jacobi eigendecomposition of Hermitian matrices ``(..., k, k)``.

    Leading axes, if any, are stack axes.  Returns ``eigenvalues`` ``(..., k)``
    ascending and ``eigenvectors`` ``(..., k, k)`` with orthonormal columns;
    every element is, in raw bits, what it gives alone.  Each sweep starts
    from a per-element convergence mask, and each rotation (p, q) acts only
    on the elements still active with ``a_pq != 0``: a phase rotation makes
    ``a_pq`` real, then a plane rotation annihilates it.  Elements that
    converge early stop rotating; the sweeps stop when every element has
    converged.

    Raises
    ------
    NotHermitianError
        If an element has a NaN or infinite entry, naming the first one as
        ``matrix[r, c]``, or else ``max |A - A^dagger|`` above ``1e-12``;
        the first check that fails raises for the first element (C order) it
        fails on, and for a stack names that element in front.
    NotConvergedError
        If ``MAX_SWEEPS`` sweeps leave an element's off-diagonal norm above
        ``1e-14``.
    """
    a = np.asarray(matrices, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise NotHermitianError(f"expected a stack of square matrices, got shape {a.shape}")
    stack_shape, n = a.shape[:-2], a.shape[-1]
    a_dagger = a.conj().swapaxes(-1, -2)
    with np.errstate(invalid="ignore"):  # inf - inf: a non-finite entry, named below
        hermitian = np.max(np.abs(a - a_dagger), axis=(-2, -1)) <= HERMITICITY_TOL
    if not hermitian.all():
        # A non-finite entry leaves a NaN or an infinity in A - A^dagger,
        # so the finiteness check rides on this failure branch.
        _first_failure(
            _not_finite("matrix", a, 2, NotHermitianError),
            (NotHermitianError, ~hermitian, lambda i: "matrix is not Hermitian within 1e-12"),
        )
    a = ((a + a_dagger) / 2.0).reshape((-1, n, n))
    del a_dagger  # not held through the sweeps
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
    # Column-major elements, the layout of a per-matrix ``vec[:, order]``,
    # so that products with the vectors take the same BLAS path (and round
    # the same) whether a matrix was decomposed alone or in a stack.
    vec = np.take_along_axis(vec.swapaxes(-1, -2), order[:, :, None], axis=-2)
    vec = vec.reshape(stack_shape + (n, n)).swapaxes(-1, -2)
    return EigenDecomposition(values.reshape(stack_shape + (n,)), vec)


def _rotate(a: np.ndarray, vec: np.ndarray, p: int, q: int) -> None:
    """Jacobi rotation (p, q), in place on stacks ``a`` and ``vec``.

    ``|a_pq|`` is ``np.hypot`` of its parts, the rounding of a scalar
    complex ``abs`` (the array ``np.abs`` differs in rare last bits), so
    results equal the per-matrix loop kept as the tests' reference.
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
    """Principal square roots of PSD Hermitian matrices from their :func:`eigh_stack` spectra.

    ``values`` ``(..., k)`` and ``vectors`` ``(..., k, k)``; leading axes are
    stack axes, and every element is, in raw bits, what it gives alone.
    Eigenvalues in ``[-1e-12, 0]`` are clamped to zero; anything lower raises
    ``NotPSDError``, naming the first such element (C order) for a stack.
    """
    lowest = values[..., 0]
    _first_failure(
        (NotPSDError, lowest < -PSD_CLAMP, lambda i: f"eigenvalue {lowest[i]:.3e} below -1e-12")
    )
    clamped = np.clip(values, 0.0, None)
    root = (vectors * np.sqrt(clamped)[..., None, :]) @ vectors.conj().swapaxes(-1, -2)
    return (root + root.conj().swapaxes(-1, -2)) / 2.0


def psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Principal square root of a positive semidefinite Hermitian matrix.

    Eigenvalues in ``[-1e-12, 0]`` are clamped to zero; anything lower raises
    ``NotPSDError``.
    """
    return sqrt_from_spectrum(*eigh(matrix))


def diff_step(x: float) -> float:
    """Central-difference step ``FD_STEP * max(1, |x|)`` at ``x``.

    The one step of the package: the central-difference tangent and the
    skew oracle's probes rho(x -+ h) both take it.
    """
    return FD_STEP * max(1.0, abs(x))


def central_diff(func: Callable[[float], np.ndarray], x: float):
    """Symmetric difference quotient ``(f(x+h) - f(x-h)) / 2h``, ``h = diff_step(x)``.

    The error is O(h^2) for smooth ``func``.
    """
    h = diff_step(x)
    return (func(x + h) - func(x - h)) / (2.0 * h)
