"""Eigensolver, PSD square root, and finite-difference helper."""

import re
import tracemalloc

import numpy as np
import pytest

from xqmetro import cli, ghz, linalg, oracle
from xqmetro.errors import NotConvergedError, NotHermitianError, NotPSDError, XQMetroError
from xqmetro.channels import ChannelKind, ChannelParam, apply_kraus_dense
from xqmetro.linalg import central_diff, eigh, eigh_stack, psd_sqrt
from xqmetro.xstate import random_xstate
from reference import offdiag_norm_where


def random_hermitian(rng, n=8):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2.0


def reference_eigh(matrix):
    """The per-matrix cyclic Jacobi loop that ``eigh_stack`` must reproduce bit for bit."""
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotHermitianError(f"expected a square matrix, got shape {a.shape}")
    # A non-finite entry leaves a NaN or an infinity in A - A^dagger, so the
    # finiteness check rides on the failure branch of this one comparison.
    if not np.max(np.abs(a - a.conj().T)) <= linalg.HERMITICITY_TOL:
        bad = np.argwhere(~np.isfinite(a))
        if len(bad):
            i, j = bad[0]
            raise NotHermitianError(f"matrix[{i}, {j}] is {a[i, j]}, not finite")
        raise NotHermitianError("matrix is not Hermitian within 1e-12")

    n = a.shape[0]
    a = (a + a.conj().T) / 2.0
    vec = np.eye(n, dtype=complex)

    for _ in range(linalg.MAX_SWEEPS):
        if linalg._offdiag_norm(a) <= linalg.OFFDIAG_TOL:
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
            f"Jacobi iteration on a {n}x{n} matrix did not converge in {linalg.MAX_SWEEPS} sweeps"
        )

    values = np.real(np.diag(a))
    order = np.argsort(values, kind="stable")
    return values[order], vec[:, order]


class TestEigh:
    def test_diagonal_matrix_sorted_ascending(self):
        values, vectors = eigh(np.diag([3.0, 1.0, 2.0]).astype(complex))
        np.testing.assert_allclose(values, [1.0, 2.0, 3.0], atol=1e-14)
        np.testing.assert_allclose(np.abs(vectors), np.eye(3)[:, [1, 2, 0]], atol=1e-14)

    def test_pauli_x_spectrum(self):
        values, vectors = eigh(np.array([[0, 1], [1, 0]], dtype=complex))
        np.testing.assert_allclose(values, [-1.0, 1.0], atol=1e-14)
        m = np.array([[0, 1], [1, 0]], dtype=complex)
        for k in range(2):
            residual = m @ vectors[:, k] - values[k] * vectors[:, k]
            assert np.abs(residual).max() < 1e-13

    def test_pauli_y_complex_rotations(self):
        y = np.array([[0, -1j], [1j, 0]])
        values, vectors = eigh(y)
        np.testing.assert_allclose(values, [-1.0, 1.0], atol=1e-14)
        for k in range(2):
            residual = y @ vectors[:, k] - values[k] * vectors[:, k]
            assert np.abs(residual).max() < 1e-13

    def test_random_reconstruction(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            m = random_hermitian(rng)
            values, vectors = eigh(m)
            rebuilt = (vectors * values) @ vectors.conj().T
            assert np.abs(rebuilt - m).max() < 1e-11

    def test_random_orthonormal_columns(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            _, vectors = eigh(random_hermitian(rng))
            gram = vectors.conj().T @ vectors
            assert np.abs(gram - np.eye(8)).max() < 1e-12

    def test_matches_external_eigenvalues(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            m = random_hermitian(rng)
            values, _ = eigh(m)
            np.testing.assert_allclose(values, np.linalg.eigvalsh(m), atol=1e-11)

    def test_ascending_order_always(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            values, _ = eigh(random_hermitian(rng))
            assert np.all(np.diff(values) >= -1e-14)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(NotHermitianError):
            eigh(np.zeros((2, 3)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), complex(0, float("inf"))])
    @pytest.mark.parametrize("entry", [(2, 2), (1, 6)])
    def test_rejects_non_finite_entries(self, monkeypatch, bad, entry):
        # Typed at once: the Jacobi loop never runs (it would raise
        # NotConvergedError here instead).
        monkeypatch.setattr(linalg, "MAX_SWEEPS", 0)
        matrix = np.eye(8, dtype=complex) / 8.0
        matrix[entry] = bad
        text = rf"^matrix\[{entry[0]}, {entry[1]}\] is {re.escape(str(matrix[entry]))}, not finite$"
        with pytest.raises(NotHermitianError, match=text):
            eigh(matrix)

    def test_non_finite_message_is_bounded(self):
        # Only the first non-finite entry is named, however many there are.
        with pytest.raises(NotHermitianError) as info:
            eigh(np.full((8, 8), np.nan))
        assert str(info.value) == "matrix[0, 0] is (nan+0j), not finite"

    def test_non_convergence_raises_package_error(self, monkeypatch):
        monkeypatch.setattr(linalg, "MAX_SWEEPS", 0)
        with pytest.raises(NotConvergedError, match="did not converge") as info:
            eigh(random_hermitian(np.random.default_rng(3), n=2))
        assert isinstance(info.value, XQMetroError)
        assert isinstance(info.value, RuntimeError)  # handlers of the bare error still apply

    def test_degenerate_spectrum(self):
        values, vectors = eigh(np.eye(4, dtype=complex) * 0.25)
        np.testing.assert_allclose(values, [0.25] * 4, atol=1e-15)
        assert np.abs(vectors.conj().T @ vectors - np.eye(4)).max() < 1e-13


def assert_matches_reference(matrices):
    """``eigh`` and every ``eigh_stack`` element equal ``reference_eigh`` in raw bits.

    Values, vectors and the vectors' strides; ``matrices`` is ``(..., k, k)``.
    """
    values, vectors = eigh_stack(matrices)
    assert values.shape == matrices.shape[:-1] and vectors.shape == matrices.shape
    for index in np.ndindex(matrices.shape[:-2]):
        ref_values, ref_vectors = reference_eigh(matrices[index])
        for got_values, got_vectors in (eigh(matrices[index]), (values[index], vectors[index])):
            assert got_values.tobytes() == ref_values.tobytes(), index
            assert got_vectors.tobytes() == ref_vectors.tobytes(), index
            assert got_vectors.strides == ref_vectors.strides, index


class TestEighStack:
    """eigh and the stacked solver are the per-matrix reference, bit for bit."""

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("kind", list(ChannelKind))
    def test_kraus_images(self, kind, p):
        rng = np.random.default_rng(31)
        dense = np.stack([random_xstate(rng).to_dense() for _ in range(30)])
        assert_matches_reference(apply_kraus_dense(dense, kind, ChannelParam(p)))

    def test_random_xstates(self):
        rng = np.random.default_rng(35)
        assert_matches_reference(np.stack([random_xstate(rng).to_dense() for _ in range(300)]))

    def test_two_by_two_blocks(self):
        # The four blocks of random X states, then rank-1 and zero blocks.
        rng = np.random.default_rng(36)
        dense = np.stack([random_xstate(rng).to_dense() for _ in range(100)])
        rows = [[[i, i], [7 - i, 7 - i]] for i in range(4)]
        cols = [[[i, 7 - i], [i, 7 - i]] for i in range(4)]
        blocks = dense[:, rows, cols].reshape(-1, 2, 2)
        kets = rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2))
        pure = [np.outer(v, v.conj()) for v in kets]
        assert_matches_reference(np.concatenate([blocks, pure, np.zeros((1, 2, 2))]))

    def test_general_hermitian(self):
        rng = np.random.default_rng(32)
        assert_matches_reference(np.stack([random_hermitian(rng) for _ in range(24)]))

    def test_degenerate_spectrum_keeps_stable_order(self):
        assert_matches_reference(np.stack([np.eye(8, dtype=complex) / 8.0] * 3))

    def test_elements_converging_on_different_sweeps(self, monkeypatch):
        # A diagonal matrix needs no rotation, an X state two sweeps, a
        # near-diagonal matrix four (leaving tiny nonzero off-diagonal
        # entries) and a general Hermitian matrix six: the active mask must
        # stop each element where eigh stops it.
        rng = np.random.default_rng(33)
        general = random_hermitian(rng)
        near_diagonal = np.diag(np.arange(1.0, 9.0)).astype(complex) + 1e-3 * random_hermitian(rng)
        x_state = random_xstate(rng).to_dense()
        diagonal = np.diag([0.5, 0.25, 0.25, 0, 0, 0, 0, 0]).astype(complex)
        assert_matches_reference(np.stack([general, near_diagonal, diagonal, x_state]))
        monkeypatch.setattr(linalg, "MAX_SWEEPS", 5)
        eigh(near_diagonal)
        with pytest.raises(NotConvergedError):
            eigh(general)

    def test_single_element_and_leading_axes(self):
        rng = np.random.default_rng(34)
        assert_matches_reference(random_hermitian(rng)[None])
        dense = np.stack([random_xstate(rng).to_dense() for _ in range(6)]).reshape(2, 3, 8, 8)
        assert_matches_reference(dense)
        assert_matches_reference(random_xstate(rng).to_dense())  # no stack axes

    @pytest.mark.parametrize("n", [270, 918])
    def test_working_set_stays_four_stacks(self, n):
        # Bound: 4x the stack's bytes.  The solver's copy and its
        # eigenvectors take 2x; before the sweeps, A^dagger, A + A^dagger and
        # its half take 3x; in a sweep, a rotation copies only one pair of
        # columns or rows of the elements it rotates, and the off-diagonal
        # norm takes a float half of the stack.  Holding A^dagger through
        # the sweeps read 5.01x at 270 states and 4.51x at 918.
        rng = np.random.default_rng(37)
        stack = np.stack([random_xstate(rng).to_dense() for _ in range(n)])
        tracemalloc.start()
        try:
            eigh_stack(stack)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * stack.nbytes, peak / stack.nbytes

    @pytest.mark.parametrize("kind", list(ChannelKind))
    def test_working_set_on_the_oracle_stack(self, monkeypatch, kind):
        # The stack crosscheck_grid hands the oracle column at validate
        # --grid 9's axes: Kraus images, most of them converged after a
        # sweep or two, so most rotations move a part of the stack.  Bound
        # as above, 4x its bytes.  Gathering the rotating elements' whole
        # matrices and scattering them back read 3.87x (pdc), 5.41x (dpc)
        # and 5.67x (pfc).
        stacks = []

        def recorded(states):
            stacks.append(states.copy())
            return eigh_stack(states)

        monkeypatch.setattr(oracle, "eigh_stack", recorded)
        ghz.crosscheck_grid(kind, *cli._grid_axes(9))
        (stack,) = stacks
        assert stack.shape == (3, 10, 9, 8, 8)
        tracemalloc.start()
        try:
            eigh_stack(stack)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * stack.nbytes, peak / stack.nbytes

    def test_empty_stack(self):
        # No matrices, or 0x0 ones: empty spectra, no error.
        for shape in ((0, 8, 8), (0, 0), (2, 0, 0), (0, 0, 0), (2, 3, 0, 0)):
            values, vectors = eigh_stack(np.zeros(shape, dtype=complex))
            assert values.shape == shape[:-1] and vectors.shape == shape, shape
        values, vectors = eigh(np.zeros((0, 0)))
        assert values.shape == (0,) and vectors.shape == (0, 0)

    def test_non_convergence_raises_eigh_message(self, monkeypatch):
        monkeypatch.setattr(linalg, "MAX_SWEEPS", 0)
        matrices = np.stack([np.eye(8, dtype=complex) / 8.0] * 2)
        with pytest.raises(NotConvergedError) as alone:
            eigh(matrices[0])
        with pytest.raises(NotConvergedError, match="^Jacobi iteration") as stacked:
            eigh_stack(matrices)
        assert str(stacked.value) == str(alone.value)

    @pytest.mark.filterwarnings("error")
    def test_non_finite_element_named(self):
        matrices = np.stack([np.eye(8, dtype=complex) / 8.0] * 4)
        matrices[2, 1, 6] = np.nan
        with pytest.raises(
            NotHermitianError, match=r"^element 2: matrix\[1, 6\] is \(nan\+0j\), not finite$"
        ):
            eigh_stack(matrices)

    def test_asymmetric_element_named(self):
        matrices = np.stack([np.eye(8, dtype=complex) / 8.0] * 6).reshape(2, 3, 8, 8)
        matrices[1, 0, 0, 7] += 1e-11
        with pytest.raises(
            NotHermitianError, match=r"^element \(1, 0\): matrix is not Hermitian within 1e-12$"
        ):
            eigh_stack(matrices)


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", ["nan", "asymmetric", "no-sweeps"])
    def test_one_matrix_errors_name_no_element(self, monkeypatch, case):
        matrix = np.eye(8, dtype=complex) / 8.0
        error = NotHermitianError
        if case == "nan":
            matrix[1, 6] = np.nan
        elif case == "asymmetric":
            matrix[0, 7] += 1e-11
        else:
            monkeypatch.setattr(linalg, "MAX_SWEEPS", 0)
            error = NotConvergedError
        messages = set()
        for solver in (reference_eigh, eigh, eigh_stack):
            with pytest.raises(error) as info:
                solver(matrix)
            messages.add(str(info.value))
        assert len(messages) == 1 and not messages.pop().startswith("element")


def _offdiag_cases():
    rng = np.random.default_rng(38)
    hermitian = np.stack([random_hermitian(rng) for _ in range(24)])
    x_states = np.stack([random_xstate(rng).to_dense() for _ in range(30)])
    blocks = np.stack([random_hermitian(rng, 2) for _ in range(40)])
    special = np.stack([random_hermitian(rng) for _ in range(6)])
    special[0, 1, 6] = np.nan
    special[1, 3, 3] = np.nan
    special[2, 0, 7] = np.inf
    special[3, 5, 2] = complex(-np.inf, np.nan)
    special[4, 4, 4] = -np.inf
    special[5, 2, 2] = complex(np.nan, np.inf)
    small = np.stack([np.zeros((2, 2), dtype=complex), blocks[0]])
    small[1, 0, 1] = complex(np.inf, -np.inf)
    return {
        "hermitian": hermitian,
        "x-states": x_states,
        "two-by-two": blocks,
        "special": special,
        "special-two-by-two": small,
        "all-zero": np.zeros((3, 8, 8), dtype=complex),
        "leading-axes": x_states[:6].reshape(2, 3, 8, 8),
        "one-matrix": hermitian[0],
        "empty": np.zeros((0, 8, 8), dtype=complex),
    }


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", list(_offdiag_cases()))
def test_offdiag_norm_bits_equal_the_where_form(case):
    a = _offdiag_cases()[case]
    norm = linalg._offdiag_norm(a)
    assert norm.shape == a.shape[:-2]
    assert norm.tobytes() == offdiag_norm_where(a).tobytes()


class TestPsdSqrt:
    def test_diagonal_anchor(self):
        root = psd_sqrt(np.diag([2.0, 8.0]).astype(complex))
        np.testing.assert_allclose(root, np.diag([np.sqrt(2.0), np.sqrt(8.0)]), atol=1e-13)

    def test_square_recovers_matrix(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = random_hermitian(rng, n=8)
            psd = m @ m.conj().T / 8.0
            root = psd_sqrt(psd)
            assert np.abs(root @ root - psd).max() < 1e-11

    def test_result_hermitian_psd(self):
        rng = np.random.default_rng(12)
        m = random_hermitian(rng)
        psd = m @ m.conj().T
        root = psd_sqrt(psd)
        assert np.abs(root - root.conj().T).max() < 1e-13
        assert np.linalg.eigvalsh(root).min() > -1e-11

    def test_clamps_tiny_negative_eigenvalues(self):
        root = psd_sqrt(np.diag([1.0, -1e-13]).astype(complex))
        np.testing.assert_allclose(root, np.diag([1.0, 0.0]), atol=1e-6)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSDError):
            psd_sqrt(np.diag([1.0, -0.5]).astype(complex))


class TestCentralDiff:
    def test_cubic_derivative(self):
        d = central_diff(lambda x: np.array([x**3]), 1.0)
        assert abs(d[0] - 3.0) < 1e-9

    def test_second_order_convergence(self, monkeypatch):
        def f(x):
            return np.array([np.sin(3.0 * x)])

        x0 = 0.4
        exact = 3.0 * np.cos(3.0 * x0)
        monkeypatch.setattr(linalg, "FD_STEP", 1e-2)
        err_h = abs(central_diff(f, x0)[0] - exact)
        monkeypatch.setattr(linalg, "FD_STEP", 5e-3)
        err_h2 = abs(central_diff(f, x0)[0] - exact)
        assert 3.5 < err_h / err_h2 < 4.5

    def test_array_valued(self):
        d = central_diff(lambda x: np.array([x, x**2, np.exp(x)]), 0.0)
        np.testing.assert_allclose(d, [1.0, 0.0, 1.0], atol=1e-9)

    def test_linear_exact(self):
        d = central_diff(lambda x: np.array([2.0 * x + 1.0]), 5.0)
        assert abs(d[0] - 2.0) < 1e-9
