"""Brute-force oracles: full-spectrum Fisher information and sqrt-route skew."""

import numpy as np
import pytest

from reference import family_oracles_at
from xqmetro import ghz, linalg, metrics, oracle
from xqmetro.channels import ChannelKind
from xqmetro.cli import _grid_axes
from xqmetro.errors import (
    NotHermitianError,
    NotPSDError,
    NotXFormError,
    TraceViolationError,
    XQMetroError,
)
from xqmetro.linalg import diff_step, eigh_stack, sqrt_from_spectrum
from xqmetro.metrics import ParamFamily, qfi_total, random_family, skew_total
from xqmetro.oracle import (
    oracle_column,
    qfi_eigen_oracle,
    qfi_from_spectrum,
    skew_from_spectra,
    skew_sqrt_oracle,
)
from xqmetro.xstate import XState, XTangent


def reference_qfi_from_spectrum(values, vectors, drho):
    """One spectrum, one (i, j) pair at a time: the per-point Fisher finish
    that preceded the stacked one, kept as its reference.  It reads
    ``oracle.RANK_CUTOFF`` at call time, so monkeypatches reach it."""
    if values[0] < -1e-12:
        raise NotPSDError(f"state eigenvalue {values[0]:.3e} below -1e-12")
    if abs(values.sum() - 1.0) > 1e-10:
        raise TraceViolationError(f"state trace {values.sum()!r} differs from 1")
    overlap = vectors.conj().T @ drho @ vectors
    n = values.size
    total = 0.0
    for i in range(n):
        for j in range(n):
            denom = values[i] + values[j]
            if denom > oracle.RANK_CUTOFF:
                total += 2.0 * abs(overlap[i, j]) ** 2 / denom
    return total


def reference_skew_from_spectra(left, right, h):
    """One probe pair with one square root per probe: the per-point skew
    finish that preceded the stacked one, kept as its reference."""

    def root(values, vectors):
        if values[0] < -1e-12:
            raise NotPSDError(f"eigenvalue {values[0]:.3e} below -1e-12")
        clamped = np.clip(values, 0.0, None)
        root = (vectors * np.sqrt(clamped)) @ vectors.conj().T
        return (root + root.conj().T) / 2.0

    droot = (root(*right) - root(*left)) / (2.0 * h)
    return float(np.real(np.trace(droot @ droot)) * 4.0)


class TestQfiEigenOracle:
    def test_classical_diagonal(self):
        lam = np.array([0.4, 0.3, 0.2, 0.1])
        dlam = np.array([0.2, -0.1, -0.2, 0.1])
        value = qfi_eigen_oracle(np.diag(lam).astype(complex), np.diag(dlam).astype(complex))
        assert abs(value - float(np.sum(dlam**2 / lam))) < 1e-12

    def test_unitary_basis_invariance(self):
        rng = np.random.default_rng(81)
        lam = np.array([0.4, 0.3, 0.2, 0.1])
        dlam = np.array([0.2, -0.1, -0.2, 0.1])
        rho = np.diag(lam).astype(complex)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        drho = np.diag(dlam) + 0.05 * (m + m.conj().T)
        drho -= np.eye(4) * np.trace(drho).real / 4.0
        baseline = qfi_eigen_oracle(rho, drho)
        for _ in range(5):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            u, _ = np.linalg.qr(g)
            rotated = qfi_eigen_oracle(u @ rho @ u.conj().T, u @ drho @ u.conj().T)
            assert abs(rotated - baseline) < 1e-9

    def test_agrees_with_block_pipeline(self):
        rng = np.random.default_rng(82)
        for _ in range(20):
            family = random_family(rng)
            phi = float(rng.uniform(0.2, 0.8))
            oracle = qfi_eigen_oracle(
                family.state(phi).to_dense(), family.tangent_at(phi).to_dense()
            )
            assert abs(qfi_total(family, phi) - oracle) / max(oracle, 1e-9) < 1e-6

    def test_rejects_negative_state(self):
        with pytest.raises(NotPSDError):
            qfi_eigen_oracle(np.diag([1.1, -0.1]).astype(complex), np.zeros((2, 2)))

    def test_rejects_unnormalized_state(self):
        with pytest.raises(TraceViolationError):
            qfi_eigen_oracle(np.eye(4, dtype=complex), np.zeros((4, 4)))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_tangent(self, bad):
        drho = np.zeros((8, 8), dtype=complex)
        drho[0, 7] = drho[7, 0] = bad
        text = rf"^drho\[0, 7\] is \({bad}\+0j\), not finite$"
        with pytest.raises(NotHermitianError, match=text) as info:
            qfi_eigen_oracle(np.eye(8, dtype=complex) / 8.0, drho)
        assert isinstance(info.value, XQMetroError)

    def test_rejects_mismatched_shapes(self):
        message = r"^drho shape \(4, 4\) differs from rho shape \(8, 8\)$"
        with pytest.raises(NotHermitianError, match=message):
            qfi_eigen_oracle(np.eye(8) / 8.0, np.zeros((4, 4)))

    def test_rank_deficient_state_skips_null_pairs(self):
        # Support-preserving motion on a rank-2 state: finite answer.
        lam = np.array([0.7, 0.3, 0.0, 0.0])
        dlam = np.array([0.1, -0.1, 0.0, 0.0])
        value = qfi_eigen_oracle(np.diag(lam).astype(complex), np.diag(dlam).astype(complex))
        assert abs(value - (0.01 / 0.7 + 0.01 / 0.3)) < 1e-12

    def test_rank_cutoff_controls_null_pairs(self, monkeypatch):
        lam = np.array([1.0 - 1e-8, 1e-8])
        dlam = np.array([1.0, -1.0])
        rho, drho = np.diag(lam).astype(complex), np.diag(dlam).astype(complex)
        loose = qfi_eigen_oracle(rho, drho)
        monkeypatch.setattr(oracle, "RANK_CUTOFF", 1e-6)
        strict = qfi_eigen_oracle(rho, drho)
        # the tiny-eigenvalue diagonal term 1/1e-8 is excluded by the strict cutoff
        assert loose > strict
        assert abs(strict - (1.0 / (1.0 - 1e-8))) < 1e-6

    def test_rank_cutoff_is_the_pipeline_value(self):
        # Written out in each module, so that the oracles import no cutoff
        # from the code they check; the two must still agree.
        assert oracle.RANK_CUTOFF == metrics.RANK_CUTOFF == 1e-12


class TestSkewSqrtOracle:
    def test_classical_family(self):
        d0 = np.array([0.30, 0.05, 0.10, 0.02, 0.08, 0.15, 0.20, 0.10])
        d1 = np.array([0.10, 0.15, 0.05, 0.12, 0.18, 0.05, 0.10, 0.25])

        def state(phi):
            return XState((1.0 - phi) * d0 + phi * d1, np.zeros(4, dtype=complex))

        family = ParamFamily(state=state)
        phi = 0.4
        d = (1.0 - phi) * d0 + phi * d1
        classical = float(np.sum((d1 - d0) ** 2 / d))
        assert abs(skew_sqrt_oracle(family, phi) - classical) < 1e-7

    def test_agrees_with_block_pipeline(self):
        rng = np.random.default_rng(83)
        for _ in range(20):
            family = random_family(rng)
            phi = float(rng.uniform(0.2, 0.8))
            oracle = skew_sqrt_oracle(family, phi)
            assert abs(skew_total(family, phi) - oracle) / max(oracle, 1e-9) < 1e-5

    def test_step_override(self, monkeypatch):
        rng = np.random.default_rng(84)
        family = random_family(rng)
        fine = skew_sqrt_oracle(family, 0.5)
        monkeypatch.setattr(linalg, "FD_STEP", 1e-4)
        coarse = skew_sqrt_oracle(family, 0.5)
        assert coarse != fine
        assert abs(coarse - fine) / max(abs(fine), 1e-9) < 1e-4


def _bits(value):
    return np.float64(value).view(np.uint64)


class TestFamilyOracles:
    """The stacked oracle column gives every point what the point gives alone."""

    @pytest.mark.parametrize("fd_step", [1e-6, 1e-4])
    def test_bit_identical_to_per_family_oracles(self, monkeypatch, fd_step):
        monkeypatch.setattr(linalg, "FD_STEP", fd_step)
        rng = np.random.default_rng(85)
        points = [(random_family(rng), float(rng.uniform(0.2, 0.8))) for _ in range(40)]
        got = family_oracles_at(points)
        assert len(got) == len(points)
        for (family, phi), (qfi, skew) in zip(points, got):
            rho = family.state(phi).to_dense()
            drho = family.tangent_at(phi).to_dense()
            assert _bits(qfi) == _bits(qfi_eigen_oracle(rho, drho))
            assert _bits(skew) == _bits(skew_sqrt_oracle(family, phi))

    def test_no_points(self):
        assert family_oracles_at([]) == []

    @pytest.mark.parametrize(
        "field, text",
        [("diag", "tangent diag[0] is nan"), ("anti", "tangent anti[2] is (nan+0j)")],
    )
    def test_non_finite_tangent_names_its_point(self, field, text):
        rng = np.random.default_rng(86)
        family = random_family(rng)

        def tangent(phi):
            parts = family.tangent(phi)._asdict()
            parts[field] = parts[field].copy()
            parts[field][2 if field == "anti" else 0] = np.nan
            return XTangent(**parts)

        broken = ParamFamily(state=family.state, tangent=tangent)
        with pytest.raises(NotXFormError) as err:
            family_oracles_at([(family, 0.4), (family, 0.6), (broken, 0.4)])
        assert str(err.value) == f"element 2: {text}, not finite"


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def reference_column(states, drho, steps):
    """Per-point reference finishes over the spectra of a (3, ...) state
    stack, one point at a time in C order; each column has the stack's shape."""
    values, vectors = eigh_stack(states)
    shape = values.shape[1:-1]
    drho = np.broadcast_to(drho, vectors.shape[1:])
    steps = np.broadcast_to(steps, shape)
    fisher = [
        reference_qfi_from_spectrum(values[0][k], vectors[0][k], drho[k])
        for k in np.ndindex(shape)
    ]
    skew = [
        reference_skew_from_spectra(
            (values[1][k], vectors[1][k]), (values[2][k], vectors[2][k]), steps[k]
        )
        for k in np.ndindex(shape)
    ]
    return np.reshape(fisher, shape), np.reshape(skew, shape)


def assert_column_matches_reference(states, drho, steps):
    """The stacked finishes and :func:`oracle_column` equal the per-point
    references in raw bits."""
    expected = reference_column(states, drho, steps)
    values, vectors = eigh_stack(states)
    finishes = (
        qfi_from_spectrum(values[0], vectors[0], drho),
        skew_from_spectra((values[1], vectors[1]), (values[2], vectors[2]), steps),
    )
    column = oracle_column(states, drho, steps)
    for got in (finishes, column):
        assert bits(got[0]) == bits(expected[0])
        assert bits(got[1]) == bits(expected[1])


class TestStackedFinish:
    """The stacked Fisher and skew finishes equal the per-point loops they
    replaced, in raw bits."""

    @pytest.mark.parametrize("fd_step, cutoff", [(1e-6, 1e-12), (1e-4, 1e-12), (1e-6, 0.0)])
    def test_random_family_points(self, monkeypatch, fd_step, cutoff):
        monkeypatch.setattr(linalg, "FD_STEP", fd_step)
        monkeypatch.setattr(oracle, "RANK_CUTOFF", cutoff)
        rng = np.random.default_rng(87)
        states, tangents, steps = [[], [], []], [], []
        for _ in range(300):
            family, phi = random_family(rng), float(rng.uniform(0.2, 0.8))
            h = diff_step(phi)
            for stack, x in zip(states, (phi, phi - h, phi + h)):
                stack.append(family.state(x).to_dense())
            tangents.append(family.tangent_at(phi).to_dense())
            steps.append(h)
        assert_column_matches_reference(np.array(states), np.array(tangents), steps)

    @pytest.mark.parametrize("kind", list(ChannelKind))
    @pytest.mark.parametrize("grid", [9, 17])
    def test_crosscheck_inputs(self, monkeypatch, kind, grid):
        seen = []

        def checked(states, drho, steps):
            assert_column_matches_reference(states, drho, steps)
            seen.append(states.shape[:-2])
            return oracle_column(states, drho, steps)

        monkeypatch.setattr(ghz, "oracle_column", checked)
        q_values, p_values = _grid_axes(grid)
        ghz.crosscheck_grid(kind, [ghz.GHZ_QMIN] + q_values + [1.0], p_values + [1.0])
        # One column for the channel: (rho / left / right probe, p, q).
        assert seen == [(3, grid + 2, grid + 2)]

    @pytest.mark.parametrize("cutoff", [1e-12, 0.0, 1e-3])
    def test_rank_deficient_states(self, monkeypatch, cutoff):
        # rho = U diag(lam) U^dagger with 1 to 7 zero eigenvalues: the
        # solver returns them as +-1e-17-sized values, which the cutoff masks.
        rng = np.random.default_rng(88)
        states, tangents = [], []
        for rank in [1, 2, 3, 4, 5, 6, 7] * 3:
            lam = np.zeros(8)
            lam[:rank] = rng.dirichlet(np.ones(rank))
            g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            u, _ = np.linalg.qr(g)
            states.append(u @ np.diag(lam) @ u.conj().T)
            m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            tangents.append((m + m.conj().T) / 2.0)
        states = np.array(states)
        states = (states + states.conj().swapaxes(-1, -2)) / 2.0
        n = len(states) // 3
        stack = states[: 3 * n].reshape(3, n, 8, 8)
        monkeypatch.setattr(oracle, "RANK_CUTOFF", cutoff)
        values = eigh_stack(stack[0]).eigenvalues
        assert ((values[:, :, None] + values[:, None, :]) <= cutoff).any()
        assert_column_matches_reference(stack, np.array(tangents[:n]), [1e-6] * n)


class TestFinishErrors:
    """A stacked finish names the failing element; one matrix names none."""

    SPECTRUM = np.full(8, 1.0 / 8.0)
    VECTORS = np.eye(8, dtype=complex)

    def stack(self, shape):
        values = np.broadcast_to(self.SPECTRUM, shape + (8,)).copy()
        vectors = np.broadcast_to(self.VECTORS, shape + (8, 8))
        return values, vectors

    def test_qfi_not_psd(self):
        values, vectors = self.stack((2, 3))
        values[1, 2, 0] = -1e-9
        with pytest.raises(NotPSDError, match=r"^element \(1, 2\): state eigenvalue -1\.000e-09"):
            qfi_from_spectrum(values, vectors, vectors)
        with pytest.raises(NotPSDError, match=r"^state eigenvalue -1\.000e-09 below -1e-12$"):
            qfi_from_spectrum(values[1, 2], vectors[1, 2], vectors[1, 2])

    def test_qfi_trace(self):
        values, vectors = self.stack((5,))
        values[4] *= 1.1
        with pytest.raises(TraceViolationError, match=r"^element 4: state trace"):
            qfi_from_spectrum(values, vectors, vectors)
        with pytest.raises(TraceViolationError, match=r"^state trace 1\.1 differs from 1$"):
            qfi_from_spectrum(values[4], vectors[4], vectors[4])

    def test_sqrt_not_psd(self):
        values, vectors = self.stack((4,))
        values[3, 0] = -1e-9
        with pytest.raises(NotPSDError, match=r"^element 3: eigenvalue -1\.000e-09"):
            sqrt_from_spectrum(values, vectors)
        with pytest.raises(NotPSDError, match=r"^eigenvalue -1\.000e-09 below -1e-12$"):
            sqrt_from_spectrum(values[3], vectors[3])
        with pytest.raises(NotPSDError, match=r"^element 3: eigenvalue"):
            skew_from_spectra(self.stack((4,)), (values, vectors), np.full(4, 1e-6))

    def test_column_names_probe_and_point(self):
        states = np.broadcast_to(np.eye(8, dtype=complex) / 8.0, (3, 4, 8, 8)).copy()
        drho = np.zeros((8, 8), dtype=complex)
        states[2, 1] = np.diag([0.25, 0.25, 0.25, 0.25 + 1e-9, -1e-9, 0.0, 0.0, 0.0])
        with pytest.raises(NotPSDError, match=r"^element \(2, 1\): state eigenvalue -1\.000e-09"):
            oracle_column(states, drho, [1e-6] * 4)
        states[2, 1] = np.eye(8) / 8.0
        states[0, 3] *= 1.1
        with pytest.raises(TraceViolationError, match=r"^element \(0, 3\): state trace"):
            oracle_column(states, drho, [1e-6] * 4)


@pytest.mark.parametrize("fd_step", [1e-6, 1e-3])
def test_tangent_step_is_the_probe_step(monkeypatch, fd_step):
    # The central-difference tangent and the skew probes read the same two
    # states: both take linalg.diff_step, so one constant moves both.
    monkeypatch.setattr(linalg, "FD_STEP", fd_step)
    fixed = XState(np.full(8, 1.0 / 8.0), np.zeros(4, dtype=complex))
    for phi in (0.0, 0.4, -0.7, 2.5, -31.0):
        calls = []

        def state(x):
            calls.append(x)
            return fixed

        family = ParamFamily(state=state)
        family.tangent_at(phi)
        tangent_points = sorted(calls)
        calls.clear()
        skew_sqrt_oracle(family, phi)
        h = fd_step * max(1.0, abs(phi))
        assert tangent_points == sorted(calls) == [phi - h, phi + h]
