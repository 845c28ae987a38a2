"""Brute-force oracles: full-spectrum Fisher information and sqrt-route skew."""

import numpy as np
import pytest

from xqmetro.errors import (
    BadParameterError,
    NotHermitianError,
    NotPSDError,
    TraceViolationError,
    XQMetroError,
)
from xqmetro.metrics import ParamFamily, qfi_total, random_family, skew_total
from xqmetro.oracle import OracleConfig, family_oracles, qfi_eigen_oracle, skew_sqrt_oracle
from xqmetro.xstate import XState, XTangent


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
        with pytest.raises(NotHermitianError, match=r"drho\[0, 7\]") as info:
            qfi_eigen_oracle(np.eye(8, dtype=complex) / 8.0, drho)
        assert isinstance(info.value, XQMetroError)

    def test_rank_deficient_state_skips_null_pairs(self):
        # Support-preserving motion on a rank-2 state: finite answer.
        lam = np.array([0.7, 0.3, 0.0, 0.0])
        dlam = np.array([0.1, -0.1, 0.0, 0.0])
        value = qfi_eigen_oracle(np.diag(lam).astype(complex), np.diag(dlam).astype(complex))
        assert abs(value - (0.01 / 0.7 + 0.01 / 0.3)) < 1e-12


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

    def test_step_override(self):
        rng = np.random.default_rng(84)
        family = random_family(rng)
        coarse = skew_sqrt_oracle(family, 0.5, OracleConfig(fd_step=1e-4))
        fine = skew_sqrt_oracle(family, 0.5, OracleConfig(fd_step=1e-6))
        assert abs(coarse - fine) / max(abs(fine), 1e-9) < 1e-4


class TestOracleConfig:
    def test_defaults(self):
        config = OracleConfig()
        assert config.fd_step == 1e-6
        assert config.rank_cutoff == 1e-12

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_fd_step(self, bad):
        # fd_step = 0 made the skew oracle's central difference 0/0.
        with pytest.raises(BadParameterError, match="fd_step"):
            OracleConfig(fd_step=bad)

    @pytest.mark.parametrize("bad", [-1e-12, float("nan"), float("inf"), -float("inf")])
    def test_rejects_bad_rank_cutoff(self, bad):
        with pytest.raises(BadParameterError, match="rank_cutoff"):
            OracleConfig(rank_cutoff=bad)

    def test_zero_rank_cutoff_accepted(self):
        assert OracleConfig(rank_cutoff=0.0).rank_cutoff == 0.0

    def test_rank_cutoff_controls_null_pairs(self):
        lam = np.array([1.0 - 1e-8, 1e-8])
        dlam = np.array([1.0, -1.0])
        strict = qfi_eigen_oracle(
            np.diag(lam).astype(complex),
            np.diag(dlam).astype(complex),
            OracleConfig(rank_cutoff=1e-6),
        )
        loose = qfi_eigen_oracle(
            np.diag(lam).astype(complex),
            np.diag(dlam).astype(complex),
            OracleConfig(rank_cutoff=1e-12),
        )
        # the tiny-eigenvalue diagonal term 1/1e-8 is excluded by the strict cutoff
        assert loose > strict
        assert abs(strict - (1.0 / (1.0 - 1e-8))) < 1e-6


def _bits(value):
    return np.float64(value).view(np.uint64)


class TestFamilyOracles:
    """The stacked oracle column gives every point what the point gives alone."""

    @pytest.mark.parametrize("config", [OracleConfig(), OracleConfig(fd_step=1e-4)])
    def test_bit_identical_to_per_family_oracles(self, config):
        rng = np.random.default_rng(85)
        points = [(random_family(rng), float(rng.uniform(0.2, 0.8))) for _ in range(40)]
        got = family_oracles(points, config)
        assert len(got) == len(points)
        for (family, phi), (qfi, skew) in zip(points, got):
            rho = family.state(phi).to_dense()
            drho = family.tangent_at(phi).to_dense()
            assert _bits(qfi) == _bits(qfi_eigen_oracle(rho, drho, config))
            assert _bits(skew) == _bits(skew_sqrt_oracle(family, phi, config))

    def test_no_points(self):
        assert family_oracles([]) == []

    def test_non_finite_tangent_named(self):
        rng = np.random.default_rng(86)
        family = random_family(rng)
        broken = ParamFamily(
            state=family.state,
            tangent=lambda phi: XTangent(np.full(8, np.nan), np.zeros(4, dtype=complex)),
        )
        with pytest.raises(NotHermitianError, match=r"drho\[0, 0\]"):
            family_oracles([(family, 0.4), (broken, 0.4)])
