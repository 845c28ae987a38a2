"""Block-level and total Fisher information, skew information, concurrence."""

import numpy as np
import pytest

from xqmetro.errors import NotXFormError, SingularBlockError
from xqmetro.linalg import psd_sqrt
from xqmetro.metrics import (
    ParamFamily,
    block_matrix,
    concurrence_ghz_class,
    qfi_block_mixed,
    qfi_total,
    random_family,
    skew_block,
    skew_total,
    sld_block,
)
from xqmetro.oracle import family_oracles
from xqmetro.xstate import XState, XTangent


def random_mixed_block(rng):
    """Sub-normalized full-rank 2x2 block in Bloch form plus a tangent."""
    w0 = rng.uniform(0.2, 0.9)
    vec = rng.normal(size=3)
    vec *= rng.uniform(0.1, 0.8) * w0 / np.linalg.norm(vec)
    dw = rng.normal(size=4) * 0.3
    return np.concatenate(([w0], vec)), dw


def diagonal_line_family(d0, d1):
    d0 = np.asarray(d0, dtype=float)
    d1 = np.asarray(d1, dtype=float)

    def state(phi):
        return XState((1.0 - phi) * d0 + phi * d1, np.zeros(4, dtype=complex))

    def tangent(phi):
        return XTangent(d1 - d0, np.zeros(4, dtype=complex))

    return ParamFamily(state=state, tangent=tangent)


class TestBlockQfi:
    def test_matches_spectral_route(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            w, dw = random_mixed_block(rng)
            closed = qfi_block_mixed(w, dw)
            values, vectors = np.linalg.eigh(block_matrix(w))
            overlap = vectors.conj().T @ block_matrix(dw) @ vectors
            spectral = sum(
                2.0 * abs(overlap[i, j]) ** 2 / (values[i] + values[j])
                for i in range(2)
                for j in range(2)
                if values[i] + values[j] > 1e-12
            )
            assert abs(closed - spectral) < 1e-10

    def test_diagonal_block_classical(self):
        w = np.array([0.5, 0.0, 0.0, 0.2])
        dw = np.array([0.1, 0.0, 0.0, 0.3])
        # eigenvalues (w0 +- w3)/2 move at (dw0 +- dw3)/2
        lam = np.array([0.35, 0.15])
        dlam = np.array([0.2, -0.1])
        classical = float(np.sum(dlam**2 / lam))
        assert abs(qfi_block_mixed(w, dw) - classical) < 1e-12

    def test_singular_weight_raises(self):
        with pytest.raises(SingularBlockError):
            qfi_block_mixed(np.array([0.0, 0.0, 0.0, 0.0]), np.ones(4))

    def test_pure_block_raises_in_mixed_form(self):
        with pytest.raises(SingularBlockError):
            qfi_block_mixed(np.array([0.5, 0.5, 0.0, 0.0]), np.ones(4))


class TestSld:
    def test_defining_equation_residual(self):
        rng = np.random.default_rng(62)
        for _ in range(50):
            w, dw = random_mixed_block(rng)
            sld = sld_block(w, dw)
            block = block_matrix(w)
            dblock = block_matrix(dw)
            residual = 2.0 * dblock - (sld @ block + block @ sld)
            assert np.abs(residual).max() < 1e-10

    def test_qfi_is_sld_second_moment(self):
        rng = np.random.default_rng(63)
        for _ in range(50):
            w, dw = random_mixed_block(rng)
            sld = sld_block(w, dw)
            block = block_matrix(w)
            moment = float(np.real(np.trace(block @ sld @ sld)))
            assert abs(qfi_block_mixed(w, dw) - moment) < 1e-10

    def test_sld_hermitian(self):
        rng = np.random.default_rng(64)
        w, dw = random_mixed_block(rng)
        sld = sld_block(w, dw)
        assert np.abs(sld - sld.conj().T).max() < 1e-12


class TestBlockSkew:
    def test_matches_sqrt_derivative(self):
        rng = np.random.default_rng(65)
        for _ in range(60):
            w, dw = random_mixed_block(rng)
            analytic = skew_block(w, dw)
            h = 1e-6
            left = psd_sqrt(block_matrix(w - h * dw))
            right = psd_sqrt(block_matrix(w + h * dw))
            droot = (right - left) / (2.0 * h)
            numeric = 4.0 * float(np.real(np.trace(droot @ droot)))
            assert abs(analytic - numeric) / max(numeric, 1e-9) < 1e-5

    def test_diagonal_block_classical(self):
        w = np.array([0.5, 0.0, 0.0, 0.2])
        dw = np.array([0.1, 0.0, 0.0, 0.3])
        lam = np.array([0.35, 0.15])
        dlam = np.array([0.2, -0.1])
        classical = float(np.sum(dlam**2 / lam))
        assert abs(skew_block(w, dw) - classical) < 1e-12


class TestTotals:
    def test_classical_family_sum_rule(self):
        d0 = np.array([0.30, 0.05, 0.10, 0.02, 0.08, 0.15, 0.20, 0.10])
        d1 = np.array([0.10, 0.15, 0.05, 0.12, 0.18, 0.05, 0.10, 0.25])
        family = diagonal_line_family(d0, d1)
        phi = 0.4
        d = family.state(phi).diag
        slope = d1 - d0
        classical = float(np.sum(slope**2 / d))
        assert abs(qfi_total(family, phi) - classical) < 1e-12
        assert abs(skew_total(family, phi) - classical) < 1e-12

    def test_zero_tangent_zero_information(self):
        d0 = np.full(8, 1.0 / 8.0)
        family = diagonal_line_family(d0, d0)
        assert qfi_total(family, 0.5) == 0.0
        assert skew_total(family, 0.5) == 0.0

    def test_finite_difference_fallback_matches_analytic(self):
        rng = np.random.default_rng(66)
        family = random_family(rng)
        fd_family = ParamFamily(state=family.state)  # drop the analytic tangent
        phi = 0.37
        assert abs(qfi_total(family, phi) - qfi_total(fd_family, phi)) < 1e-4
        assert abs(skew_total(family, phi) - skew_total(fd_family, phi)) < 1e-4

    def test_global_phase_rotation_invariance(self):
        rng = np.random.default_rng(67)
        base = random_family(rng)
        shift = np.exp(1j * np.array([0.3, -1.1, 2.2, 0.7]))

        def rotated_state(phi):
            s = base.state(phi)
            return XState(s.diag, s.anti * shift)

        def rotated_tangent(phi):
            t = base.tangent(phi)
            return XTangent(t.diag, t.anti * shift)

        rotated = ParamFamily(state=rotated_state, tangent=rotated_tangent)
        phi = 0.6
        assert abs(qfi_total(base, phi) - qfi_total(rotated, phi)) < 1e-10
        assert abs(skew_total(base, phi) - skew_total(rotated, phi)) < 1e-10

    def test_nonnegative_on_random_families(self):
        rng = np.random.default_rng(68)
        for _ in range(20):
            family = random_family(rng)
            phi = float(rng.uniform(0.1, 0.9))
            assert qfi_total(family, phi) >= 0.0
            assert skew_total(family, phi) >= 0.0

    def test_skew_sandwiched_by_qfi(self):
        # Divided differences give F <= 4 Tr((d sqrt(rho))^2) <= 2F, with the
        # lower bound tight exactly for commuting families.
        rng = np.random.default_rng(69)
        for _ in range(30):
            family = random_family(rng)
            phi = float(rng.uniform(0.1, 0.9))
            fisher = qfi_total(family, phi)
            skew = skew_total(family, phi)
            assert fisher - 1e-9 <= skew <= 2.0 * fisher + 1e-9


def with_tangent_entry(family, field, k, value):
    """``family`` whose analytic tangent has entry ``field[k]`` replaced by ``value``."""

    def tangent(phi):
        exact = family.tangent(phi)
        parts = {"diag": exact.diag.copy(), "anti": exact.anti.copy()}
        parts[field][k] = value
        return XTangent(parts["diag"], parts["anti"])

    return ParamFamily(state=family.state, tangent=tangent)


class TestNonFiniteTangent:
    # An infinite entry meets inf - inf in the closed forms: no warning precedes the error.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("total", [qfi_total, skew_total])
    @pytest.mark.parametrize("field", ["diag", "anti"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_raises_naming_entry_and_phi(self, total, field, value):
        family = with_tangent_entry(random_family(np.random.default_rng(70)), field, 3, value)
        text = str(value) if field == "diag" else str(complex(value, 0.0))
        with pytest.raises(NotXFormError) as err:
            total(family, 0.5)
        assert str(err.value) == f"at phi=0.5: tangent {field}[3] is {text}, not finite"

    @pytest.mark.parametrize("total", [qfi_total, skew_total])
    def test_rank_deficient_block_raises(self, total):
        # Population 1 is zero, so block (1, 6) takes the rank-aware route.
        d0 = np.array([0.30, 0.0, 0.10, 0.02, 0.08, 0.15, 0.25, 0.10])
        d1 = np.array([0.10, 0.0, 0.05, 0.12, 0.18, 0.05, 0.25, 0.25])
        family = with_tangent_entry(diagonal_line_family(d0, d1), "diag", 6, np.nan)
        with pytest.raises(NotXFormError, match=r"tangent diag\[6\] is nan"):
            total(family, 0.4)

    def test_finite_tangent_unchanged(self):
        family = random_family(np.random.default_rng(70))
        same = with_tangent_entry(family, "diag", 3, family.tangent(0.5).diag[3])
        assert qfi_total(same, 0.5) == qfi_total(family, 0.5)
        assert skew_total(same, 0.5) == skew_total(family, 0.5)


class TestTangentShape:
    # numpy broadcasting raised ValueError on most of these and silently
    # broadcast a 0-d diag; the analytic branch now names both shapes.
    @pytest.mark.parametrize("total", [qfi_total, skew_total, "oracles"])
    @pytest.mark.parametrize(
        "diag, anti",
        [((7,), (4,)), ((8,), (3,)), ((), (4,)), ((2, 8), (4,)), ((8,), (2, 4))],
    )
    def test_wrong_shape_raises_naming_both(self, total, diag, anti):
        family = random_family(np.random.default_rng(71))
        broken = ParamFamily(
            state=family.state,
            tangent=lambda phi: XTangent(np.zeros(diag), np.zeros(anti, dtype=complex)),
        )
        expected = f"at phi=0.5: tangent diag shape {diag} and anti shape {anti}, expected"
        with pytest.raises(NotXFormError) as err:
            if total == "oracles":
                family_oracles([(broken, 0.5)])
            else:
                total(broken, 0.5)
        assert str(err.value) == expected + " (8,) and (4,)"


class TestConcurrence:
    def test_manual_anchor(self):
        diag = np.array([0.3, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05, 0.4])
        anti = np.array([0.25, 0.0, 0.0, 0.0], dtype=complex)
        state = XState(diag, anti)
        expected = 2.0 * (0.25 - 3.0 * 0.05)
        assert abs(concurrence_ghz_class(state) - expected) < 1e-14

    def test_phase_invariance(self):
        diag = np.array([0.3, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05, 0.4])
        for theta in (0.0, 1.0, 2.5, -0.7):
            anti = np.array([0.25 * np.exp(1j * theta), 0.0, 0.0, 0.0])
            value = concurrence_ghz_class(XState(diag, anti))
            assert abs(value - 0.2) < 1e-14

    def test_clamped_at_zero(self):
        state = XState(np.full(8, 1.0 / 8.0), np.zeros(4, dtype=complex))
        assert concurrence_ghz_class(state) == 0.0

    def test_pure_ghz_is_one(self):
        diag = np.zeros(8)
        diag[0] = diag[7] = 0.5
        state = XState(diag, np.array([0.5, 0.0, 0.0, 0.0], dtype=complex))
        assert abs(concurrence_ghz_class(state) - 1.0) < 1e-14

    @pytest.mark.filterwarnings("error")
    def test_population_in_tolerated_negative_band(self):
        # diag[1] * diag[6] = -1e-14 is inside the -1e-12 tolerance XState
        # accepts; its root counts as 0, not as a NaN that clamps the total.
        diag = np.array([0.45, -1e-13, 0.0, 0.0, 0.0, 0.0, 0.1, 0.45 + 1e-13])
        state = XState(diag, np.array([0.4, 0.0, 0.0, 0.0], dtype=complex))
        assert concurrence_ghz_class(state) == 0.8


class TestRandomFamily:
    def test_states_valid_over_parameter_range(self):
        rng = np.random.default_rng(70)
        for _ in range(10):
            family = random_family(rng)
            for phi in np.linspace(0.0, 1.0, 7):
                state = family.state(float(phi))  # constructor validates
                assert abs(state.diag.sum() - 1.0) < 1e-12

    def test_analytic_tangent_matches_finite_difference(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            family = random_family(rng)
            phi = float(rng.uniform(0.2, 0.8))
            analytic = family.tangent_at(phi)
            h = 1e-6
            a, b = family.state(phi - h), family.state(phi + h)
            np.testing.assert_allclose(
                analytic.diag, (b.diag - a.diag) / (2.0 * h), atol=1e-7
            )
            np.testing.assert_allclose(
                analytic.anti, (b.anti - a.anti) / (2.0 * h), atol=1e-7
            )
