"""Block-level and total Fisher information, skew information, concurrence."""

import hashlib
from typing import NamedTuple

import numpy as np
import pytest

from reference import (
    SPECIAL_VALUES,
    block_matrix,
    family_oracles_at,
    qfi_block_by_gap,
    skew_block_by_gap,
    sld_block,
)
from xqmetro import metrics, xstate
from xqmetro.cli import family_oracle_errors
from xqmetro.errors import NotXFormError, SingularBlockError
from xqmetro.linalg import diff_step, psd_sqrt
from xqmetro.metrics import (
    ParamFamily,
    concurrence_ghz_class,
    evaluate_stack,
    qfi_block_mixed,
    qfi_total,
    random_family,
    skew_block,
    skew_total,
)
from xqmetro.xstate import BLOCK_PAIRS, XState, XTangent, random_xstate


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

    @pytest.mark.parametrize(
        "block, text",
        [
            (qfi_block_mixed, "mixed-block form needs w0 > 0 and w0^2 > |w|^2"),
            (skew_block, "skew closed form needs a strictly mixed block"),
        ],
        ids=["qfi", "skew"],
    )
    def test_singular_block_of_a_stack_is_named(self, block, text):
        w = np.array([[0.5, 0.1, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
        with pytest.raises(SingularBlockError) as stacked:
            block(w, np.ones_like(w))
        assert str(stacked.value) == f"element 1: {text}, got gap 0.000e+00"
        with pytest.raises(SingularBlockError) as alone:
            block(w[1], np.ones(4))
        assert str(alone.value) == f"{text}, got gap 0.000e+00"


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


def closed_form_inputs():
    """``{name: (w, dw)}`` block stacks: seeded mixed blocks, a tangent
    broadcast over a stack axis, blocks whose gap straddles the 1e-10
    switch, special-value entries, and mixed blocks with one of them."""
    rng = np.random.default_rng(76)
    w, dw = map(np.array, zip(*(random_mixed_block(rng) for _ in range(200))))
    weight = rng.uniform(0.1, 0.9, 200)
    gap = 10.0 ** rng.uniform(-11.5, -8.5, 200)
    direction = rng.normal(size=(200, 3))
    direction /= np.linalg.norm(direction, axis=-1, keepdims=True)
    near = np.concatenate([weight[:, None], np.sqrt(weight**2 - gap)[:, None] * direction], -1)
    special = rng.choice(SPECIAL_VALUES, size=(2, 400, 4))
    # One special entry in each mixed block or its tangent.
    spoiled = np.concatenate([w, dw], -1)
    spoiled[np.arange(200), rng.integers(0, 8, 200)] = rng.choice(SPECIAL_VALUES, 200)
    return {
        "mixed": (w, dw),
        "broadcast-tangent": (w.reshape(8, 25, 4), dw[:8, None]),
        "near-switch": (near, dw),
        "special": (special[0], special[1]),
        "one-special-entry": (spoiled[:, :4], spoiled[:, 4:]),
    }


CLOSED_FORM_INPUTS = closed_form_inputs()


def outcome(block, w, dw):
    """``block(w, dw)`` as its type and raw bits, or its error's type and text."""
    with np.errstate(all="ignore"):
        try:
            value = block(w, dw)
        except (NotXFormError, SingularBlockError) as err:
            return type(err), str(err)
    return type(value), np.asarray(value).tobytes()


@pytest.mark.parametrize("name", list(CLOSED_FORM_INPUTS))
@pytest.mark.parametrize(
    "block, reference",
    [(qfi_block_mixed, qfi_block_by_gap), (skew_block, skew_block_by_gap)],
    ids=["qfi", "skew"],
)
def test_closed_forms_equal_the_whole_vector_forms_in_raw_bits(block, reference, name):
    """The closed forms slice each block's 0th coordinate and vector part
    once; the bits and errors are those of contractions that sliced whole
    4-vectors per call: for the stack, each block alone, and the stack of
    the blocks that pass alone."""
    w, dw = CLOSED_FORM_INPUTS[name]
    assert outcome(block, w, dw) == outcome(reference, w, dw)
    dw = np.broadcast_to(dw, w.shape)
    alone = [outcome(block, w[i], dw[i]) for i in np.ndindex(w.shape[:-1])]
    assert alone == [outcome(reference, w[i], dw[i]) for i in np.ndindex(w.shape[:-1])]
    passed = np.array([kind is float for kind, _ in alone]).reshape(w.shape[:-1])
    assert passed.any()
    assert outcome(block, w[passed], dw[passed]) == outcome(reference, w[passed], dw[passed])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("side", ["w", "dw"])
@pytest.mark.parametrize("block", [qfi_block_mixed, skew_block], ids=["qfi", "skew"])
def test_closed_forms_name_a_non_finite_entry(block, side, bad):
    """A NaN/+-inf entry of ``w`` or ``dw`` raises naming it, before any
    arithmetic warns (warnings are errors here), and after its element in a
    stack; the first bad entry of ``w`` is named before any of ``dw``."""
    w, dw = np.array([0.5, 0.1, 0.0, 0.2]), np.array([0.1, 0.0, 0.3, -0.2])
    one = {"w": w.copy(), "dw": dw.copy()}
    one[side][2] = bad
    with pytest.raises(NotXFormError, match=rf"^{side}\[2\] is {bad}, not finite$"):
        block(one["w"], one["dw"])
    stack = {"w": np.stack([w] * 3), "dw": np.stack([dw] * 3)}
    stack[side][1, 3] = bad
    if side == "w":
        stack["dw"][0, 0] = bad  # an earlier element, but dw is read once w is sound
    with pytest.raises(NotXFormError, match=rf"^element 1: {side}\[3\] is {bad}, not finite$"):
        block(stack["w"], stack["dw"])


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
                family_oracles_at([(broken, 0.5)])
            else:
                total(broken, 0.5)
        assert str(err.value) == expected + " (8,) and (4,)"


class UncheckedState(NamedTuple):
    """A state-like object that, unlike :class:`XState`, was never validated:
    the metrics reject it."""

    diag: np.ndarray
    anti: np.ndarray


def rank_one_family(rng):
    """Analytic family whose block 1 keeps |coherence|^2 = population product."""
    d0 = 0.05 + 0.6 * rng.dirichlet(np.ones(8))
    d1 = 0.05 + 0.6 * rng.dirichlet(np.ones(8))
    fraction = np.array([0.4, 1.0, 0.7, 0.2])
    theta, rate = rng.uniform(0.0, 6.0, 4), rng.uniform(-2.0, 2.0, 4)
    rows, cols = [i for i, _ in BLOCK_PAIRS], [j for _, j in BLOCK_PAIRS]

    def parts(phi):
        diag = (1.0 - phi) * d0 + phi * d1
        return diag, diag[rows] * diag[cols], np.exp(1j * (theta + rate * phi))

    def state(phi):
        diag, prod, phase = parts(phi)
        return XState(diag, fraction * np.sqrt(prod) * phase)

    def tangent(phi):
        diag, prod, phase = parts(phi)
        slope = d1 - d0
        dprod = slope[rows] * diag[cols] + diag[rows] * slope[cols]
        radius = fraction * np.sqrt(prod)
        dradius = fraction * dprod / (2.0 * np.sqrt(prod))
        return XTangent(slope, (dradius + 1j * rate * radius) * phase)

    return ParamFamily(state=state, tangent=tangent)


class TestCheckedBoundary:
    """The scalar views check each input once and then enter the kernel's
    core; these pin what that boundary still guarantees."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("total", [qfi_total, skew_total])
    def test_finite_tangent_overflowing_in_bloch_form_is_named(self, total):
        family = random_family(np.random.default_rng(72))

        def tangent(phi):
            diag = family.tangent(phi).diag.copy()
            diag[0] = diag[7] = 1.7e308
            return XTangent(diag, family.tangent(phi).anti)

        with pytest.raises(NotXFormError) as err:
            total(ParamFamily(state=family.state, tangent=tangent), 0.5)
        assert str(err.value) == "at phi=0.5: tangent w[0, 0] is inf, not finite"

    @pytest.mark.filterwarnings("error")  # named before inf - inf warns
    @pytest.mark.parametrize("total", [qfi_total, skew_total])
    def test_infinite_tangent_pair_is_named(self, total):
        family = random_family(np.random.default_rng(72))

        def tangent(phi):
            diag = family.tangent(phi).diag.copy()
            diag[2] = diag[5] = np.inf
            return XTangent(diag, family.tangent(phi).anti)

        with pytest.raises(NotXFormError) as err:
            total(ParamFamily(state=family.state, tangent=tangent), 0.5)
        assert str(err.value) == "at phi=0.5: tangent diag[2] is inf, not finite"

    @pytest.mark.filterwarnings("error")  # named before any ComplexWarning
    @pytest.mark.parametrize("total", [qfi_total, skew_total])
    def test_nan_imaginary_part_of_a_complex_tangent_diag_is_named(self, total):
        # The Bloch form keeps only the real part of the diag, which is finite.
        family = random_family(np.random.default_rng(75))

        def tangent(phi):
            diag = family.tangent(phi).diag.astype(complex)
            diag[4] += complex(0.0, np.nan)
            return XTangent(diag, family.tangent(phi).anti)

        with pytest.raises(NotXFormError, match=r"^at phi=0\.5: tangent diag\[4\] is .*nanj"):
            total(ParamFamily(state=family.state, tangent=tangent), 0.5)

    @pytest.mark.parametrize(
        "form, name",
        [(lambda s: UncheckedState(s.diag, s.anti), "UncheckedState"), (XState.to_dense, "ndarray")],
        ids=["unchecked", "dense"],
    )
    @pytest.mark.parametrize("total", [qfi_total, skew_total])
    def test_family_state_that_is_not_an_xstate_raises(self, total, form, name):
        # A valid state's entries, but not an XState.
        family = random_family(np.random.default_rng(73))
        broken = ParamFamily(state=lambda phi: form(family.state(phi)), tangent=family.tangent)
        with pytest.raises(NotXFormError) as err:
            total(broken, 0.5)
        assert str(err.value) == f"at phi=0.5: expected an XState, got {name}"

    @pytest.mark.parametrize("total", [qfi_total, skew_total])
    def test_difference_probe_that_is_not_an_xstate_raises(self, total):
        # No analytic tangent: the central difference reads the states at
        # phi -+ h, which here are dense matrices; the state at phi is not.
        family = random_family(np.random.default_rng(76))

        def state(phi):
            return family.state(phi) if phi == 0.5 else family.state(phi).to_dense()

        probe = 0.5 + diff_step(0.5)
        with pytest.raises(NotXFormError) as err:
            total(ParamFamily(state=state), 0.5)
        assert str(err.value) == f"at phi={probe!r}: expected an XState, got ndarray"

    def test_difference_builds_each_probe_once_upper_first(self):
        family = random_family(np.random.default_rng(78))
        calls = []

        def state(phi):
            calls.append(phi)
            return family.state(phi)

        ParamFamily(state=state).tangent_at(0.5)
        assert calls == [0.5 + diff_step(0.5), 0.5 - diff_step(0.5)]

    @pytest.mark.parametrize("phi", [np.nan, np.inf])
    def test_difference_at_a_non_finite_phi_finds_its_probes(self, phi):
        # A NaN probe point equals no other float, so the probes are not
        # looked up by their phi; a family that ignores phi has tangent 0.
        state = random_xstate(np.random.default_rng(79))
        tangent = ParamFamily(state=lambda _: state).tangent_at(phi)
        assert not tangent.diag.any() and not tangent.anti.any()

    def test_concurrence_of_a_state_that_is_not_an_xstate_raises(self):
        state = UncheckedState(np.full(8, 1.0 / 8.0), np.zeros(4, dtype=complex))
        with pytest.raises(NotXFormError) as err:
            concurrence_ghz_class(state)
        assert str(err.value) == "expected an XState, got UncheckedState"

    @pytest.mark.parametrize("kind", ["analytic", "no-tangent", "rank-1"])
    def test_scalar_views_are_kernel_elements_in_raw_bits(self, kind):
        rng = np.random.default_rng(74)
        points = []
        for _ in range(12):
            family = rank_one_family(rng) if kind == "rank-1" else random_family(rng)
            if kind == "no-tangent":
                family = ParamFamily(state=family.state)
            points.append((family, float(rng.uniform(0.2, 0.8))))
        states = [family.state(phi) for family, phi in points]
        tangents = [family.tangent_at(phi) for family, phi in points]
        values = evaluate_stack(
            ("qfi", "skew", "concurrence"),
            np.array([s.diag for s in states]),
            np.array([s.anti for s in states]),
            np.array([t.diag for t in tangents]),
            np.array([t.anti for t in tangents]),
        )
        views = {
            "qfi": [qfi_total(family, phi) for family, phi in points],
            "skew": [skew_total(family, phi) for family, phi in points],
            "concurrence": [concurrence_ghz_class(s) for s in states],
        }
        for name, scalars in views.items():
            assert values[name].tobytes() == np.array(scalars).tobytes(), name


class TestScalarPathWork:
    """The work of one analytic :func:`qfi_total` / :func:`skew_total` call
    on a family whose blocks are all mixed: no phi is formatted into an
    error prefix that no error needs."""

    @pytest.mark.parametrize(
        "total, closed_form, gaps",
        [(qfi_total, "qfi_block_mixed", 4), (skew_total, "skew_block", 2)],
        ids=["qfi", "skew"],
    )
    def test_checks_once_converts_twice_and_routes_once(self, total, closed_form, gaps, monkeypatch):
        events = []

        def spy(name, function):
            def spying(*args):
                events.append(name)
                value = function(*args)
                if name == closed_form:
                    events.append(f"end of {name}")
                return value

            return spying

        # XState's check, and the conversions of bloch_at and _check_tangent.
        monkeypatch.setattr(xstate, "check_compact", spy("check_compact", xstate.check_compact))
        bloch = spy("bloch_from_compact", xstate.bloch_from_compact)
        monkeypatch.setattr(xstate, "bloch_from_compact", bloch)
        monkeypatch.setattr(metrics, "bloch_from_compact", bloch)
        monkeypatch.setattr(metrics, "_gap", spy("_gap", metrics._gap))
        monkeypatch.setattr(metrics, closed_form, spy(closed_form, getattr(metrics, closed_form)))
        class Phi(float):
            """A phi that records each time an error prefix formats it."""

            def __repr__(self):
                events.append("repr(phi)")
                return float.__repr__(self)

        family = random_family(np.random.default_rng(77))
        for phi in (0.1, 0.5, 0.9):
            events.clear()
            total(family, Phi(phi))
            # The routing mask's gap(w, w) is made again inside the closed
            # form, which is public and keeps its own check.
            assert events == [
                "check_compact",
                "bloch_from_compact",
                "bloch_from_compact",
                "_gap",
                closed_form,
                *["_gap"] * (gaps - 1),
                f"end of {closed_form}",
            ]


def with_complex_diag(family, k, imaginary):
    """The family with a complex tangent diag: ``imaginary`` added at entry ``k``."""

    def tangent(phi):
        exact = family.tangent(phi)
        diag = exact.diag.astype(complex)
        diag[k] += imaginary
        return XTangent(diag, exact.anti)

    return ParamFamily(state=family.state, tangent=tangent)


COMPLEX_DIAG_ROUTES = {
    "qfi_total": qfi_total,
    "skew_total": skew_total,
    "family_oracles": lambda family, phi: family_oracles_at([(family, phi)]),
    "family_oracle_errors": lambda family, phi: family_oracle_errors([(family, phi)]),
}


class TestComplexTangentDiag:
    """A Hermitian tangent has a real diagonal.  The pipeline and the oracle
    column reject a complex diag with a nonzero imaginary part alike (the
    pipeline's Bloch form used to drop it, while the oracles kept it in a
    non-Hermitian d rho), and take one whose imaginary parts are zero as
    its real part."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("route", COMPLEX_DIAG_ROUTES)
    @pytest.mark.parametrize(
        "seed, k, imaginary, text",
        [(1, 0, 0.3j, r"0\.3j"), (70, 5, -1e-17j, r"\(-0\.19788660607908484-1e-17j\)")],
    )
    def test_nonzero_imaginary_part_raises_on_every_route(self, route, seed, k, imaginary, text):
        family = with_complex_diag(random_family(np.random.default_rng(seed)), k, imaginary)
        # The validate corpus names the point by its index as well as by phi.
        where = "element 0: " if route == "family_oracle_errors" else ""
        message = rf"^{where}at phi=0\.5: tangent diag\[{k}\] is {text}, not real$"
        with pytest.raises(NotXFormError, match=message):
            COMPLEX_DIAG_ROUTES[route](family, 0.5)

    @pytest.mark.filterwarnings("error")  # no ComplexWarning either
    @pytest.mark.parametrize("route", COMPLEX_DIAG_ROUTES)
    @pytest.mark.parametrize("imaginary", [0j, complex(0.0, -0.0)])
    def test_zero_imaginary_part_keeps_the_real_diags_bits(self, route, imaginary):
        family = random_family(np.random.default_rng(70))
        value = COMPLEX_DIAG_ROUTES[route](with_complex_diag(family, 3, imaginary), 0.5)
        expected = COMPLEX_DIAG_ROUTES[route](family, 0.5)
        assert np.array(value).tobytes() == np.array(expected).tobytes()

    def test_real_tangent_is_returned_as_given(self):
        family = random_family(np.random.default_rng(70))
        tangent = family.tangent(0.5)
        same = ParamFamily(state=family.state, tangent=lambda phi: tangent)
        assert same.tangent_at(0.5) is tangent


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


# sha256 over seeds 0-99, ten random_family draws per seed: at each phi of
# PINNED_PHIS, the raw bytes of the family's state and tangent, then the
# generator's next double.  Taken while random_family still read the block
# pairs through index arrays.
PINNED_PHIS = (0.0, 0.3, 0.77, 1.0)
RANDOM_FAMILY_DIGEST = "0afff864f3c8aca264b0619697a6972d797d02b4382376fe6de760c85adb63d8"


class TestRandomFamily:
    def test_families_keep_the_pinned_bits(self):
        digest = hashlib.sha256()
        for seed in range(100):
            rng = np.random.default_rng(seed)
            for _ in range(10):
                family = random_family(rng)
                for phi in PINNED_PHIS:
                    for point in (family.state(phi), family.tangent(phi)):
                        digest.update(point.diag.tobytes() + point.anti.tobytes())
            digest.update(rng.random(1).tobytes())
        assert digest.hexdigest() == RANDOM_FAMILY_DIGEST

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
