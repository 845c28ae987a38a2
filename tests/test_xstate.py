"""X-state representations: compact, dense, correlation tensor, block Bloch."""

import hashlib

import numpy as np
import pytest

from reference import PAULI, SPECIAL_VALUES, bloch_by_assignment
from xqmetro.channels import M_EVEN, M_ODD, Z_EVEN_COUNTS, Z_ODD_COUNTS
from xqmetro.errors import BlockNotPSDError, NotXFormError, TraceViolationError
from xqmetro.ghz import werner_ghz
from xqmetro.xstate import (
    BLOCK_PAIRS,
    XState,
    XTangent,
    bloch_from_compact,
    check_compact,
    compact_from_bloch,
    random_xstate,
    xstate_from_dense,
)

# sha256 over seeds 0-99, ten random_xstate draws per seed: each state's raw
# diag and anti bytes, then the generator's next double.  Taken while
# random_xstate still drew each coherence with two scalar rng.uniform calls.
RANDOM_XSTATE_DIGEST = "9fc16440f0c82e45716034edeacb62de5f9999ca173371df1d787a75b2f08127"

# Sign tables of the tensor -> block-Bloch reduction, derived independently
# from coefficient = Tr((sigma_a x sigma_b x sigma_c) eta)/8 with eta the
# Pauli generator embedded in each anti-diagonal 2x2 block.  Row j = block j,
# column order matches the index patterns listed alongside.
OMEGA0_PATTERNS = ((0, 0, 0), (0, 3, 3), (3, 0, 3), (3, 3, 0))
OMEGA0_SIGNS = ((1, 1, 1, 1), (1, -1, -1, 1), (1, -1, 1, -1), (1, 1, -1, -1))
OMEGA3_PATTERNS = ((0, 0, 3), (0, 3, 0), (3, 0, 0), (3, 3, 3))
OMEGA3_SIGNS = ((1, 1, 1, 1), (-1, 1, 1, -1), (1, -1, 1, -1), (-1, -1, 1, 1))
OMEGA1_PATTERNS = ((1, 1, 1), (1, 2, 2), (2, 1, 2), (2, 2, 1))
OMEGA1_SIGNS = ((1, -1, -1, -1), (1, 1, 1, -1), (1, 1, -1, 1), (1, -1, 1, 1))
OMEGA2_PATTERNS = ((1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 2, 2))
OMEGA2_SIGNS = ((1, 1, 1, -1), (-1, 1, 1, 1), (1, -1, 1, 1), (-1, -1, 1, -1))


# All 64 triple Kronecker products s_a x s_b x s_c, flattened index a*16+b*4+c.
PAULI_TRIPLES = np.stack(
    [
        np.kron(np.kron(PAULI[a], PAULI[b]), PAULI[c])
        for a in range(4)
        for b in range(4)
        for c in range(4)
    ]
)


def correlation_tensor(state):
    """``T[a, b, c] = Tr(rho s_a x s_b x s_c)``, shape (4, 4, 4)."""
    return np.einsum("ij,xji->x", state.to_dense(), PAULI_TRIPLES).real.reshape(4, 4, 4)


class TestXStateConstruction:
    def test_dense_anchors_balanced_mixture(self):
        rho = werner_ghz(0.5).to_dense()
        assert abs(rho[0, 0] - 0.3125) < 1e-15
        assert abs(rho[7, 7] - 0.3125) < 1e-15
        assert abs(rho[0, 7] - 0.25) < 1e-15
        assert abs(rho[1, 1] - 0.0625) < 1e-15
        assert abs(np.trace(rho) - 1.0) < 1e-15

    def test_trace_must_be_one(self):
        with pytest.raises(TraceViolationError):
            XState(np.zeros(8), np.zeros(4, dtype=complex))

    def test_block_positivity_enforced(self):
        diag = np.full(8, 1.0 / 8.0)
        anti = np.array([0.2, 0.0, 0.0, 0.0], dtype=complex)  # 0.2 > 1/8
        with pytest.raises(BlockNotPSDError):
            XState(diag, anti)

    def test_negative_population_rejected(self):
        diag = np.array([-0.1, 0.3, 0.1, 0.1, 0.1, 0.1, 0.2, 0.2])
        with pytest.raises(BlockNotPSDError):
            XState(diag, np.zeros(4, dtype=complex))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["diag", "anti"])
    def test_non_finite_entry_rejected(self, field, value):
        parts = {"diag": np.full(8, 1.0 / 8.0), "anti": np.full(4, 0.05, dtype=complex)}
        parts[field][1] = value
        with pytest.raises(NotXFormError, match=rf"^{field}\[1\] is .*not finite"):
            XState(parts["diag"], parts["anti"])

    @pytest.mark.parametrize(
        "diag, anti, shapes",
        [
            (np.zeros(7), np.zeros(4), "(7,) and (4,)"),
            (np.full(8, 0.125), np.zeros(3), "(8,) and (3,)"),
            (np.zeros((2, 8)), np.zeros((2, 4)), "(2, 8) and (2, 4)"),
        ],
        ids=["short-diag", "short-anti", "stack"],
    )
    def test_wrong_shape_names_both_shapes(self, diag, anti, shapes):
        with pytest.raises(NotXFormError) as err:
            XState(diag, anti)
        assert str(err.value) == f"expected 8 populations and 4 coherences, got shapes {shapes}"

    @pytest.mark.parametrize(
        "imaginary, text", [(0.05j, r"\(0\.125\+0\.05j\)"), (complex(0.0, np.nan), r"\(0\.125\+nanj\)")]
    )
    def test_complex_population_with_an_imaginary_part_is_named(self, imaginary, text):
        # A float cast would drop the imaginary part with only a ComplexWarning.
        diag = np.full(8, 0.125, dtype=complex)
        diag[2] += imaginary
        with pytest.raises(NotXFormError, match=rf"^diag\[2\] is {text}, not real$"):
            XState(diag, np.zeros(4))

    @pytest.mark.parametrize("imaginary", [0.0, -0.0])
    def test_complex_population_with_zero_imaginary_parts_keeps_its_real_bits(self, imaginary):
        state = random_xstate(np.random.default_rng(23))
        diag = state.diag.astype(complex)
        diag.imag[5] = imaginary
        same = XState(diag, state.anti)  # no ComplexWarning: warnings are errors here
        assert same.diag.dtype == np.float64
        assert same.diag.tobytes() == state.diag.tobytes()

    def test_dense_and_compact_constructors_keep_their_two_realness_rules(self):
        # A dense diagonal comes out of arithmetic, so its imaginary part is
        # held to the 1e-10 of the other pattern checks and dropped; compact
        # populations are given entry by entry, so any imaginary part raises.
        diag = np.full(8, 0.125, dtype=complex)
        diag[2] += 1e-12j
        from_dense = xstate_from_dense(np.diag(diag))
        assert from_dense.diag.dtype == np.float64
        assert from_dense.diag.tobytes() == np.full(8, 0.125).tobytes()
        with pytest.raises(NotXFormError, match=r"^diag\[2\] is \(0\.125\+1e-12j\), not real$"):
            XState(diag, np.zeros(4))
        diag[2] = 0.125 + 2e-10j
        beyond = r"^diagonal entry \[2, 2\] has imaginary part 2\.000e-10 beyond 1e-10$"
        with pytest.raises(NotXFormError, match=beyond):
            xstate_from_dense(np.diag(diag))

    def test_dense_roundtrip(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            state = random_xstate(rng)
            back = xstate_from_dense(state.to_dense())
            np.testing.assert_allclose(back.diag, state.diag, atol=1e-13)
            np.testing.assert_allclose(back.anti, state.anti, atol=1e-13)

    def test_dense_rejects_off_pattern_entries(self):
        w = np.zeros((8, 8), dtype=complex)
        for idx in (1, 2, 4):  # single-excitation W-type support
            w[idx, idx] = 1.0 / 3.0
        w[1, 2] = w[2, 1] = 1.0 / 3.0
        with pytest.raises(NotXFormError):
            xstate_from_dense(w)

    @pytest.mark.parametrize(
        "entry, value, message",
        [
            ((0, 1), np.nan, r"^off-pattern entry \[0, 1\] of magnitude nan$"),
            ((5, 3), complex(0, np.inf), r"^off-pattern entry \[5, 3\] of magnitude inf$"),
            ((2, 2), 0.0037 + np.nan * 1j, r"^diagonal entry \[2, 2\] has imaginary part nan"),
        ],
    )
    def test_dense_rejects_non_finite_dropped_entries(self, entry, value, message):
        # The compact form keeps neither entry, so the pattern checks must fail
        # on the NaN itself rather than drop it.
        m = np.eye(8, dtype=complex) / 8.0
        m[entry] = value
        with pytest.raises(NotXFormError, match=message):
            xstate_from_dense(m)

    def test_dense_rejects_conjugate_mismatch(self):
        m = werner_ghz(0.5).to_dense().astype(complex)
        m[0, 7] = 0.25 + 0.1j
        m[7, 0] = 0.25 + 0.1j  # not the conjugate
        with pytest.raises(NotXFormError):
            xstate_from_dense(m)

    def test_random_states_valid_and_seeded(self):
        rng = np.random.default_rng(22)
        states = [random_xstate(rng) for _ in range(50)]
        for state in states:
            assert abs(state.diag.sum() - 1.0) < 1e-12
            for k, (i, j) in enumerate(BLOCK_PAIRS):
                assert state.diag[i] * state.diag[j] - abs(state.anti[k]) ** 2 >= -1e-12
        rng2 = np.random.default_rng(22)
        again = [random_xstate(rng2) for _ in range(50)]
        np.testing.assert_array_equal(states[0].diag, again[0].diag)
        np.testing.assert_array_equal(states[-1].anti, again[-1].anti)

    def test_random_states_keep_the_pinned_bits(self):
        digest = hashlib.sha256()
        for seed in range(100):
            rng = np.random.default_rng(seed)
            for _ in range(10):
                state = random_xstate(rng)
                digest.update(state.diag.tobytes() + state.anti.tobytes())
            digest.update(rng.random(1).tobytes())
        assert digest.hexdigest() == RANDOM_XSTATE_DIGEST


class TestCorrelationTensor:
    def test_ghz_mixture_components(self):
        q = 0.3
        t = correlation_tensor(werner_ghz(q))
        assert abs(t[0, 0, 0] - 1.0) < 1e-14
        for idx in ((0, 3, 3), (3, 0, 3), (3, 3, 0), (1, 1, 1)):
            assert abs(t[idx] - (1.0 - q)) < 1e-14
        for idx in ((1, 2, 2), (2, 1, 2), (2, 2, 1)):
            assert abs(t[idx] + (1.0 - q)) < 1e-14
        for idx in ((3, 3, 3), (3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 0, 0)):
            assert abs(t[idx]) < 1e-14

    def test_expansion_reconstructs_density_matrix(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            state = random_xstate(rng)
            t = correlation_tensor(state).reshape(64)
            rebuilt = np.einsum("x,xij->ij", t, PAULI_TRIPLES) / 8.0
            assert np.abs(rebuilt - state.to_dense()).max() < 1e-12


class TestBlockBloch:
    def test_matches_block_traces(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            state = random_xstate(rng)
            w = bloch_from_compact(state.diag, state.anti)
            dense = state.to_dense()
            for j, pair in enumerate(BLOCK_PAIRS):
                block = dense[np.ix_(pair, pair)]
                for alpha in range(4):
                    expected = np.trace(block @ PAULI[alpha]).real
                    assert abs(w[j, alpha] - expected) < 1e-12

    def test_sign_tables_frozen(self):
        np.testing.assert_array_equal(M_EVEN, OMEGA0_SIGNS)
        np.testing.assert_array_equal(M_ODD, OMEGA3_SIGNS)
        assert Z_EVEN_COUNTS == tuple(pattern.count(3) for pattern in OMEGA0_PATTERNS)
        assert Z_ODD_COUNTS == tuple(pattern.count(3) for pattern in OMEGA3_PATTERNS)
        assert not M_EVEN.flags.writeable and not M_ODD.flags.writeable
        rng = np.random.default_rng(26)
        for _ in range(20):
            state = random_xstate(rng)
            t = correlation_tensor(state)
            w = bloch_from_compact(state.diag, state.anti)
            for alpha, patterns, signs in (
                (0, OMEGA0_PATTERNS, OMEGA0_SIGNS),
                (3, OMEGA3_PATTERNS, OMEGA3_SIGNS),
                (1, OMEGA1_PATTERNS, OMEGA1_SIGNS),
                (2, OMEGA2_PATTERNS, OMEGA2_SIGNS),
            ):
                for j in range(4):
                    combo = sum(
                        sign * t[pat] for sign, pat in zip(signs[j], patterns)
                    ) / 4.0
                    assert abs(w[j, alpha] - combo) < 1e-12

    def test_coherence_mapping(self):
        rng = np.random.default_rng(27)
        state = random_xstate(rng)
        w = bloch_from_compact(state.diag, state.anti)
        for k in range(4):
            assert abs((w[k, 1] - 1j * w[k, 2]) - 2.0 * state.anti[k]) < 1e-13

    def test_compact_bloch_roundtrip(self):
        rng = np.random.default_rng(28)
        for _ in range(20):
            state = random_xstate(rng)
            w = bloch_from_compact(state.diag, state.anti)
            diag, anti = compact_from_bloch(w)
            np.testing.assert_allclose(diag, state.diag, atol=1e-13)
            np.testing.assert_allclose(anti, state.anti, atol=1e-13)

    def test_xstate_bloch_xstate_roundtrip(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            state = random_xstate(rng)
            back = XState(*compact_from_bloch(bloch_from_compact(state.diag, state.anti)))
            np.testing.assert_allclose(back.diag, state.diag, atol=1e-13)
            np.testing.assert_allclose(back.anti, state.anti, atol=1e-13)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            state = random_xstate(rng)
            w = bloch_from_compact(state.diag, state.anti)
            assert abs(w[:, 0].sum() - 1.0) < 1e-12

    # Bloch coordinates are validated through their compact form.
    def test_block_bloch_validates(self):
        w = np.zeros((4, 4))
        w[:, 0] = 0.25
        w[0, 1] = 0.5  # |vec| exceeds w0
        with pytest.raises(BlockNotPSDError):
            check_compact(*compact_from_bloch(w))

    def test_compact_check_accepts_the_bloch_cone(self):
        # w0 >= |(w1, w2, w3)| holds iff both populations are >= 0 and their
        # product is >= |coherence|^2: the compact check accepts exactly the
        # Bloch cone, away from its 1e-12 tolerance band.
        rng = np.random.default_rng(32)
        for _ in range(200):
            weight = (0.1 + rng.dirichlet(np.ones(4))) / 1.4  # every weight >= 1/14
            direction = rng.normal(size=(4, 3))
            direction /= np.linalg.norm(direction, axis=-1, keepdims=True)
            inside = rng.random(4) < 0.8
            ratio = np.where(inside, rng.uniform(0.0, 0.999, 4), rng.uniform(1.001, 1.5, 4))
            w = np.concatenate([weight[:, None], (weight * ratio)[:, None] * direction], axis=1)
            if inside.all():
                check_compact(*compact_from_bloch(w))
            else:
                with pytest.raises(BlockNotPSDError):
                    check_compact(*compact_from_bloch(w))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", [0, 1, 2, 3])
    def test_non_finite_coordinate_rejected(self, column, value):
        w = np.zeros((4, 4))
        w[:, 0] = 0.25
        w[2, column] = value
        name = "diag" if column in (0, 3) else "anti"  # w0 and w3 set populations 2 and 5
        diag, anti = compact_from_bloch(w)
        with pytest.raises(NotXFormError, match=rf"^{name}\[2\] is .*not finite"):
            check_compact(diag, anti)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "column, value, text",
        [(2, np.inf, "-infj"), (2, -np.inf, "infj"), (1, np.inf, "(inf+0j)")],
    )
    def test_infinite_coordinate_is_named_as_infinite(self, column, value, text):
        # The real and imaginary parts of a coherence are set apart, so an
        # infinite w1 or w2 does not come out as (nan+nanj).
        state = werner_ghz(0.3)
        w = bloch_from_compact(state.diag, state.anti)
        w[2, column] = value
        with pytest.raises(NotXFormError) as err:
            check_compact(*compact_from_bloch(w))
        assert str(err.value) == f"anti[2] is {text}, not finite"


def bloch_inputs():
    """``{name: (diag, anti)}``: seeded states, stacks, broadcast and
    strided inputs, and special-value entries in every column."""
    rng = np.random.default_rng(27)
    states = [random_xstate(rng) for _ in range(60)]
    diag = np.array([s.diag for s in states])
    anti = np.array([s.anti for s in states])
    special = rng.choice(SPECIAL_VALUES, size=(3, 400, 12))
    special_anti = np.empty((400, 4), dtype=complex)
    special_anti.real, special_anti.imag = special[1, :, 8:], special[2, :, 8:]
    return {
        "one": (states[0].diag, states[0].anti),
        "stack": (diag, anti),
        "2d-stack": (diag.reshape(5, 12, 8), anti.reshape(5, 12, 4)),
        "broadcast-anti": (diag, anti[0]),
        "strided": (diag[::3], anti[::3]),
        "normal": (rng.normal(size=(7, 8)), rng.normal(size=(7, 4)) + 1j * rng.normal(size=(7, 4))),
        "special": (special[0, :, :8], special_anti),
        "integer-diag": (np.arange(8), np.arange(4) - 2j),
    }


BLOCH_INPUTS = bloch_inputs()


class TestBlochColumnsInPlace:
    """Each Bloch column is one ufunc writing into the output; the bits are
    those of the four temporaries assigned into slices that it replaced."""

    @pytest.mark.parametrize("name", list(BLOCH_INPUTS))
    def test_equals_the_assignment_form_in_raw_bits(self, name):
        diag, anti = BLOCH_INPUTS[name]
        with np.errstate(all="ignore"):
            w = bloch_from_compact(diag, anti)
            expected = bloch_by_assignment(diag, anti)
        assert w.shape == expected.shape
        assert w.dtype == expected.dtype == np.float64
        assert w.tobytes() == expected.tobytes()

    def test_complex_diag_raises_numpys_casting_error(self):
        # The slice assignment warned and kept the real part; the package
        # passes only real diags: _check_tangent converts a complex one's
        # real part, after checking that its imaginary parts are zero.
        tangent = XTangent(np.zeros(8, dtype=complex), np.zeros(4, dtype=complex))
        with pytest.raises(TypeError, match=r"^Cannot cast ufunc 'add' output from dtype\('complex128'\)"):
            bloch_from_compact(*tangent)


class TestXTangent:
    def test_dense_matches_compact_embedding(self):
        ddiag = np.array([-3.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -3.0]) / 8.0
        danti = np.array([-0.5, 0.0, 0.0, 0.0], dtype=complex)
        dense = XTangent(ddiag, danti).to_dense()
        assert abs(np.trace(dense)) < 1e-15
        assert abs(dense[0, 0] + 3.0 / 8.0) < 1e-15
        assert abs(dense[0, 7] + 0.5) < 1e-15
        assert abs(dense[7, 0] + 0.5) < 1e-15
        assert np.abs(dense - dense.conj().T).max() < 1e-15

    def test_bloch_array_linear_in_tangent(self):
        rng = np.random.default_rng(31)
        a = random_xstate(rng)
        b = random_xstate(rng)
        tangent = XTangent(b.diag - a.diag, b.anti - a.anti)
        expected = bloch_from_compact(b.diag, b.anti) - bloch_from_compact(a.diag, a.anti)
        np.testing.assert_allclose(bloch_from_compact(*tangent), expected, atol=1e-13)
