"""Decoherence channels: Kraus route vs closed-form block-Bloch route."""

import functools
import math
import tracemalloc

import numpy as np
import pytest

from xqmetro import channels, cli, ghz
from xqmetro.channels import (
    KRAUS_CHUNK,
    ChannelKind,
    ChannelParam,
    apply_kraus_dense,
    bloch_damping_factors,
    damped_bloch_array,
    kraus_operators,
)
from xqmetro.errors import BadParameterError, BadProbabilityError, NotXFormError
from xqmetro.ghz import werner_ghz
from reference import apply_channel_compact, apply_kraus
from xqmetro.xstate import (
    XState,
    bloch_from_compact,
    check_compact,
    compact_from_bloch,
    compact_from_dense,
    random_xstate,
)

ALL_KINDS = tuple(ChannelKind)
P_GRID = tuple(float(p) for p in np.linspace(0.0, 1.0, 11))


class TestChannelParam:
    def test_survival_and_kraus_weight(self):
        param = ChannelParam(0.4)
        assert abs(param.survival - 0.6) < 1e-15
        assert abs(param.p_prime - 0.3) < 1e-15

    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(BadProbabilityError):
            ChannelParam(bad)

    def test_numpy_p_named_as_a_float(self):
        with pytest.raises(BadProbabilityError) as err:
            ChannelParam(np.float64(1.2))
        assert str(err.value) == "p must lie in [0, 1], got 1.2"

    def test_unknown_label_rejected(self):
        with pytest.raises(BadParameterError):
            ChannelKind.from_label("amplitude")

    def test_labels_roundtrip(self):
        for kind in ALL_KINDS:
            assert ChannelKind.from_label(kind.value) is kind


class TestKrausOperators:
    def test_completeness_all_channels(self):
        for kind in ALL_KINDS:
            for p in P_GRID:
                ops = kraus_operators(kind, ChannelParam(p))
                total = sum(op.conj().T @ op for op in ops)
                assert np.abs(total - np.eye(2)).max() <= 1e-14

    def test_phase_damping_operator_count_and_shape(self):
        ops = kraus_operators(ChannelKind.PHASE_DAMPING, ChannelParam(0.3))
        assert len(ops) == 3
        np.testing.assert_allclose(ops[0], np.sqrt(0.7) * np.eye(2), atol=1e-15)
        np.testing.assert_allclose(ops[1], np.sqrt(0.3) * np.diag([1.0, 0.0]), atol=1e-15)
        np.testing.assert_allclose(ops[2], np.sqrt(0.3) * np.diag([0.0, 1.0]), atol=1e-15)

    def test_depolarizing_weights(self):
        p = 0.4
        ops = kraus_operators(ChannelKind.DEPOLARIZING, ChannelParam(p))
        assert len(ops) == 4
        np.testing.assert_allclose(ops[0], np.sqrt(1.0 - 0.3) * np.eye(2), atol=1e-15)
        for op in ops[1:]:
            assert abs(np.abs(op).max() - np.sqrt(0.1)) < 1e-15

    def test_phase_flip_operators(self):
        p = 0.25
        ops = kraus_operators(ChannelKind.PHASE_FLIP, ChannelParam(p))
        assert len(ops) == 2
        np.testing.assert_allclose(ops[0], np.sqrt(0.75) * np.eye(2), atol=1e-15)
        np.testing.assert_allclose(ops[1], np.sqrt(0.25) * np.diag([1.0, -1.0]), atol=1e-15)


class TestChannelAction:
    def test_identity_at_zero_noise(self):
        rng = np.random.default_rng(41)
        state = random_xstate(rng)
        for kind in ALL_KINDS:
            out = apply_kraus(state, kind, ChannelParam(0.0))
            np.testing.assert_allclose(out.diag, state.diag, atol=1e-14)
            np.testing.assert_allclose(out.anti, state.anti, atol=1e-14)

    def test_depolarizing_full_strength_maximally_mixed(self):
        rng = np.random.default_rng(42)
        state = random_xstate(rng)
        out = apply_kraus(state, ChannelKind.DEPOLARIZING, ChannelParam(1.0))
        np.testing.assert_allclose(out.to_dense(), np.eye(8) / 8.0, atol=1e-13)

    def test_phase_damping_coherence_cubed_populations_fixed(self):
        rng = np.random.default_rng(43)
        state = random_xstate(rng)
        p = 0.35
        out = apply_kraus(state, ChannelKind.PHASE_DAMPING, ChannelParam(p))
        s = 1.0 - p
        np.testing.assert_allclose(out.diag, state.diag, atol=1e-14)
        np.testing.assert_allclose(out.anti, state.anti * s**3, atol=1e-14)

    def test_phase_flip_coherence_factor(self):
        rng = np.random.default_rng(44)
        state = random_xstate(rng)
        for p in (0.2, 0.5, 0.8):
            out = apply_kraus(state, ChannelKind.PHASE_FLIP, ChannelParam(p))
            g = 1.0 - 2.0 * p
            np.testing.assert_allclose(out.diag, state.diag, atol=1e-14)
            np.testing.assert_allclose(out.anti, state.anti * g**3, atol=1e-14)

    def test_trace_preserved(self):
        rng = np.random.default_rng(45)
        state = random_xstate(rng)
        for kind in ALL_KINDS:
            for p in P_GRID:
                out = apply_kraus_dense(state.to_dense(), kind, ChannelParam(p))
                assert abs(np.trace(out) - 1.0) < 1e-13


@functools.lru_cache(maxsize=None)
def _triple_operators(kind, p):
    ops = kraus_operators(kind, ChannelParam(p))
    return np.stack([np.kron(np.kron(a, b), c) for a in ops for b in ops for c in ops])


def _kraus_alone(matrix, kind, param):
    """One matrix conjugated on its own: the per-matrix route the stack replaced."""
    kr = _triple_operators(kind, param.p)
    return np.einsum("kij,kmj->im", kr @ matrix, kr.conj())


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint64), np.ascontiguousarray(b).view(np.uint64)
    )


# p = 0 (the depolarizing channel's second column table), interior p, a
# repeated p and p = 1, with each table's parameters interleaved.
MIXED_P = (0.3, 0.0, 0.7, 0.3, 1.0)


class TestStackedKraus:
    """A stack gives every matrix exactly what the matrix gives alone, and a
    parameter sequence every parameter what it gives alone."""

    @pytest.mark.parametrize("size", [1, KRAUS_CHUNK - 1, KRAUS_CHUNK, KRAUS_CHUNK + 1])
    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_stack_matches_each_matrix_alone(self, kind, p, size):
        rng = np.random.default_rng(48)
        dense = np.stack([random_xstate(rng).to_dense() for _ in range(size)])
        param = ChannelParam(p)
        expected = np.stack([_kraus_alone(m, kind, param) for m in dense])
        assert _same_bits(apply_kraus_dense(dense, kind, param), expected)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_leading_axes_and_general_matrices(self, kind):
        # The single-product argument holds for any matrix, not only X states.
        rng = np.random.default_rng(49)
        dense = rng.normal(size=(2, 3, 8, 8)) + 1j * rng.normal(size=(2, 3, 8, 8))
        param = ChannelParam(0.3)
        got = apply_kraus_dense(dense, kind, param)
        assert got.shape == (2, 3, 8, 8)
        for index in np.ndindex(2, 3):
            assert _same_bits(got[index], _kraus_alone(dense[index], kind, param))
        assert _same_bits(apply_kraus_dense(dense[1, 2], kind, param), got[1, 2])

    @pytest.mark.parametrize("size", [1, KRAUS_CHUNK - 1, KRAUS_CHUNK, KRAUS_CHUNK + 1])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_sequence_matches_each_parameter_alone(self, kind, size):
        rng = np.random.default_rng(50)
        dense = np.stack([random_xstate(rng).to_dense() for _ in range(size)])
        params = [ChannelParam(p) for p in MIXED_P]
        got = apply_kraus_dense(dense, kind, params)
        assert got.shape == (len(params),) + dense.shape
        for image, param in zip(got, params):
            assert _same_bits(image, apply_kraus_dense(dense, kind, param)), param.p

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_sequence_on_general_matrices(self, kind):
        rng = np.random.default_rng(51)
        dense = rng.normal(size=(2, 3, 8, 8)) + 1j * rng.normal(size=(2, 3, 8, 8))
        params = tuple(ChannelParam(p) for p in MIXED_P)
        got = apply_kraus_dense(dense, kind, params)
        assert got.shape == (len(params), 2, 3, 8, 8)
        for image, param in zip(got, params):
            assert _same_bits(image, apply_kraus_dense(dense, kind, param)), param.p

    @pytest.mark.parametrize("shape", [(8, 8), (3, 8, 8), (0, 8, 8)])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_empty_sequence(self, kind, shape):
        matrix = np.zeros(shape, dtype=complex)
        assert apply_kraus_dense(matrix, kind, []).shape == (0,) + shape
        assert apply_kraus_dense(matrix, kind, ()).shape == (0,) + shape

    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_non_finite_entry_is_reported_downstream(self, kind, p):
        # Each operator reads one input entry per output entry, and a zero
        # row reads its own entry, so a NaN anywhere stays in the image and
        # the stacked X-pattern check names its element, alone or in a
        # parameter sequence.
        param = ChannelParam(p)
        params = [ChannelParam(0.5), param]
        for row in range(8):
            for col in range(8):
                stack = np.stack([np.eye(8, dtype=complex) / 8.0] * 3)
                stack[1, row, col] = np.nan
                images = apply_kraus_dense(stack, kind, param)
                with pytest.raises(NotXFormError, match=r"^element 1: "):
                    compact_from_dense(images)
                sequence = apply_kraus_dense(stack, kind, params)
                assert _same_bits(sequence[1], images)
                for image in sequence:
                    with pytest.raises(NotXFormError, match=r"^element 1: "):
                        compact_from_dense(image)

    def test_working_set_stays_one_chunk(self):
        # The 108-state depolarizing corpus of validate --grid 9 at its 11 p
        # values; X states leave 16 of the 64 output entries live.  Bound:
        # the output, two (64, 16) value tables per p and a live index table
        # per column table, one chunk's gather and one p's terms, plus
        # 256 KiB of slack for numpy's 8,192-element ufunc buffer (128 KiB
        # complex), the tables' temporaries (a full (64, 64) index table
        # among them), the chunk's sums and small objects:
        # 1,216,512 + 376,832 + 524,288 + 262,144 bytes = 2,379,776.
        # Computing all 64 entries 4 matrices at a time peaked at 3,399,891;
        # holding every chunk's gather instead takes 1,769,472 for the gather
        # alone.
        kind = ChannelKind.DEPOLARIZING
        rng = np.random.default_rng(1)
        dense = np.stack([random_xstate(rng).to_dense() for _ in range(108)])
        params = [ChannelParam(p) for p in P_GRID]
        for param in params:
            channels._triple_kraus(kind, param.p)
        m3, width, n = 64, 16, len(dense)
        output = len(params) * n * 64 * 16
        tables = len(params) * 2 * m3 * width * 16 + 2 * m3 * width * 8
        chunk = 2 * KRAUS_CHUNK * m3 * width * 16
        bound = output + tables + chunk + 256 * 1024
        assert bound == 2_379_776
        tracemalloc.start()
        try:
            images = apply_kraus_dense(dense, kind, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert images.nbytes == output
        assert peak <= bound, peak

    def test_channel_suite_holds_one_channels_images(self):
        # The channel suite of validate --grid 9 --seed 1: 108 states at 11 p
        # values.  Bound: the one-chunk Kraus pass above (2,379,776 bytes,
        # its output included), the corpus' dense and Bloch stacks, and the
        # Bloch route's images with their compact forms, plus 64 KiB of slack
        # for the corpus' compact stacks, the checks' temporaries and small
        # objects: 2,379,776 + 124,416 + 304,128 + 65,536 = 2,873,856.
        # Computing all 64 Kraus entries peaked at 3,957,459, and holding the
        # previous channel's Kraus images through the next channel's pass on
        # top of that at 5,174,267.
        rng = np.random.default_rng(1)
        states = [random_xstate(rng) for _ in range(108)]
        for kind in ALL_KINDS:
            for p in P_GRID:
                channels._triple_kraus(kind, p)
        n, m = len(states), len(P_GRID)
        corpus = n * 64 * 16 + n * 16 * 8
        bloch_route = m * n * (16 * 8 + 8 * 8 + 4 * 16)
        bound = 2_379_776 + corpus + bloch_route + 64 * 1024
        assert bound == 2_873_856
        tracemalloc.start()
        try:
            cli.channel_route_errors(states, list(P_GRID))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound, peak


# Flat positions of the X pattern: the diagonal and the anti-diagonal.
X_PATTERN = np.array([r == s or r + s == 7 for r in range(8) for s in range(8)])


class TestLiveEntries:
    """The Kraus route computes only the image entries its input can reach:
    a route that drops a reachable entry fails these."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_mixed_stack_keeps_every_elements_bits(self, kind):
        # A general matrix makes every entry reachable for the whole stack,
        # and the X state with a NaN off the pattern reaches the entries that
        # read it; the X states on either side keep the bits they have alone.
        rng = np.random.default_rng(52)
        states = [random_xstate(rng).to_dense() for _ in range(KRAUS_CHUNK + 2)]
        general = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        poisoned = random_xstate(rng).to_dense()
        row, col = 2, 3
        poisoned[row, col] = np.nan
        stack = np.stack(states[:2] + [general, poisoned] + states[2:])
        cleaned = poisoned.copy()
        cleaned[row, col] = 0.0
        params = [ChannelParam(p) for p in MIXED_P]
        sequence = apply_kraus_dense(stack, kind, params)
        for param, in_sequence in zip(params, sequence):
            image = apply_kraus_dense(stack, kind, param)
            assert _same_bits(in_sequence, image), param.p
            for k, matrix in enumerate(stack):
                if k == 3:
                    continue
                assert _same_bits(image[k], _kraus_alone(matrix, kind, param)), (param.p, k)
            # The poisoned element: NaN exactly where some operator reads the
            # NaN, elsewhere the bits of its clean twin.
            cols, _ = channels._triple_kraus(kind, param.p)
            reads = ((cols[:, :, None] == row) & (cols[:, None, :] == col)).any(axis=0)
            assert (np.isnan(image[3]) == reads).all(), param.p
            clean = _kraus_alone(cleaned, kind, param)
            assert _same_bits(image[3][~reads], clean[~reads]), param.p
            assert _same_bits(apply_kraus_dense(poisoned, kind, param), image[3]), param.p

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_off_pattern_entries_are_positive_zero(self, kind):
        # On X states, every entry off the pattern is exactly +0.0 in raw
        # bits, real and imaginary part, and every entry on it is what the
        # matrix gives alone.
        rng = np.random.default_rng(53)
        dense = np.stack([random_xstate(rng).to_dense() for _ in range(KRAUS_CHUNK + 1)])
        params = [ChannelParam(p) for p in P_GRID]
        images = apply_kraus_dense(dense, kind, params)
        bits = images.reshape(len(params), len(dense), 64).view(np.uint64)
        assert not bits[:, :, np.repeat(~X_PATTERN, 2)].any()
        for image, param in zip(images, params):
            alone = np.stack([_kraus_alone(m, kind, param) for m in dense])
            assert _same_bits(image, alone), param.p

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_one_nonzero_entry_anywhere(self, kind):
        # The narrowest inputs: each of the 64 entries alone, one reachable
        # set each; the corners (0, 0) and (7, 7) keep every pass two
        # entries wide, where numpy's sum runs in operator order.
        rng = np.random.default_rng(54)
        values = rng.normal(size=64) + 1j * rng.normal(size=64)
        for param in (ChannelParam(0.0), ChannelParam(0.3), ChannelParam(1.0)):
            for entry in range(64):
                matrix = np.zeros(64, dtype=complex)
                matrix[entry] = values[entry]
                matrix = matrix.reshape(8, 8)
                got = apply_kraus_dense(matrix, kind, param)
                assert _same_bits(got, _kraus_alone(matrix, kind, param)), (param.p, entry)


class TestValidateTraffic:
    """Every stack ``validate --grid 9 --seed 1`` sends through the Kraus
    route, held to each matrix alone in raw bits."""

    @staticmethod
    def checked_kraus(seen):
        def checked(stack, kind, params):
            images = apply_kraus_dense(stack, kind, params)
            assert images.shape == (len(params),) + stack.shape
            for image, param in zip(images, params):
                alone = [_kraus_alone(m, kind, param) for m in stack.reshape((-1, 8, 8))]
                assert _same_bits(image, np.reshape(alone, image.shape)), (kind, param.p)
                seen.append((kind, param.p))
            return images

        return checked

    def test_channel_equivalence_corpus(self, monkeypatch):
        rng = np.random.default_rng(1)
        states = [random_xstate(rng) for _ in range(108)]
        p_values = np.linspace(0.0, 1.0, 11).tolist()
        seen = []
        monkeypatch.setattr(cli, "apply_kraus_dense", self.checked_kraus(seen))
        cli.channel_route_errors(states, p_values)
        assert seen == [(kind, p) for kind in ALL_KINDS for p in p_values]

    def test_kraus_image_diagonals_are_exactly_real(self, monkeypatch):
        # validate never leans on compact_from_dense's 1e-10 allowance for an
        # imaginary population: all 4,404 Kraus images of --grid 9 --seed 1
        # (channel suite and crosscheck grids, d rho included) have diagonals
        # whose imaginary parts are zero.
        diagonals = []

        def recorded(stack, kind, params):
            images = apply_kraus_dense(stack, kind, params)
            diagonals.append(np.diagonal(images, axis1=-2, axis2=-1).reshape(-1, 8))
            return images

        monkeypatch.setattr(cli, "apply_kraus_dense", recorded)
        monkeypatch.setattr(ghz, "apply_kraus_dense", recorded)
        cli.run_validation(9, 1)
        diagonals = np.concatenate(diagonals)
        assert len(diagonals) == 4_404
        assert (diagonals.imag == 0.0).all()

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_crosscheck_grid_p_axis(self, monkeypatch, kind):
        q_values, p_values = cli._grid_axes(9)
        seen = []
        monkeypatch.setattr(ghz, "apply_kraus_dense", self.checked_kraus(seen))
        ghz.crosscheck_grid(kind, q_values, p_values)
        assert seen == [(kind, p) for p in p_values]


class TestTripleKrausCache:
    def test_cache_info_counts_hits_and_misses(self):
        # perfbench reads these counters for its lookup and hit-ratio metrics.
        param = ChannelParam(math.pi / 10.0)  # a p no other test uses
        dense = np.eye(8, dtype=complex) / 8.0
        before = channels._triple_kraus.cache_info()
        apply_kraus_dense(dense, ChannelKind.DEPOLARIZING, param)
        apply_kraus_dense(dense, ChannelKind.DEPOLARIZING, param)
        after = channels._triple_kraus.cache_info()
        assert after.misses - before.misses == 1
        assert after.hits - before.hits == 1

    def test_sequence_looks_up_each_parameter(self):
        # One lookup per parameter, repeats included, as separate calls make.
        params = [ChannelParam(p) for p in (math.pi / 11.0, math.e / 10.0, math.pi / 11.0)]
        dense = np.eye(8, dtype=complex) / 8.0
        before = channels._triple_kraus.cache_info()
        apply_kraus_dense(dense, ChannelKind.DEPOLARIZING, params)
        after = channels._triple_kraus.cache_info()
        assert after.misses - before.misses == 2
        assert after.hits - before.hits == 1

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_tables_read_the_kron_operators(self, kind):
        # Column c[r] holds row r's one nonzero entry of np.kron's triple
        # operator, and v[r] is that entry in raw bits.
        for p in P_GRID + tuple(cli._grid_axes(9)[1]):
            cols, values = channels._triple_kraus(kind, p)
            kr = _triple_operators(kind, p)
            assert _same_bits(values, np.take_along_axis(kr, cols[..., None], axis=-1)[..., 0])
            rest = kr.copy()
            np.put_along_axis(rest, cols[..., None], 0.0, axis=-1)
            assert not rest.any()

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_column_table_is_the_channels(self, kind):
        # One column table per channel, read where no operator vanishes, so
        # a call gathers each chunk once whatever its p values; the
        # depolarizing rows that vanish at p = 0 read the same columns.
        cols = channels._triple_kraus(kind, 0.5)[0]
        axes = [cli._grid_axes(grid)[1] for grid in (1, 3, 9, 17)]
        for p in P_GRID + tuple(p for axis in axes for p in axis):
            assert _same_bits(channels._triple_kraus(kind, p)[0], cols), p

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_entry_holds_at_most_24576_bytes(self, kind):
        # 24,576 bytes is the largest entry (depolarizing, 64 operators) when
        # it held broadcast views; caching the per-call (m^3, 64) gather
        # tables would take it to 163,840 bytes and move peak_rss_mib.
        roots = {}
        for table in channels._triple_kraus(kind, 0.3):
            while isinstance(table.base, np.ndarray):
                table = table.base
            roots[id(table)] = table.nbytes
        assert sum(roots.values()) <= 24_576


class TestRouteEquivalence:
    def test_kraus_equals_bloch_route(self):
        rng = np.random.default_rng(46)
        for _ in range(60):
            state = random_xstate(rng)
            w = bloch_from_compact(state.diag, state.anti)
            for kind in ALL_KINDS:
                for p in P_GRID:
                    param = ChannelParam(p)
                    via_kraus = apply_kraus(state, kind, param).to_dense()
                    image = damped_bloch_array(kind, w, param)
                    check_compact(*compact_from_bloch(image))
                    via_bloch = XState(*compact_from_bloch(image)).to_dense()
                    assert np.abs(via_kraus - via_bloch).max() <= 1e-12

    def test_compact_route_equals_kraus(self):
        rng = np.random.default_rng(47)
        state = random_xstate(rng)
        for kind in ALL_KINDS:
            param = ChannelParam(0.45)
            a = apply_channel_compact(state, kind, param)
            b = apply_kraus(state, kind, param)
            np.testing.assert_allclose(a.diag, b.diag, atol=1e-13)
            np.testing.assert_allclose(a.anti, b.anti, atol=1e-13)

    def test_asymmetric_diagonal_mixing(self):
        # Distinct populations exercise the longitudinal-sector mixing of the
        # depolarizing map, which is not a plain per-coordinate scaling.
        diag = np.array([0.30, 0.05, 0.10, 0.02, 0.08, 0.15, 0.20, 0.10])
        state = XState(diag, np.zeros(4, dtype=complex))
        w = bloch_from_compact(state.diag, state.anti)
        for p in (0.2, 0.5, 0.8):
            param = ChannelParam(p)
            a = apply_kraus(state, ChannelKind.DEPOLARIZING, param).to_dense()
            image = damped_bloch_array(ChannelKind.DEPOLARIZING, w, param)
            check_compact(*compact_from_bloch(image))
            b = XState(*compact_from_bloch(image)).to_dense()
            assert np.abs(a - b).max() <= 1e-13


class TestBlochFactors:
    def test_factor_table(self):
        param = ChannelParam(0.3)
        assert bloch_damping_factors(ChannelKind.PHASE_DAMPING, param) == (0.7, 1.0)
        assert bloch_damping_factors(ChannelKind.DEPOLARIZING, param) == (0.7, 0.7)
        ft, fz = bloch_damping_factors(ChannelKind.PHASE_FLIP, param)
        assert abs(ft - 0.4) < 1e-15 and fz == 1.0

    def test_transverse_contraction(self):
        rng = np.random.default_rng(48)
        state = random_xstate(rng)
        w = bloch_from_compact(state.diag, state.anti)
        for kind in ALL_KINDS:
            for p in (0.1, 0.4, 0.9):
                out = damped_bloch_array(kind, w, ChannelParam(p))
                check_compact(*compact_from_bloch(out))
                for j in range(4):
                    assert (
                        np.linalg.norm(out[j, 1:]) <= np.linalg.norm(w[j, 1:]) + 1e-12
                    )

    def test_werner_depolarized_block_weights(self):
        # Damped mixing-parameter family: corner blocks carry
        # (1 + 3S^2(1-q))/4, the six central populations pair to
        # (1 - S^2(1-q))/4 each.
        q, p = 0.3, 0.25
        s = 1.0 - p
        state = werner_ghz(q)
        out = damped_bloch_array(
            ChannelKind.DEPOLARIZING, bloch_from_compact(state.diag, state.anti), ChannelParam(p)
        )
        check_compact(*compact_from_bloch(out))
        assert abs(out[0, 0] - (1.0 + 3.0 * s**2 * (1.0 - q)) / 4.0) < 1e-13
        for j in (1, 2, 3):
            assert abs(out[j, 0] - (1.0 - s**2 * (1.0 - q)) / 4.0) < 1e-13
        assert abs(out[0, 1] - s**3 * (1.0 - q)) < 1e-13


class TestComposition:
    def test_two_step_semigroup(self):
        rng = np.random.default_rng(49)
        state = random_xstate(rng)
        p1, p2 = 0.2, 0.35
        s1, s2 = 1.0 - p1, 1.0 - p2
        combined = {
            ChannelKind.PHASE_DAMPING: 1.0 - s1 * s2,
            ChannelKind.DEPOLARIZING: 1.0 - s1 * s2,
            ChannelKind.PHASE_FLIP: (1.0 - (2.0 * s1 - 1.0) * (2.0 * s2 - 1.0)) / 2.0,
        }
        for kind in ALL_KINDS:
            two_step = apply_kraus(
                apply_kraus(state, kind, ChannelParam(p1)), kind, ChannelParam(p2)
            )
            one_step = apply_kraus(state, kind, ChannelParam(combined[kind]))
            assert np.abs(two_step.to_dense() - one_step.to_dense()).max() < 1e-13
