"""Damped Werner-GHZ family: reference closed forms vs pipeline vs oracles."""

import functools
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from reference import apply_kraus
from xqmetro import ghz, linalg, oracle
from xqmetro.channels import ChannelKind, ChannelParam, apply_kraus_dense
from xqmetro.cli import _grid_axes, main, run_validation
from xqmetro.errors import (
    BadParameterError,
    BadProbabilityError,
    NotConvergedError,
    NotHermitianError,
    NotPSDError,
    TraceViolationError,
    XQMetroError,
)
from xqmetro.ghz import (
    GHZ_QMIN,
    MetricCheck,
    Verdict,
    closed_form_concurrence,
    closed_form_qfi,
    closed_form_skew,
    crosscheck,
    crosscheck_grid,
    depolarizing_qfi_gap,
    ghz_family,
    ghz_grid,
    werner_ghz,
)
from xqmetro.metrics import (
    ParamFamily,
    concurrence_ghz_class,
    evaluate_stack,
    qfi_total,
    skew_total,
)
from xqmetro.oracle import qfi_eigen_oracle, skew_sqrt_oracle
from xqmetro.xstate import XState, XTangent, compact_from_dense, dense_from_compact

Q_GRID = tuple(j / 10.0 for j in range(1, 10))
P_GRID = tuple(j / 10.0 for j in range(10))


class TestWernerGhz:
    def test_pure_limit(self):
        rho = werner_ghz(0.0).to_dense()
        expected = np.zeros((8, 8), dtype=complex)
        expected[0, 0] = expected[7, 7] = expected[0, 7] = expected[7, 0] = 0.5
        assert np.abs(rho - expected).max() < 1e-15

    def test_maximally_mixed_limit(self):
        assert np.abs(werner_ghz(1.0).to_dense() - np.eye(8) / 8.0).max() < 1e-15

    def test_balanced_mixture_entries(self):
        rho = werner_ghz(0.5).to_dense()
        assert abs(rho[0, 0] - 5.0 / 16.0) < 1e-15
        assert abs(rho[0, 7] - 0.25) < 1e-15
        for k in range(1, 7):
            assert abs(rho[k, k] - 1.0 / 16.0) < 1e-15

    @pytest.mark.parametrize("bad", [-0.01, 1.01, float("nan")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(BadParameterError):
            werner_ghz(bad)

    def test_numpy_q_named_as_a_float(self):
        with pytest.raises(BadParameterError) as err:
            werner_ghz(np.float64(1.5))
        assert str(err.value) == "q must lie in [0, 1], got 1.5"

    @pytest.mark.parametrize("bad, text", [(2.0, "2.0"), (-0.25, "-0.25")])
    def test_grid_names_q_out_of_range_before_any_work(self, monkeypatch, bad, text):
        def no_work(*args):
            raise AssertionError("ghz_grid damped states before checking q")

        monkeypatch.setattr(ghz, "damped_bloch_array", no_work)
        monkeypatch.setattr(ghz, "_damped_compact", no_work)
        with pytest.raises(BadParameterError, match=rf"^q must lie in \[0, 1\], got {text}$"):
            ghz.ghz_grid(ChannelKind.PHASE_DAMPING, [0.5, bad], [0.3])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_family_rejects_non_finite_q(self, bad):
        family = ghz_family(ChannelKind.DEPOLARIZING, 0.3)
        calls = (
            lambda: family.state(bad),
            lambda: qfi_total(family, bad),
            lambda: ghz.ghz_grid(ChannelKind.DEPOLARIZING, [0.5, bad], [0.3]),
        )
        for call in calls:
            with pytest.raises(BadParameterError, match=f"^q must be finite, got {bad}$"):
                call()

    def test_family_tangent_is_exact_derivative(self):
        family = ghz_family(ChannelKind.DEPOLARIZING, 0.3)
        h = 1e-6
        tangent = family.tangent(0.5)
        a, b = family.state(0.5 - h), family.state(0.5 + h)
        np.testing.assert_allclose(tangent.diag, (b.diag - a.diag) / (2 * h), atol=1e-9)
        np.testing.assert_allclose(tangent.anti, (b.anti - a.anti) / (2 * h), atol=1e-9)


class TestClosedFormDomain:
    @pytest.mark.parametrize("q", [0.0, 1e-4, -0.5, 1.5])
    def test_interior_guard(self, q):
        for fn in (closed_form_qfi, closed_form_skew, closed_form_concurrence):
            with pytest.raises(BadParameterError):
                fn(ChannelKind.PHASE_DAMPING, q, 0.3)

    def test_quarantine_boundary_ok(self):
        for kind in ChannelKind:
            assert np.isfinite(closed_form_qfi(kind, 1e-3, 0.3))
            assert np.isfinite(closed_form_skew(kind, 1e-3, 0.3))
            assert np.isfinite(closed_form_concurrence(kind, 1e-3, 0.3))


class TestClosedFormAgreement:
    def test_phase_damping_grid(self):
        for q in Q_GRID:
            family_cache = {}
            for p in P_GRID:
                family = family_cache.setdefault(p, ghz_family(ChannelKind.PHASE_DAMPING, p))
                assert abs(closed_form_qfi(ChannelKind.PHASE_DAMPING, q, p) - qfi_total(family, q)) <= 1e-8
                assert abs(closed_form_skew(ChannelKind.PHASE_DAMPING, q, p) - skew_total(family, q)) <= 1e-8
                assert abs(
                    closed_form_concurrence(ChannelKind.PHASE_DAMPING, q, p)
                    - concurrence_ghz_class(family.state(q))
                ) <= 1e-8

    def test_phase_flip_grid(self):
        for q in Q_GRID:
            for p in P_GRID:
                family = ghz_family(ChannelKind.PHASE_FLIP, p)
                assert abs(closed_form_qfi(ChannelKind.PHASE_FLIP, q, p) - qfi_total(family, q)) <= 1e-8
                assert abs(closed_form_skew(ChannelKind.PHASE_FLIP, q, p) - skew_total(family, q)) <= 1e-8
                assert abs(
                    closed_form_concurrence(ChannelKind.PHASE_FLIP, q, p)
                    - concurrence_ghz_class(family.state(q))
                ) <= 1e-8

    def test_noiseless_limit_fisher_anchor(self):
        # undamped balanced mixture at q = 0.1 evaluates to 700/73
        family = ghz_family(ChannelKind.PHASE_DAMPING, 0.0)
        assert abs(qfi_total(family, 0.1) - 700.0 / 73.0) < 1e-12

    def test_full_mixing_fisher_anchor(self):
        # at q = 1 the Fisher information collapses to 3 + 4 S^6
        for p in (0.0, 0.2, 0.5, 0.8):
            s = 1.0 - p
            family = ghz_family(ChannelKind.PHASE_DAMPING, p)
            assert abs(qfi_total(family, 1.0) - (3.0 + 4.0 * s**6)) < 1e-10
            assert abs(closed_form_qfi(ChannelKind.PHASE_DAMPING, 1.0, p) - (3.0 + 4.0 * s**6)) < 1e-10

    def test_concurrence_anchor(self):
        assert abs(closed_form_concurrence(ChannelKind.PHASE_DAMPING, 0.2, 0.1) - 0.4332) < 1e-12

    def test_skew_regression_fixture(self):
        # oracle-confirmed value of the phase-damping skew at q=0.5, p=0.3
        assert abs(closed_form_skew(ChannelKind.PHASE_DAMPING, 0.5, 0.3) - 2.4325705557182022) < 1e-12

    def test_phase_flip_concurrence_revival(self):
        # full phase flip is the unitary Z x Z x Z: entanglement returns past p = 1/2
        family = ghz_family(ChannelKind.PHASE_FLIP, 0.9)
        value = concurrence_ghz_class(family.state(0.1))
        assert abs(value - 0.3858) < 1e-12
        assert abs(closed_form_concurrence(ChannelKind.PHASE_FLIP, 0.1, 0.9) - 0.3858) < 1e-12


class TestDepolarizingDeviation:
    def test_gap_formula_matches_observation(self):
        for q in Q_GRID:
            for p in P_GRID:
                family = ghz_family(ChannelKind.DEPOLARIZING, p)
                observed = qfi_total(family, q) - closed_form_qfi(ChannelKind.DEPOLARIZING, q, p)
                assert abs(observed - depolarizing_qfi_gap(q, p)) < 1e-10

    def test_pipeline_oracle_agreement_despite_deviation(self):
        report = crosscheck(ChannelKind.DEPOLARIZING, 0.3, 0.2)
        assert report["qfi"].verdict is Verdict.CLOSED_FORM_DEVIATES
        assert report["qfi"].oracle_delta < 1e-6
        assert report["skew"].verdict is Verdict.CLOSED_FORM_DEVIATES
        assert report["skew"].oracle_delta < 1e-5
        assert report["concurrence"].verdict is Verdict.CLOSED_FORM_DEVIATES

    def test_monotone_non_increasing_in_noise(self):
        p_values = np.linspace(0.0, 0.9, 19)
        for q in (0.1, 0.3, 0.5, 0.7, 0.9):
            for metric in (qfi_total, skew_total):
                values = [
                    metric(ghz_family(ChannelKind.DEPOLARIZING, float(p)), q)
                    for p in p_values
                ]
                assert all(b <= a + 1e-10 for a, b in zip(values, values[1:]))
            conc = [
                concurrence_ghz_class(ghz_family(ChannelKind.DEPOLARIZING, float(p)).state(q))
                for p in p_values
            ]
            assert all(b <= a + 1e-10 for a, b in zip(conc, conc[1:]))


# One closed form of (q, p) per name: "<channel>-<metric>", and the
# depolarizing Fisher gap.
CLOSED_FORMS = {
    f"{kind.value}-{name}": functools.partial(form, kind)
    for kind in ChannelKind
    for name, form in zip(
        ("qfi", "skew", "concurrence"),
        (closed_form_qfi, closed_form_skew, closed_form_concurrence),
    )
}
CLOSED_FORMS["dpc-gap"] = depolarizing_qfi_gap

# (q axis, p axis): a fine grid over the whole domain, and validate's at --grid 17.
FORM_GRIDS = {
    "fine": (np.linspace(GHZ_QMIN, 1.0, 201), np.linspace(0.0, 1.0, 201)),
    "validate17": tuple(np.array(axis) for axis in _grid_axes(17)),
}

# sha256 of the raw float64 bytes (C order, q by p) of each closed form on
# each grid, as one scalar call per point gave them before the forms took
# arrays; NaN payloads included.
PINNED_DIGESTS = {
    ("fine", "pdc-qfi"): "ba724c5ceeacac3854cb946b34702c6367fcaa30ee6e0cd2d3ec44e7c2f4632d",
    ("fine", "pdc-skew"): "047383cf81459056c44986fb88d037970425b3b5084c016b129183583fe03dd1",
    ("fine", "pdc-concurrence"): "8595b0bc123bde102133398edce31a4e45e9a0dff62311e84afac5ae4db415fa",
    ("fine", "dpc-qfi"): "d78119f4f0073d5fa8cac6db019848c85d8d364b34d37a114704172a9730cee0",
    ("fine", "dpc-skew"): "50b5d7be06b6d39e01fa2eabdc5cb39e95d5929a5ec8f78a3c644caf7a5f6ec1",
    ("fine", "dpc-concurrence"): "1d9f09c9126a06e6270948f3cd6b20355d59f80e45be26f621b5654ce4b9420e",
    ("fine", "pfc-qfi"): "c9ac65908d7fe788ef139927fde8d4851633cc07101d64b907e0ace2c25a604b",
    ("fine", "pfc-skew"): "db295d7bb6840048ceb9b30b14eeebe60dd6ba6046465f3af79c70c6492cb855",
    ("fine", "pfc-concurrence"): "82e6830c664bf6872d0def5bfb7f011eaf5afd2a6fc9a0ec5c2086d6b32c7840",
    ("fine", "dpc-gap"): "729eb37277d212b4d29cf83d0f55693d5d517b9f069fbb415d45fc3df5522b86",
    ("validate17", "pdc-qfi"): "dec0704c1f53c1263e3c85cad1a9a72d09c0a8fd3b2f77a76abe0455f2f78c41",
    ("validate17", "pdc-skew"): "a0ef3851dfe3d7dfdce9d84116fca72b9c19666e8f5d84c5fb2f12bb3bf0dae8",
    ("validate17", "pdc-concurrence"): "4b639bb756a386eb3039ac02114376378169fc7b391f17310ccd33f5e96ddda9",
    ("validate17", "dpc-qfi"): "2c50eda0f0beffad710c5405726d4c6d5e2480ef26b5eba694b9b75a4c619046",
    ("validate17", "dpc-skew"): "b7524262a14725b5b0ea410414527aa4092ce022e4a687b9fbf41ecbfb4c9e49",
    ("validate17", "dpc-concurrence"): "5bd5ebc62e246c9b070d49b54268976f1a4d330b891151b0d40f8f6b151f8922",
    ("validate17", "pfc-qfi"): "90b8b8377b37791785f2f0011f3e03a70151189af0cae6e89ff05e9d8dbfbd87",
    ("validate17", "pfc-skew"): "b19dc50e9ce6065423fc316e449b9882352efffbada93dbe6d3825ec69d4a4f1",
    ("validate17", "pfc-concurrence"): "cc33e879b81ab9c8d9741bd44a4dcd05b613f0ee0e7c9e59c07dc7334b3fb9fe",
    ("validate17", "dpc-gap"): "6b448bb9957ef1a0ee1495300f908ed8d89bd6d41b5aaae0504768b3c04feec2",
}


def grid_call(name, grid):
    q, p = FORM_GRIDS[grid]
    return CLOSED_FORMS[name](q[:, None], p[None, :])


class TestClosedFormGrid:
    """The closed forms take whole grids, and each element is its point's value."""

    @pytest.mark.parametrize("grid, name", list(PINNED_DIGESTS))
    def test_grid_call_keeps_the_pinned_bits(self, grid, name):
        values = grid_call(name, grid)
        assert values.dtype == np.float64 and values.shape == tuple(map(len, FORM_GRIDS[grid]))
        assert hashlib.sha256(values.tobytes()).hexdigest() == PINNED_DIGESTS[grid, name]

    @pytest.mark.parametrize("name", CLOSED_FORMS)
    def test_every_element_is_its_one_point_call(self, name):
        form = CLOSED_FORMS[name]
        rng = np.random.default_rng(7)
        q_values, p_values = _grid_axes(17)
        q_values = [GHZ_QMIN, *q_values, 1.0, *rng.uniform(GHZ_QMIN, 1.0, 8).tolist()]
        p_values = [*p_values, 1.0, *rng.uniform(0.0, 1.0, 8).tolist()]
        grid = form(np.array(q_values)[:, None], np.array(p_values)[None, :])
        points = [[form(q, p) for p in p_values] for q in q_values]
        assert {type(value) for row in points for value in row} == {float}
        assert grid.view(np.uint64).tolist() == np.array(points).view(np.uint64).tolist()

    @pytest.mark.filterwarnings("error")
    def test_finite_on_the_fine_grid_but_dpc_skew_at_full_mixing_noiseless(self):
        for name in CLOSED_FORMS:
            values = grid_call(name, "fine")
            finite = np.ones(values.shape, dtype=bool)
            if name == "dpc-skew":
                finite[-1, 0] = False  # (q, p) = (1, 0): the lambda_2 base is 0
                assert np.isnan(values[-1, 0])
            assert (np.isfinite(values) == finite).all(), name

    @pytest.mark.parametrize(
        "q, p, error, text",
        [
            (np.array([0.5, 2.0, 3.0]), 0.3, BadParameterError, "q in [0.001, 1], got 2.0"),
            ([[0.5], [np.nan]], [[0.1, 1.5]], BadParameterError, "q in [0.001, 1], got nan"),
            (0.5, np.linspace(0.0, 1.2, 3), BadProbabilityError, "[0, 1], got 1.2"),
            ([0.5, 1e-4], 1.5, BadParameterError, "q in [0.001, 1], got 0.0001"),
        ],
        ids=["first-q", "nan-q", "numpy-p", "q-before-p"],
    )
    @pytest.mark.parametrize("name", ["pdc-qfi", "dpc-skew", "pfc-concurrence", "dpc-gap"])
    def test_every_q_then_every_p_is_checked(self, name, q, p, error, text):
        prefix = "p must lie in " if error is BadProbabilityError else "closed forms need "
        with pytest.raises(error) as err:
            CLOSED_FORMS[name](q, p)
        assert type(err.value) is error and str(err.value) == prefix + text


class TestCrosscheck:
    def test_healthy_channels_agree(self):
        for kind in (ChannelKind.PHASE_DAMPING, ChannelKind.PHASE_FLIP):
            report = crosscheck(kind, 0.4, 0.25)
            for check in report.values():
                assert check.verdict is Verdict.AGREE
                assert check.closed_form_delta <= 1e-8

    def test_oracle_columns_populated(self):
        report = crosscheck(ChannelKind.PHASE_DAMPING, 0.4, 0.25)
        assert report["qfi"].oracle_delta < 1e-9
        assert report["skew"].oracle_delta < 1e-5
        assert abs(report["concurrence"].pipeline - report["concurrence"].oracle) < 1e-12

    def test_near_singular_interior_point(self):
        report = crosscheck(ChannelKind.PHASE_DAMPING, 1e-3, 0.3)
        for check in report.values():
            assert check.verdict is not Verdict.SINGULAR
        assert report["qfi"].closed_form_delta <= 1e-8
        assert report["qfi"].oracle_delta < 1e-6

    def test_rejects_invalid_point(self):
        with pytest.raises(BadParameterError):
            crosscheck(ChannelKind.PHASE_DAMPING, 0.5, 1.5)

    # The depolarizing skew form divides by zero at (1, 0); numpy must not warn.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_closed_form_is_singular(self):
        report = crosscheck(ChannelKind.DEPOLARIZING, 1.0, 0.0)
        assert np.isnan(report["skew"].closed_form)
        assert report["skew"].verdict is Verdict.SINGULAR
        assert report["skew"].pipeline == 7.0
        assert abs(report["skew"].oracle - 7.0) < 1e-8
        assert report["qfi"].verdict is Verdict.CLOSED_FORM_DEVIATES
        assert report["concurrence"].verdict is Verdict.AGREE


class TestZeroCrossing:
    def test_phase_damping_crossing_location(self):
        q = 0.2
        p_star = 1.0 - (3.0 * q / (4.0 * (1.0 - q))) ** (1.0 / 3.0)
        assert abs(p_star - 0.42764287872333406) < 1e-12
        family_before = ghz_family(ChannelKind.PHASE_DAMPING, p_star - 1e-4)
        family_after = ghz_family(ChannelKind.PHASE_DAMPING, p_star + 1e-4)
        assert concurrence_ghz_class(family_before.state(q)) > 0.0
        assert concurrence_ghz_class(family_after.state(q)) == 0.0

    def test_all_channels_reach_exact_zero(self):
        for kind in ChannelKind:
            for q in (0.2, 0.5, 0.8):
                values = [
                    concurrence_ghz_class(ghz_family(kind, float(p)).state(q))
                    for p in np.linspace(0.0, 0.9, 46)
                ]
                assert values[0] > 0.0 or q >= 0.75  # entangled at low noise
                assert any(v == 0.0 for v in values)


def kraus_concurrence(kind, q_values, p_values):
    """Concurrence over (q, p) through the dense Kraus image of each Werner state."""
    dense = dense_from_compact(*ghz._werner_compact(np.asarray(q_values, dtype=float)))
    out = np.empty((len(q_values), len(p_values)))
    for j, p in enumerate(p_values):
        diag, anti = compact_from_dense(apply_kraus_dense(dense, kind, ChannelParam(p)))
        out[:, j] = evaluate_stack(("concurrence",), diag, anti)["concurrence"]
    return out


class TestConcurrenceAnchors:
    """GHZ-class concurrence of the Werner-GHZ line against its closed forms,
    on the compact route (``ghz_grid``) and on the Kraus route."""

    TOL = 1e-15

    @pytest.mark.parametrize("kind", list(ChannelKind))
    def test_undamped_line(self, kind):
        # C = max(0, 1 - 7q/4): genuinely entangled iff q < 4/7.
        q = np.linspace(0.0, 1.0, 1001)
        expected = np.maximum(0.0, 1.0 - 7.0 * q / 4.0)
        grid = ghz_grid(kind, q, [0.0], metrics=("concurrence",))["concurrence"][:, 0]
        assert np.abs(grid - expected).max() <= self.TOL
        assert np.abs(kraus_concurrence(kind, q, [0.0])[:, 0] - expected).max() <= self.TOL

    @pytest.mark.parametrize("kind", [ChannelKind.PHASE_DAMPING, ChannelKind.PHASE_FLIP])
    def test_dephased_line(self, kind):
        # C = max(0, |c|^3 (1 - q) - 3q/4) with c = s (pdc) or 2s - 1 (pfc).
        q, p = np.linspace(0.0, 1.0, 201), np.linspace(0.0, 1.0, 101)
        s = 1.0 - p
        c = s if kind is ChannelKind.PHASE_DAMPING else 2.0 * s - 1.0
        expected = np.maximum(0.0, np.abs(c) ** 3 * (1.0 - q[:, None]) - 0.75 * q[:, None])
        grid = ghz_grid(kind, q, p, metrics=("concurrence",))["concurrence"]
        assert np.abs(grid - expected).max() <= self.TOL
        assert np.abs(kraus_concurrence(kind, q, p) - expected).max() <= self.TOL


class TestClassicalFamily:
    """On the paper's q-family all three channels are unital and the noise
    part stays I/8, so rho(q) and its tangent commute: skew equals Fisher."""

    @pytest.mark.parametrize("kind", list(ChannelKind))
    def test_skew_equals_fisher(self, kind):
        q, p = np.linspace(GHZ_QMIN, 1.0, 30), np.linspace(0.0, 1.0, 41)
        grid = ghz_grid(kind, q, p, metrics=("qfi", "skew"))
        fisher, skew = grid["qfi"], grid["skew"]
        assert np.all(np.abs(skew - fisher) <= 1e-14 * fisher)

    def test_fully_depolarized_is_flat(self):
        # At p = 1 every q gives I/8 and the tangent vanishes.
        grid = ghz_grid(ChannelKind.DEPOLARIZING, np.linspace(GHZ_QMIN, 1.0, 30), [1.0])
        assert np.all(grid["qfi"] == 0.0) and np.all(grid["skew"] == 0.0)


class TestChannelRanking:
    """The abstract: phase damping and phase flip "generally allow for better
    parameter estimation" than depolarizing."""

    def test_depolarizing_never_beats_phase_damping(self):
        # 100 q x the 51 p <= 1/2 of a 101-point p grid.  Measured: never
        # above, and equal only at p = 0.  F_dpc > F_pfc on 4.4% of this grid
        # (p in [0.01, 0.1]), by up to 0.258: the README records that as the
        # measured "generally"; it is not asserted.
        q, p = np.linspace(GHZ_QMIN, 1.0, 100), np.linspace(0.0, 1.0, 101)[:51]
        pdc = ghz_grid(ChannelKind.PHASE_DAMPING, q, p, metrics=("qfi", "skew"))
        dpc = ghz_grid(ChannelKind.DEPOLARIZING, q, p, metrics=("qfi", "skew"))
        for name in ("qfi", "skew"):
            assert np.all(dpc[name] <= pdc[name] * (1.0 + 1e-12)), name


class TestDataProcessing:
    """Each channel is a semigroup in its damping factor: s composes
    multiplicatively for pdc and dpc, 2s - 1 for pfc.  F, S and C are
    monotone under channels, so none may rise as that factor shrinks."""

    @pytest.mark.parametrize("kind", list(ChannelKind))
    def test_no_metric_rises_as_the_channel_damps_more(self, kind):
        # 60 q x 401 p; measured worst rise: 3.9e-16 relative, 3.6e-15 absolute.
        q, p = np.linspace(GHZ_QMIN, 1.0, 60), np.linspace(0.0, 1.0, 401)
        order = np.arange(len(p))  # along p: the factor s = 1 - p shrinks
        if kind is ChannelKind.PHASE_FLIP:  # the factor is 2s - 1 = 1 - 2p
            order = np.argsort(-np.abs(1.0 - 2.0 * p), kind="stable")
        for name, values in ghz_grid(kind, q, p).items():
            values = values[:, order]
            rise = values[:, 1:] - values[:, :-1]
            assert np.all(rise <= 1e-12 * np.abs(values[:, :-1])), name


class TestGridAxes:
    """A q or p axis that is not one-dimensional is named before any work."""

    @pytest.mark.parametrize("grid", [ghz_grid, crosscheck_grid], ids=lambda f: f.__name__)
    @pytest.mark.parametrize(
        "q_values, p_values, text",
        [
            (0.5, [0.3], "q_values must be one-dimensional, got shape ()"),
            ([[0.2, 0.5]], [0.3], "q_values must be one-dimensional, got shape (1, 2)"),
            ([0.5], 0.3, "p_values must be one-dimensional, got shape ()"),
            ([0.5], [[0.1], [0.3]], "p_values must be one-dimensional, got shape (2, 1)"),
        ],
        ids=["scalar-q", "2d-q", "scalar-p", "2d-p"],
    )
    def test_axis_must_be_one_dimensional(self, monkeypatch, grid, q_values, p_values, text):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the axes were checked")

        work = ("_closed_form_inputs", "_werner_compact", "_damped_compact", "apply_kraus_dense")
        for name in work:
            monkeypatch.setattr(ghz, name, no_work)
        with pytest.raises(BadParameterError) as err:
            grid(ChannelKind.PHASE_DAMPING, q_values, p_values)
        assert str(err.value) == text
        if grid is ghz_grid:  # after the metric names
            with pytest.raises(BadParameterError, match="^unknown metric 'fisher'"):
                grid(ChannelKind.PHASE_DAMPING, q_values, p_values, ("fisher",))


def reference_verdict(pipeline, closed_form):
    """The verdict rule at one point, which :func:`crosscheck_grid` applies
    to whole (q, p) arrays: the first row that holds decides."""
    if not math.isfinite(pipeline):
        return Verdict.PIPELINE_NON_FINITE
    if not math.isfinite(closed_form):
        return Verdict.SINGULAR
    if abs(pipeline - closed_form) <= ghz.CLOSED_FORM_TOL:
        return Verdict.AGREE
    return Verdict.CLOSED_FORM_DEVIATES


def reference_crosscheck(kind, q, p):
    """One point through scalar calls only: the per-point crosscheck that
    preceded :func:`crosscheck_grid`, kept as its reference (the Kraus
    family helper it used is inlined).  A closed form that raises raises."""
    param = ChannelParam(p)
    family = ghz_family(kind, p)
    kraus_fam = ParamFamily(
        state=lambda x: apply_kraus(XState(*ghz._werner_compact(x)), kind, param)
    )

    rho = apply_kraus_dense(werner_ghz(q).to_dense(), kind, param)
    drho = apply_kraus_dense(
        XTangent(ghz._TANGENT_DIAG, ghz._TANGENT_ANTI).to_dense(), kind, param
    )

    def check(pipeline_fn, closed_fn, oracle_fn):
        try:
            pipeline = pipeline_fn()
            oracle_val = oracle_fn()
        except NotConvergedError:
            raise
        except (XQMetroError, ZeroDivisionError, FloatingPointError):
            return MetricCheck(float("nan"), float("nan"), float("nan"), Verdict.SINGULAR)
        closed = closed_fn()
        return MetricCheck(pipeline, closed, oracle_val, reference_verdict(pipeline, closed))

    qfi = check(
        lambda: qfi_total(family, q),
        lambda: closed_form_qfi(kind, q, p),
        lambda: qfi_eigen_oracle(rho, drho),
    )
    skew = check(
        lambda: skew_total(family, q),
        lambda: closed_form_skew(kind, q, p),
        lambda: skew_sqrt_oracle(kraus_fam, q),
    )
    concurrence = check(
        lambda: concurrence_ghz_class(family.state(q)),
        lambda: closed_form_concurrence(kind, q, p),
        lambda: concurrence_ghz_class(kraus_fam.state(q)),
    )
    return {"qfi": qfi, "skew": skew, "concurrence": concurrence}


METRICS = ("qfi", "skew", "concurrence")


def point(checks, i, j):
    """Element ``[i, j]`` of each of a grid's checks, as a one-point report."""
    return {
        name: MetricCheck._make(field[i, j] for field in check) for name, check in checks.items()
    }


def report_bits(report):
    """Raw bits of every value of a one-point report, and its verdicts."""
    checks = [report[name] for name in METRICS]
    values = np.array(
        [[check.pipeline, check.closed_form, check.oracle] for check in checks]
    )
    return values.view(np.uint64).tolist(), [check.verdict for check in checks]


class TestCrosscheckGrid:
    # The depolarizing reference skew reads NaN at (q, p) = (1, 0) on both
    # routes alike; its bits are compared like the rest.
    @pytest.mark.parametrize("kind", list(ChannelKind))
    def test_bit_identical_to_per_point_reference(self, kind):
        q_values, p_values = _grid_axes(9)
        q_values = [GHZ_QMIN] + q_values + [1.0]
        p_values = p_values + [1.0]
        checks = crosscheck_grid(kind, q_values, p_values)
        assert tuple(checks) == METRICS
        for check in checks.values():
            assert [field.shape for field in check] == [(len(q_values), len(p_values))] * 4
            assert check.verdict.dtype == object
        for i, q in enumerate(q_values):
            for j, p in enumerate(p_values):
                reference = reference_crosscheck(kind, q, p)
                assert report_bits(point(checks, i, j)) == report_bits(reference), (q, p)

    def test_one_point_view_is_the_grid_element(self):
        q_values, p_values = (0.2, 0.5), (0.0, 0.3, 1.0)
        for kind in ChannelKind:
            checks = crosscheck_grid(kind, q_values, p_values)
            for i, q in enumerate(q_values):
                for j, p in enumerate(p_values):
                    one = crosscheck(kind, q, p)
                    assert tuple(one) == METRICS
                    assert report_bits(one) == report_bits(point(checks, i, j))

    def test_one_call_per_closed_form_before_any_channel_work(self, monkeypatch):
        calls = []

        def spy(name):
            function = getattr(ghz, name)

            def spied(*args):
                calls.append((name, *(np.shape(arg) for arg in args[1:])))
                return function(*args)

            monkeypatch.setattr(ghz, name, spied)

        for name in (*(f"closed_form_{name}" for name in METRICS), "ghz_grid", "apply_kraus_dense"):
            spy(name)
        q_values, p_values = _grid_axes(9)
        crosscheck_grid(ChannelKind.DEPOLARIZING, q_values, p_values)
        assert calls[:3] == [(f"closed_form_{name}", (9, 1), (1, 10)) for name in METRICS]
        assert [call[0] for call in calls[3:]] == ["ghz_grid", "apply_kraus_dense"]

    @pytest.mark.parametrize("name", [f"closed_form_{name}" for name in METRICS])
    def test_raising_closed_form_propagates(self, monkeypatch, capsys, name):
        # Not masked as a NaN closed form: its SINGULAR verdict would be
        # skipped by the validate suites.
        original = getattr(ghz, name)

        def raising(kind, q, p):
            if np.any((np.asarray(q) == 0.5) & (np.asarray(p) == 0.0)):
                raise NotPSDError("injected")
            return original(kind, q, p)

        monkeypatch.setattr(ghz, name, raising)
        with pytest.raises(NotPSDError, match="^injected$"):
            crosscheck_grid(ChannelKind.PHASE_FLIP, self.Q, self.P)
        assert main(["validate", "--grid", "1", "--seed", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: injected\n"

    def test_empty_axis_gives_empty_arrays(self):
        for kind in ChannelKind:
            for q_values, p_values in (([], [0.1, 0.2]), ([0.5, 0.7], []), ([], [])):
                checks = crosscheck_grid(kind, q_values, p_values)
                assert tuple(checks) == METRICS
                for check in checks.values():
                    assert [field.shape for field in check] == [(len(q_values), len(p_values))] * 4
                    assert check.verdict.dtype == object

    @pytest.mark.parametrize("kind", list(ChannelKind))
    def test_oracle_column_holds_no_kraus_images(self, kind):
        # validate --grid 17's axes, where crosscheck_grid sets validate's
        # traced peak.  Bound, in units of the oracle column's input
        # S = 3 probes x 18 p x 17 q x 1,024 bytes = 940,032: the input,
        # held through the column (S); the Jacobi solver's matrix and
        # eigenvectors (2 S), and in a sweep one rotation's gathered subsets
        # of both (up to 2 S) with the rotation's column and row copies (up
        # to S); plus S of slack for d rho, the compact images, the
        # pipeline's grids, the finishes' temporaries and small objects:
        # 7 S = 6,580,224.  Holding the Kraus images, their states view and
        # the rebuilt probes through the column peaked at 7,708,130 (pfc).
        q_values, p_values = _grid_axes(17)
        crosscheck_grid(kind, q_values, p_values)  # fills the caches
        column = 3 * len(p_values) * len(q_values) * 64 * 16
        bound = 7 * column
        assert bound == 6_580_224
        tracemalloc.start()
        try:
            crosscheck_grid(kind, q_values, p_values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound, peak

    @pytest.mark.filterwarnings("error")  # inf - inf must not warn
    def test_verdicts_are_the_scalar_rule_on_special_values(self, monkeypatch):
        # Pipeline values vary along q and closed forms along p, so the grid
        # holds every pair: NaN and +-inf against each other (inf - inf
        # among them) and against finite values 0, 1e-9 and 1e-7 apart.
        values = (np.nan, np.inf, -np.inf, 0.25, 0.25 + 1e-9, 0.25 + 1e-7)
        q_values = np.linspace(0.2, 0.7, len(values)).tolist()
        p_values = np.linspace(0.0, 0.5, len(values)).tolist()
        seeded = np.repeat(np.array(values)[:, None], len(p_values), axis=1)

        def closed_form(kind, q, p):
            # The grid's (1, p) row of p values: each picks its seeded value.
            row = np.array([values[p_values.index(x)] for x in p[0].tolist()])
            return np.broadcast_to(row, np.broadcast_shapes(q.shape, p.shape))

        monkeypatch.setattr(ghz, "ghz_grid", lambda *args: dict.fromkeys(METRICS, seeded))
        for name in ("closed_form_qfi", "closed_form_skew", "closed_form_concurrence"):
            monkeypatch.setattr(ghz, name, closed_form)
        expected = [[reference_verdict(pipe, closed) for closed in values] for pipe in values]
        assert {verdict for row in expected for verdict in row} == set(Verdict)
        for check in crosscheck_grid(ChannelKind.PHASE_FLIP, q_values, p_values).values():
            assert check.verdict.tolist() == expected

    Q = (0.2, 0.5, 0.8)
    P = (0.0, 0.3, 0.6)

    def assert_one_singular(self, monkeypatch, name, failing, metric):
        """Patch ``ghz.<name>`` to read NaN where ``failing(q, p)`` holds;
        exactly one point's ``metric`` must turn SINGULAR, with a NaN closed
        form and the pipeline and oracle values of the clean run."""
        kind = ChannelKind.PHASE_FLIP
        clean = crosscheck_grid(kind, self.Q, self.P)
        original = getattr(ghz, name)

        def patched(kind, q, p):
            return np.where(failing(q, p), np.nan, original(kind, q, p))

        monkeypatch.setattr(ghz, name, patched)
        checks = crosscheck_grid(kind, self.Q, self.P)
        singular = []
        for (i, q), (j, p) in itertools.product(enumerate(self.Q), enumerate(self.P)):
            report = point(checks, i, j)
            bits, verdicts = report_bits(report)
            clean_bits, clean_verdicts = report_bits(point(clean, i, j))
            for k, m in enumerate(METRICS):
                if verdicts[k] is Verdict.SINGULAR:
                    singular.append((q, p, m))
                    assert np.isnan(report[m].closed_form)
                    assert bits[k][::2] == clean_bits[k][::2]  # pipeline, oracle
                else:
                    assert bits[k] == clean_bits[k] and verdicts[k] is clean_verdicts[k]
        assert len(singular) == 1 and singular[0][2] == metric
        return singular[0][:2]

    def test_singular_closed_form_stays_local(self, monkeypatch):
        where = self.assert_one_singular(
            monkeypatch,
            "closed_form_qfi",
            lambda q, p: (q == 0.5) & (p == 0.3),
            "qfi",
        )
        assert where == (0.5, 0.3)

    def test_nan_pipeline_at_raising_closed_form_fails_validate(self, monkeypatch):
        # A closed form that is undefined (NaN) where the pipeline value is
        # NaN must not hide that value from validate as a SINGULAR verdict.
        kind = ChannelKind.PHASE_DAMPING
        grid, closed = ghz.ghz_grid, ghz.closed_form_skew

        def nan_grid(kind_, q_values, p_values):
            values = grid(kind_, q_values, p_values)
            if kind_ is kind:
                values["skew"][list(q_values).index(0.5), list(p_values).index(0.0)] = np.nan
            return values

        def undefined(kind_, q, p):
            return np.where((kind_ is kind) & (q == 0.5) & (p == 0.0), np.nan, closed(kind_, q, p))

        monkeypatch.setattr(ghz, "ghz_grid", nan_grid)
        monkeypatch.setattr(ghz, "closed_form_skew", undefined)
        check = crosscheck(kind, 0.5, 0.0)["skew"]
        assert check.verdict is Verdict.PIPELINE_NON_FINITE
        assert np.isnan(check.pipeline) and np.isnan(check.closed_form)
        assert check.oracle == crosscheck_grid(kind, [0.5], [0.3, 0.0])["skew"].oracle[0, 1]
        report = run_validation(1, 0)
        assert not report.passed
        failed = [suite.name for suite in report.suites if not suite.passed]
        assert failed == ["ghz-closed-form-agreement", "ghz-skew-oracle"]

    @pytest.mark.parametrize(
        "error, probe, scale",
        [(NotPSDError, 2, None), (NotPSDError, 1, None), (TraceViolationError, 0, 1.1)],
    )
    def test_oracle_finish_failure_raises_naming_it(self, monkeypatch, error, probe, scale):
        # The oracle finishes run over the whole grid's column, outside the
        # per-metric verdicts: a failure raises and names (probe, p index,
        # q index), here the third p and the second q.
        def broken(states):
            values, vectors = linalg.eigh_stack(states)
            if scale is None:
                values[probe, 2, 1, 0] = -1e-9
            else:
                values[probe, 2, 1] *= scale
            return values, vectors

        monkeypatch.setattr(oracle, "eigh_stack", broken)
        text = "eigenvalue -1.000e-09 below -1e-12" if scale is None else "trace "
        with pytest.raises(error, match=rf"^element \({probe}, 2, 1\): state {text}"):
            crosscheck_grid(ChannelKind.PHASE_FLIP, self.Q, self.P)

    def test_bad_kraus_image_raises_naming_it(self, monkeypatch):
        # The stacked image checks raise where the per-point crosscheck gave a
        # SINGULAR verdict; the element is (rho / left / right probe, p index,
        # q index).
        def leaky(stack, kind, params):
            images = apply_kraus_dense(stack, kind, params)
            k = [param.p for param in params].index(self.P[1])
            images[k, len(self.Q) + 2] *= 1.1  # left probe of the third q
            return images

        monkeypatch.setattr(ghz, "apply_kraus_dense", leaky)
        text = r"^element \(1, 1, 2\): trace 1\.1000000000000003 differs from 1 beyond 1e-12$"
        with pytest.raises(TraceViolationError, match=text):
            crosscheck_grid(ChannelKind.PHASE_DAMPING, self.Q, self.P)

    def test_asymmetric_kraus_image_raises_naming_it(self, monkeypatch):
        # A 1e-11 asymmetry passes the 1e-10 X-pattern checks but not the
        # eigensolver's 1e-12 Hermiticity test, which names (probe, p index,
        # q index) where the per-point oracle gave a SINGULAR verdict.
        def leaky(stack, kind, params):
            images = apply_kraus_dense(stack, kind, params)
            k = [param.p for param in params].index(self.P[2])
            images[k, 1, 0, 7] += 1e-11  # rho of the second q
            return images

        monkeypatch.setattr(ghz, "apply_kraus_dense", leaky)
        with pytest.raises(
            NotHermitianError,
            match=r"^element \(0, 2, 1\): matrix is not Hermitian within 1e-12$",
        ):
            crosscheck_grid(ChannelKind.PHASE_DAMPING, self.Q, self.P)

    def test_eigensolver_failure_raises(self, monkeypatch):
        monkeypatch.setattr(linalg, "MAX_SWEEPS", 0)
        with pytest.raises(NotConvergedError):
            crosscheck_grid(ChannelKind.DEPOLARIZING, self.Q, self.P)

    @pytest.mark.parametrize(
        "q_values, p_values",
        [
            ((0.2, 0.5, 1.5), (0.1, 0.2)),
            ((0.2, 0.5), (0.1, float("nan"))),
            ((0.2, 1e-4), (0.1, 0.2)),
            ((0.2, 0.5), (0.1, 1.01)),
        ],
    )
    def test_bad_point_raises_before_any_work(self, monkeypatch, q_values, p_values):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the grid was checked")

        monkeypatch.setattr(ghz, "ghz_grid", no_work)
        monkeypatch.setattr(ghz, "apply_kraus_dense", no_work)
        with pytest.raises(BadParameterError):
            crosscheck_grid(ChannelKind.PHASE_DAMPING, q_values, p_values)

    @pytest.mark.parametrize(
        "q_values, p_values, text",
        [
            (np.array([1.5]), [0.1], "closed forms need q in [0.001, 1], got 1.5"),
            ([0.5], np.linspace(0.0, 1.2, 2), "p must lie in [0, 1], got 1.2"),
        ],
    )
    def test_numpy_point_named_as_a_float(self, q_values, p_values, text):
        with pytest.raises(BadParameterError) as err:
            crosscheck_grid(ChannelKind.PHASE_DAMPING, q_values, p_values)
        assert str(err.value) == text

    @pytest.mark.parametrize(
        "q_values, p_values, text",
        [
            ([2.0], [], "closed forms need q in [0.001, 1], got 2.0"),
            ([], [1.5], "p must lie in [0, 1], got 1.5"),
            # Every q is checked before any p.
            ([0.5, 2.0], [0.1, 1.5], "closed forms need q in [0.001, 1], got 2.0"),
            ([3.0, 0.5], [1.5], "closed forms need q in [0.001, 1], got 3.0"),
            ([0.5, 1e-4], [0.1, 0.2], "closed forms need q in [0.001, 1], got 0.0001"),
        ],
        ids=["q-beside-empty-p", "p-beside-empty-q", "p-before-later-q", "q0-first", "later-q"],
    )
    def test_every_axis_value_is_checked_before_any_work(
        self, monkeypatch, q_values, p_values, text
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the grid was checked")

        monkeypatch.setattr(ghz, "ghz_grid", no_work)
        monkeypatch.setattr(ghz, "apply_kraus_dense", no_work)
        with pytest.raises(BadParameterError) as err:
            crosscheck_grid(ChannelKind.PHASE_DAMPING, q_values, p_values)
        assert str(err.value) == text
