"""Acceptance gate: one test per shipped guarantee, one [PASS]/[FAIL] line each.

Every criterion is asserted at its stated tolerance, and every criterion
states a property the method actually has: where a channel's physics rules a
behaviour out (phase flip cannot plateau at late noise, it revives), the
criterion asserts the behaviour the channel does have, derived from the
channel alone, never a relaxed bound on the one it lacks.
"""

import numpy as np
import pytest
from numpy.random import default_rng

from reference import apply_kraus, block_matrix, sld_block
from xqmetro.channels import ChannelKind, ChannelParam, apply_kraus_dense
from xqmetro.cli import (
    channel_route_errors,
    crosscheck_error,
    family_oracle_errors,
    main,
    run_validation,
)
from xqmetro.ghz import Verdict, closed_form_concurrence, crosscheck_grid, ghz_family, werner_ghz
from xqmetro.linalg import psd_sqrt
from xqmetro.metrics import (
    ParamFamily,
    concurrence_ghz_class,
    qfi_total,
    random_family,
    skew_total,
)
from xqmetro.oracle import qfi_eigen_oracle, skew_sqrt_oracle
from xqmetro.xstate import XState, random_xstate, xstate_from_dense

Q_GRID = tuple(j / 10.0 for j in range(1, 10))
P_GRID = tuple(j / 10.0 for j in range(10))


@pytest.fixture
def report(capsys):
    def _report(criterion: str, label: str, ok: bool, detail: str) -> None:
        line = f"[{'PASS' if ok else 'FAIL'}] {criterion} {label} — {detail}"
        with capsys.disabled():
            print(f"\n{line}", flush=True)
        assert ok, line

    return _report


@pytest.fixture(scope="module")
def family_errors():
    rng = default_rng(777)
    corpus = [(random_family(rng), float(rng.uniform(0.2, 0.8))) for _ in range(200)]
    return family_oracle_errors(corpus)


def test_criterion_1_channel_route_equivalence(report):
    rng = default_rng(20260819)
    states = [random_xstate(rng) for _ in range(1000)]
    completeness, route_diff = channel_route_errors(states, np.linspace(0.0, 1.0, 11).tolist())
    ok = route_diff <= 1e-12 and completeness <= 1e-14
    report(
        "criterion-1",
        "channel-route-equivalence",
        ok,
        f"Kraus vs Bloch route max elementwise diff {route_diff:.3e} (tol 1e-12), "
        f"Kraus completeness {completeness:.3e} (tol 1e-14), "
        "over 1000 seeded states x 3 channels x 11 p values",
    )


def test_criterion_2_qfi_matches_eigen_oracle(report, family_errors):
    worst, _ = family_errors
    report(
        "criterion-2",
        "qfi-eigen-oracle",
        worst <= 1e-6,
        f"max relative error {worst:.3e} (tol 1e-6) over 200 random families",
    )


def test_criterion_3_skew_matches_sqrt_oracle(report, family_errors):
    _, worst = family_errors
    report(
        "criterion-3",
        "skew-sqrt-oracle",
        worst <= 1e-5,
        f"max relative error {worst:.3e} (tol 1e-5) over 200 random families",
    )


def test_criterion_4_ghz_closed_forms_agree(report):
    reports = [
        point
        for kind in (ChannelKind.PHASE_DAMPING, ChannelKind.PHASE_FLIP)
        for point in crosscheck_grid(kind, Q_GRID, P_GRID)
    ]
    checks = [check for point in reports for check in point.checks]
    worst = crosscheck_error(checks, lambda check: check.closed_form_delta)
    singular = sum(check.verdict is Verdict.SINGULAR for check in checks)
    pdc = ChannelKind.PHASE_DAMPING
    full_mixing = [
        abs(qfi_total(ghz_family(pdc, p), 1.0) - (3.0 + 4.0 * (1.0 - p) ** 6)) for p in P_GRID
    ]
    anchor_f = float(np.max(full_mixing))
    anchor_c = abs(closed_form_concurrence(pdc, 0.2, 0.1) - 0.4332)
    ok = worst <= 1e-8 and singular == 0 and anchor_f <= 1e-10 and anchor_c <= 1e-12
    report(
        "criterion-4",
        "ghz-closed-form-agreement",
        ok,
        f"max |closed form - pipeline| {worst:.3e} (tol 1e-8) on phase-damping and "
        f"phase-flip grids q in {{0.1..0.9}} x p in {{0..0.9}}; "
        f"full-mixing Fisher anchor 3+4(1-p)^6 off by {anchor_f:.3e}; "
        f"concurrence anchor 0.4332 off by {anchor_c:.3e}; "
        f"singular verdicts {singular} (must be 0)",
    )


def test_criterion_5_validation_passes_with_documented_deviations(report, capsys):
    validation = run_validation(grid=9, seed=42)
    rendered = validation.render()
    qfi_suite = next(s for s in validation.suites if s.name == "ghz-qfi-oracle")
    has_factor_warning = any(
        "3S^4/(16(1-S^2+qS^2))" in w and "3S^4/(4(1-S^2+qS^2))" in w and "factor 4" in w
        for w in validation.warnings
    )
    exit_code = main(["validate", "--grid", "9", "--seed", "42"])
    capsys.readouterr()
    ok = (
        validation.passed
        and exit_code == 0
        and has_factor_warning
        and qfi_suite.max_error <= 1e-6
        and "3S^4/(16(1-S^2+qS^2))" in rendered
    )
    report(
        "criterion-5",
        "validation-with-deviation-warnings",
        ok,
        f"grid 9 seed 42: exit code {exit_code}, all hard suites pass "
        f"(ghz-qfi-oracle max {qfi_suite.max_error:.3e} vs tol 1e-6), depolarizing "
        f"Fisher factor-4 discrepancy warned (present: {has_factor_warning}), never failed",
    )


def test_criterion_6a_depolarizing_monotone_decay(report):
    p_values = np.linspace(0.0, 0.9, 19)
    worst_rise = 0.0
    for q in Q_GRID:
        rows = []
        for p in p_values:
            family = ghz_family(ChannelKind.DEPOLARIZING, float(p))
            rows.append(
                (
                    qfi_total(family, q),
                    skew_total(family, q),
                    concurrence_ghz_class(family.state(q)),
                )
            )
        for a, b in zip(rows, rows[1:]):
            worst_rise = max(worst_rise, *(bv - av for av, bv in zip(a, b)))
    ok = worst_rise <= 1e-10
    report(
        "criterion-6a",
        "depolarizing-monotonicity",
        ok,
        f"qfi, skew, concurrence all non-increasing in p (largest rise {worst_rise:.3e}, "
        "tol 1e-10) for q in {0.1..0.9}",
    )


def _late_noise_relative_variation(kind: ChannelKind) -> tuple[float, float]:
    p_values = np.linspace(0.5, 0.9, 9)
    qfi = [qfi_total(ghz_family(kind, float(p)), 0.5) for p in p_values]
    skew = [skew_total(ghz_family(kind, float(p)), 0.5) for p in p_values]
    return (
        (max(qfi) - min(qfi)) / float(np.mean(qfi)),
        (max(skew) - min(skew)) / float(np.mean(skew)),
    )


def test_criterion_6b_phase_damping_plateau(report):
    rv_qfi, rv_skew = _late_noise_relative_variation(ChannelKind.PHASE_DAMPING)
    ok = rv_qfi <= 0.02 and rv_skew <= 0.02
    report(
        "criterion-6b",
        "phase-damping-plateau",
        ok,
        f"relative variation over p in [0.5, 0.9] at q=0.5: qfi {rv_qfi:.4%}, "
        f"skew {rv_skew:.4%} (tol 2%)",
    )


def test_criterion_6c_phase_flip_plateau(report):
    """Phase flip revives past p = 1/2 instead of plateauing.

    The per-qubit transverse factor is 1 - 2p, so for p >= 1/2 the channel at
    p is the channel at 1 - p followed by the fixed unitary Z x Z x Z: Fisher
    and skew information are mirror-symmetric about p = 1/2, where every
    coherence is gone and both reduce to the classical Fisher information of
    the populations.  A phase flip closer to p = 1/2 is a further phase flip
    of one farther away, so by data processing both metrics are
    non-decreasing on [1/2, 1] and climb back towards the unitary point p = 1.
    """
    q = 0.5
    kind = ChannelKind.PHASE_FLIP
    p_values = np.linspace(0.5, 0.9, 9)
    qfi = np.array([qfi_total(ghz_family(kind, float(p)), q) for p in p_values])
    skew = np.array([skew_total(ghz_family(kind, float(p)), q) for p in p_values])

    classical = 9.0 / (4.0 * (4.0 - 3.0 * q)) + 3.0 / (4.0 * q)
    anchor = max(abs(qfi[0] - classical), abs(skew[0] - classical))

    mirror = 0.0
    for p, f, s in zip(p_values, qfi, skew):
        mirrored = ghz_family(kind, float(1.0 - p))
        mirror = max(
            mirror,
            abs(f - qfi_total(mirrored, q)) / f,
            abs(s - skew_total(mirrored, q)) / s,
        )

    largest_drop = max(0.0, float(-np.diff(qfi).min()), float(-np.diff(skew).min()))
    revives = qfi[-1] > qfi[0] and skew[-1] > skew[0]

    d_werner = werner_ghz(1.0).to_dense() - werner_ghz(0.0).to_dense()
    oracle_qfi = 0.0
    oracle_skew = 0.0
    for p, f, s in zip(p_values, qfi, skew):
        param = ChannelParam(float(p))
        rho = apply_kraus_dense(werner_ghz(q).to_dense(), kind, param)
        drho = apply_kraus_dense(d_werner, kind, param)
        kraus_family = ParamFamily(
            state=lambda x, param=param: apply_kraus(werner_ghz(x), kind, param)
        )
        f_oracle = qfi_eigen_oracle(rho, drho)
        s_oracle = skew_sqrt_oracle(kraus_family, q)
        oracle_qfi = max(oracle_qfi, abs(f - f_oracle) / f_oracle)
        oracle_skew = max(oracle_skew, abs(s - s_oracle) / s_oracle)

    rv_qfi, rv_skew = _late_noise_relative_variation(kind)
    rv_pd_qfi, rv_pd_skew = _late_noise_relative_variation(ChannelKind.PHASE_DAMPING)
    ok = (
        anchor <= 1e-12
        and mirror <= 1e-12
        and largest_drop <= 1e-12
        and revives
        and oracle_qfi <= 1e-6
        and oracle_skew <= 1e-5
    )
    report(
        "criterion-6c",
        "phase-flip-revival",
        ok,
        f"q=0.5, p in [0.5, 0.9]: dephased anchor F=S=9/(4(4-3q))+3/(4q)={classical} "
        f"at p=0.5 off by {anchor:.3e} (tol 1e-12); mirror F(p)=F(1-p), S(p)=S(1-p) "
        f"max rel diff {mirror:.3e} (tol 1e-12); largest drop along the grid "
        f"{largest_drop:.3e} (tol 1e-12), revival qfi {qfi[0]:.6f} -> {qfi[-1]:.6f}, "
        f"skew {skew[0]:.6f} -> {skew[-1]:.6f}; Kraus-route oracles max rel err "
        f"qfi {oracle_qfi:.3e} (tol 1e-6), skew {oracle_skew:.3e} (tol 1e-5). "
        f"Late-noise variation qfi {rv_qfi:.4%}, skew {rv_skew:.4%} "
        f"(phase damping plateau: qfi {rv_pd_qfi:.4%}, skew {rv_pd_skew:.4%})",
    )


def test_criterion_6d_concurrence_exact_zero_crossing(report):
    q = 0.2
    p_star = 1.0 - (3.0 * q / (4.0 * (1.0 - q))) ** (1.0 / 3.0)
    before = concurrence_ghz_class(ghz_family(ChannelKind.PHASE_DAMPING, p_star - 1e-4).state(q))
    after = concurrence_ghz_class(ghz_family(ChannelKind.PHASE_DAMPING, p_star + 1e-4).state(q))
    crossing_ok = before > 0.0 and after == 0.0 and abs(p_star - 0.42764287872333406) < 1e-12
    all_reach_zero = True
    for kind in ChannelKind:
        for qq in (0.2, 0.5):
            values = [
                concurrence_ghz_class(ghz_family(kind, float(p)).state(qq))
                for p in np.linspace(0.0, 0.95, 96)
            ]
            all_reach_zero = all_reach_zero and values[0] > 0.0 and any(v == 0.0 for v in values)
    ok = crossing_ok and all_reach_zero
    report(
        "criterion-6d",
        "concurrence-zero-crossing",
        ok,
        f"phase damping at q=0.2 dies at p*={p_star:.12f} "
        f"(C(p*-1e-4)={before:.3e} > 0, C(p*+1e-4)={after}); every channel "
        "reaches exactly 0.0 at finite p for q in {0.2, 0.5} (max(0, .) clamp, "
        "no 1e-300 residue)",
    )


def test_criterion_7_property_suites(report):
    rng = default_rng(4242)
    checks: list[tuple[str, bool]] = []

    roundtrip = 0.0
    for _ in range(50):
        state = random_xstate(rng)
        dense = state.to_dense()
        roundtrip = max(roundtrip, float(np.abs(xstate_from_dense(dense).to_dense() - dense).max()))
    checks.append((f"dense roundtrip {roundtrip:.1e}<=1e-13", roundtrip <= 1e-13))

    psd_floor = 0.0
    trace_off = 0.0
    for _ in range(50):
        dense = random_xstate(rng).to_dense()
        eigenvalues = np.linalg.eigvalsh(dense)
        psd_floor = min(psd_floor, float(eigenvalues.min()))
        trace_off = max(trace_off, abs(float(np.trace(dense).real) - 1.0))
        psd_sqrt(dense)  # must not raise
    checks.append((f"spectra >= {psd_floor:.1e}, trace off {trace_off:.1e}", psd_floor >= -1e-12 and trace_off <= 1e-12))

    residual = 0.0
    for _ in range(50):
        w0 = rng.uniform(0.2, 0.9)
        vec = rng.normal(size=3)
        vec *= rng.uniform(0.1, 0.8) * w0 / np.linalg.norm(vec)
        w = np.array([w0, *vec])
        dw = rng.normal(size=4) * 0.3
        sld = sld_block(w, dw)
        block, dblock = block_matrix(w), block_matrix(dw)
        residual = max(
            residual, float(np.abs(2.0 * dblock - (sld @ block + block @ sld)).max())
        )
    checks.append((f"SLD residual {residual:.1e}<=1e-10", residual <= 1e-10))

    negative = 0.0
    sandwich_ok = True
    for _ in range(20):
        family = random_family(rng)
        phi = float(rng.uniform(0.1, 0.9))
        fisher, skew = qfi_total(family, phi), skew_total(family, phi)
        conc = concurrence_ghz_class(family.state(phi))
        negative = min(negative, fisher, skew, conc)
        sandwich_ok = sandwich_ok and (fisher - 1e-9 <= skew <= 2.0 * fisher + 1e-9)
    checks.append((f"metrics >= {negative:.1e}", negative >= -1e-12))
    checks.append(("F <= skew <= 2F sandwich", sandwich_ok))

    phase_gap = 0.0
    for _ in range(20):
        state = random_xstate(rng)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=4)
        rotated = XState(state.diag, state.anti * np.exp(1j * theta))
        phase_gap = max(
            phase_gap, abs(concurrence_ghz_class(rotated) - concurrence_ghz_class(state))
        )
    checks.append((f"phase invariance {phase_gap:.1e}<=1e-12", phase_gap <= 1e-12))

    first, second = random_xstate(default_rng(5)), random_xstate(default_rng(5))
    deterministic = bool(
        np.array_equal(first.diag, second.diag) and np.array_equal(first.anti, second.anti)
    )
    checks.append(("seeded determinism bit-exact", deterministic))

    ok = all(passed for _, passed in checks)
    report(
        "criterion-7",
        "property-suites",
        ok,
        "; ".join(label for label, _ in checks)
        + ("" if ok else " — failing: " + ", ".join(l for l, p in checks if not p)),
    )
