"""Fault matrix: which ``validate`` suites fail when the pipeline is broken on purpose.

Each fault replaces one function or table of the pipeline, the way a wrong
edit would change it, in every ``xqmetro`` module that binds it, and
``run_validation(3, 0)`` runs with it.  The first test pins the exact set of
failing suites per fault, so that a rewrite of ``validate`` can make it
neither more nor less sensitive unnoticed.  The second asks for more: a
failing suite other than ``ghz-closed-form-agreement``, the comparison with
the paper's transcribed forms, which cover only the Werner-GHZ family and
are themselves wrong for depolarizing.  A fault that no other suite catches
today is a strict xfail that names the blind suite; closing the gap turns it
into a pass that must be unmarked.
"""

import sys

import numpy as np
import pytest

from xqmetro import channels, metrics, xstate
from xqmetro.cli import run_validation


def scaled(name, factor):
    """``metrics.<name>`` with its result multiplied by ``factor``."""
    original = getattr(metrics, name)
    return lambda *args: original(*args) * factor


def odd_row_flipped():
    """``channels.M_ODD`` with the signs of row 1 (block 1's z-sector row) flipped."""
    table = np.array(channels.M_ODD)
    table[1] = -table[1]
    return table


def concurrence_without_pair_34():
    """``metrics._concurrence`` with the root of pair (3, 4) left out of the penalty."""
    original = metrics._concurrence
    keep = np.ones(8)
    keep[3] = 0.0  # rho_33 rho_44 reads 0, so its root adds nothing
    return lambda diag, anti: original(diag * keep, anti)


def transverse_squared():
    """``channels.bloch_damping_factors`` with the transverse factor squared."""
    original = channels.bloch_damping_factors

    def factors(kind, param):
        transverse, longitudinal = original(kind, param)
        return transverse * transverse, longitudinal

    return factors


def populations_1_6_swapped():
    """``xstate.bloch_from_compact`` with populations 1 and 6 (block 1's pair) swapped."""
    original = xstate.bloch_from_compact

    def bloch(diag, anti):
        diag = np.array(diag)
        diag[..., [1, 6]] = diag[..., [6, 1]]
        return original(diag, anti)

    return bloch


def rebind_everywhere(monkeypatch, original, value):
    """Bind ``value`` wherever an ``xqmetro`` module binds ``original``, as an
    import-time rebinding would; ``monkeypatch`` restores every binding.
    Returns the names of the modules rebound."""
    rebound = []
    for module_name, module in sorted(sys.modules.items()):
        if module is None or not (module_name == "xqmetro" or module_name.startswith("xqmetro.")):
            continue
        for attr, bound in list(vars(module).items()):
            if bound is original:
                monkeypatch.setattr(module, attr, value)
                rebound.append(module_name)
    return rebound


PAPER_FORMS = "ghz-closed-form-agreement"

# name: (module, attribute, faulty value, suites that validate --grid 3 --seed 0 fails)
FAULTS = {
    "concurrence-x1.01": (
        metrics, "_concurrence", lambda: scaled("_concurrence", 1.01), {PAPER_FORMS}
    ),
    "qfi-mixed-x(1+1e-7)": (
        metrics, "qfi_block_mixed", lambda: scaled("qfi_block_mixed", 1 + 1e-7), {PAPER_FORMS}
    ),
    "skew-mixed-x(1+1e-6)": (
        metrics, "skew_block", lambda: scaled("skew_block", 1 + 1e-6), {PAPER_FORMS}
    ),
    "skew-singular-x0": (
        metrics, "_skew_block_singular", lambda: scaled("_skew_block_singular", 0.0), set()
    ),
    "qfi-spectral-x2": (
        metrics, "_qfi_blocks_spectral", lambda: scaled("_qfi_blocks_spectral", 2.0), set()
    ),
    "m-odd-row-1-negated": (channels, "M_ODD", odd_row_flipped, {"channel-equivalence"}),
    "concurrence-without-pair-(3,4)": (
        metrics, "_concurrence", concurrence_without_pair_34, {PAPER_FORMS}
    ),
    "transverse-factor-squared": (
        channels,
        "bloch_damping_factors",
        transverse_squared,
        {
            "channel-equivalence",
            "ghz-concurrence-routes",
            "ghz-qfi-oracle",
            "ghz-skew-oracle",
            PAPER_FORMS,
        },
    ),
    "populations-1-6-swapped": (
        xstate, "bloch_from_compact", populations_1_6_swapped, {"channel-equivalence"}
    ),
}

SAME_CONCURRENCE = (
    "ghz-concurrence-routes runs the same _concurrence on the Kraus and on the compact image"
)
BLIND = {
    "concurrence-x1.01": SAME_CONCURRENCE,
    "qfi-mixed-x(1+1e-7)": "family-qfi-oracle and ghz-qfi-oracle allow a relative 1e-6",
    "skew-mixed-x(1+1e-6)": "family-skew-oracle and ghz-skew-oracle allow a relative 1e-5",
    "skew-singular-x0": "family-skew-oracle: no block of its corpus takes the fallback route",
    "qfi-spectral-x2": "family-qfi-oracle: no block of its corpus takes the fallback route",
    "concurrence-without-pair-(3,4)": SAME_CONCURRENCE,
}


def failing_suites(monkeypatch, fault):
    module, name, faulty, _ = FAULTS[fault]
    rebind_everywhere(monkeypatch, getattr(module, name), faulty())
    report = run_validation(3, 0)
    return {suite.name for suite in report.suites if not suite.passed}


@pytest.mark.parametrize("fault", FAULTS)
def test_exact_failing_suites(monkeypatch, fault):
    assert failing_suites(monkeypatch, fault) == FAULTS[fault][3]


@pytest.mark.parametrize(
    "fault",
    [
        pytest.param(fault, marks=pytest.mark.xfail(strict=True, reason=f"blind: {BLIND[fault]}"))
        if fault in BLIND
        else fault
        for fault in FAULTS
    ],
)
def test_caught_beyond_the_paper_forms(monkeypatch, fault):
    assert failing_suites(monkeypatch, fault) - {PAPER_FORMS}


def test_a_fault_reaches_every_binding(monkeypatch):
    original = xstate.bloch_from_compact
    rebound = rebind_everywhere(monkeypatch, original, populations_1_6_swapped())
    modules = ("channels", "cli", "ghz", "metrics", "xstate")
    assert rebound == [f"xqmetro.{name}" for name in modules]
    monkeypatch.undo()
    assert all(sys.modules[name].bloch_from_compact is original for name in rebound)
