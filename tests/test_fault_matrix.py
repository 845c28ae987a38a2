"""Fault matrix: which ``validate`` suites fail when the pipeline is broken on purpose.

Each fault rebinds one module attribute of the pipeline, the way a wrong
edit would change it, and ``run_validation(3, 0)`` runs with it.  The first
test pins the exact set of failing suites per fault, so that a rewrite of
``validate`` can make it neither more nor less sensitive unnoticed.  The
second asks for more: a failing suite other than ``ghz-closed-form-agreement``,
the comparison with the paper's transcribed forms, which cover only the
Werner-GHZ family and are themselves wrong for depolarizing.  A fault that
no other suite catches today is a strict xfail that names the blind suite;
closing the gap turns it into a pass that must be unmarked.
"""

import numpy as np
import pytest

from xqmetro import channels, metrics
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
}

BLIND = {
    "concurrence-x1.01": "ghz-concurrence-routes runs the same _concurrence on the Kraus"
    " and on the compact image",
    "qfi-mixed-x(1+1e-7)": "family-qfi-oracle and ghz-qfi-oracle allow a relative 1e-6",
    "skew-mixed-x(1+1e-6)": "family-skew-oracle and ghz-skew-oracle allow a relative 1e-5",
    "skew-singular-x0": "family-skew-oracle: no block of its corpus takes the fallback route",
    "qfi-spectral-x2": "family-qfi-oracle: no block of its corpus takes the fallback route",
}


def failing_suites(monkeypatch, fault):
    module, name, faulty, _ = FAULTS[fault]
    monkeypatch.setattr(module, name, faulty())
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
