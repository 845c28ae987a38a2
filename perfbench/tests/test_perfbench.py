"""Self-tests of the benchmark: tracer coverage, trace transparency, seeded inputs.

Run with ``python3 -m pytest perfbench/tests``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import xqmetro  # noqa: E402
import xqmetro.cli  # noqa: E402
import xqmetro.ghz  # noqa: E402
import xqmetro.linalg  # noqa: E402
import xqmetro.metrics  # noqa: E402
import xqmetro.oracle  # noqa: E402
from xqmetro.channels import ChannelKind  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "sweep-grid": lambda seed: workloads.sweep_inputs(seed, q_count=3, p_count=3),
    "validate-suite": lambda seed: workloads.validate_inputs(seed, grid=1),
    "family-calls": lambda seed: workloads.family_inputs(
        seed, mix=(("analytic", 3), ("no-tangent", 2), ("rank1", 2))
    ),
}


@pytest.fixture
def tracer():
    recorder = tracing.Tracer()
    recorder.install()
    yield recorder
    recorder.uninstall()


def _counts(recorder):
    return {name: entry["calls"] for name, entry in recorder.summary().items()}


def _module_level_targets():
    for target, (module_name, path) in tracing.TARGETS.items():
        if "." not in path:
            yield target, getattr(sys.modules[module_name], path)


def test_every_binding_of_a_target_is_rebound_and_restored():
    bindings = {
        target: [
            (module, attr)
            for module in tracing._package_modules()
            for attr, value in vars(module).items()
            if value is original
        ]
        for target, original in _module_level_targets()
    }
    originals = dict(_module_level_targets())
    methods = {
        (cls, attr): cls.__dict__[attr]
        for cls, attr in (
            (xqmetro.xstate.XState, "__post_init__"),
            (xqmetro.metrics.ParamFamily, "bloch_at"),
            (xqmetro.metrics.ParamFamily, "tangent_at"),
        )
    }
    assert len(bindings["metrics.qfi_total"]) >= 4  # xqmetro, cli, ghz, metrics
    assert len(bindings["linalg.eigh"]) >= 4  # xqmetro, linalg, metrics, oracle

    recorder = tracing.Tracer()
    recorder.install()
    try:
        for target, places in bindings.items():
            wrappers = {id(getattr(module, attr)) for module, attr in places}
            assert len(wrappers) == 1, target
            assert getattr(*places[0]) is not originals[target], target
        for (cls, attr), original in methods.items():
            assert cls.__dict__[attr].__wrapped__ is original
    finally:
        recorder.uninstall()
    for (cls, attr), original in methods.items():
        assert cls.__dict__[attr] is original
    for target, places in bindings.items():
        for module, attr in places:
            assert getattr(module, attr) is originals[target], (target, module.__name__)


def test_call_is_caught_from_each_importing_module(tracer):
    family = xqmetro.ghz.ghz_family(ChannelKind.PHASE_DAMPING, 0.3)
    before = _counts(tracer)["metrics.qfi_total"]
    for module in (xqmetro, xqmetro.cli, xqmetro.ghz, xqmetro.metrics):
        module.qfi_total(family, 0.4)
    assert _counts(tracer)["metrics.qfi_total"] - before == 4

    rho = family.state(0.4).to_dense()
    xqmetro.metrics.eigh(rho[np.ix_([0, 7], [0, 7])])
    xqmetro.oracle.eigh(rho)
    xqmetro.linalg.eigh(rho)
    xqmetro.linalg.psd_sqrt(rho)  # reaches eigh through linalg's own global
    counts = _counts(tracer)
    assert counts["linalg.eigh_2x2"] == 1
    assert counts["linalg.eigh_8x8"] == 3


def test_spans_nest_and_self_time_excludes_children(tracer):
    family = xqmetro.ghz.ghz_family(ChannelKind.DEPOLARIZING, 0.2)
    xqmetro.metrics.qfi_total(family, 0.5)
    spans = tracer.spans()
    names = [tracing.SPAN_NAMES[i] for i in spans["name"]]
    top = names.index("metrics.qfi_total")
    assert spans["parent"][top] == tracing.ROOT
    children = [i for i, parent in enumerate(spans["parent"]) if parent == top]
    assert {names[i] for i in children} >= {
        "metrics.ParamFamily.bloch_at",
        "metrics.ParamFamily.tangent_at",
        "metrics.qfi_block_mixed",
    }
    for i in children:
        assert spans["start"][top] <= spans["start"][i] <= spans["end"][i] <= spans["end"][top]
    summary = tracer.summary()["metrics.qfi_total"]
    duration = spans["end"][top] - spans["start"][top]
    assert summary["calls"] == 1
    assert 0.0 < summary["self_s"] < duration


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_gives_the_same_outputs(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    inputs = SMALL[name](5)
    plain = workload.digest(workload.run(inputs, tmp_path), tmp_path)
    recorder = tracing.Tracer()
    recorder.install()
    try:
        record = workload.run(inputs, tmp_path)
    finally:
        recorder.uninstall()
    assert workload.digest(record, tmp_path) == plain
    assert sum(entry["calls"] for entry in recorder.summary().values()) > 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_input_generators_are_bit_exact(name):
    first, second = SMALL[name](11), SMALL[name](11)
    if name == "family-calls":
        assert [spec.kind for spec in first] == [spec.kind for spec in second]
        for a, b in zip(first, second):
            for field in ("logits", "slopes", "fraction", "theta", "rate"):
                assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
            assert a.phi == b.phi
            for part_a, part_b in zip(a.compact(a.phi), b.compact(b.phi)):
                assert part_a.tobytes() == part_b.tobytes()
    else:
        assert first == second


def test_seed_changes_the_inputs():
    assert SMALL["sweep-grid"](1) != SMALL["sweep-grid"](2)
    first, second = SMALL["family-calls"](1), SMALL["family-calls"](2)
    assert first[0].logits.tobytes() != second[0].logits.tobytes()


def test_rank1_skew_misses_are_counted_as_known_failures(tmp_path):
    inputs = workloads.family_inputs(3, mix=(("analytic", 2), ("rank1", 3)))
    record = workloads.family_run(inputs, tmp_path)
    attempted, failed, failures = workloads.family_tally(3, inputs, tmp_path, [record, record])
    assert attempted == 2 * 3 * len(inputs)
    assert failed == 2 * 3  # every rank-1 skew call, in both repetitions
    assert len(failures) == 3 and all(failure.known for failure in failures)
    assert all("family-calls seed=3 index=" in failure.message for failure in failures)


def test_a_raising_rank1_skew_call_is_not_a_known_failure(tmp_path):
    inputs = workloads.family_inputs(3, mix=(("rank1", 2),))
    record = workloads.family_run(inputs, tmp_path)
    record["values"][1] = None  # the skew call of the first rank-1 point raised
    _, failed, failures = workloads.family_tally(3, inputs, tmp_path, [record])
    assert failed == 2
    assert not all(failure.known for failure in failures)  # run.py: correct is false
