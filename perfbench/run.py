"""Benchmark driver for xqmetro: one workload, one seed, one JSON result.

Usage::

    python3 perfbench/run.py --workload {sweep-grid,validate-suite,family-calls}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the package is loaded from ``src/`` next to this
directory.  Each repetition of the workload's fixed input runs in a fresh
interpreter (every CLI user pays import and cache fill), one after another,
until ``--seconds`` have passed and at least three repetitions are done.  The
output checks run afterwards, outside the timed region.  Every reported time
is in reference-machine seconds (see ``speed.py``); the table also prints the
unscaled median wall time.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics.  A table
goes to stdout, failing ops to stderr, and the last stdout line is the JSON
result ``{"correct", "attempted", "failed", "metrics"}``.  Workers run with
one BLAS/OpenMP thread each, so numpy's thread pools do not time the
scheduler.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from speed import REFERENCE_S  # noqa: E402  (imports numpy: after the thread limits)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("sweep-grid", "validate-suite", "family-calls")
MIN_REPETITIONS = 3
WORKER_TIMEOUT_S = 150


def _nearest_rank(values: list[float], percent: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percent / 100.0 * len(ordered)) - 1)]


def _spawn(workload: str, seed: int, out_dir: Path, trace: bool, env: dict) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(out_dir),
         str(int(trace))],
        capture_output=True,
        text=True,
        env=env,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    return result


def _scale(rep: dict) -> float:
    """Factor that turns this repetition's times into reference-machine seconds."""
    return REFERENCE_S / statistics.mean(rep["calibration_s"])


def _median_scaled(reps: list[dict], key: str) -> float:
    return statistics.median(rep[key] * _scale(rep) for rep in reps)


def _median_percentile(reps: list[dict], percent: float) -> float:
    """Median over repetitions of each repetition's call-latency percentile.

    A percentile pooled over the run would be its slowest few calls, and those
    are whichever met the host's slow moments.
    """
    return statistics.median(
        _nearest_rank(rep["latencies_us"], percent) * _scale(rep) for rep in reps
    )


def _end_to_end(plain: list[dict], rows: int) -> dict[str, tuple[float, str]]:
    wall = _median_scaled(plain, "wall_s")
    calls = len(plain[0]["latencies_us"])
    return {
        "setup_s": (_median_scaled(plain, "setup_s"), "s"),
        "wall_s": (wall, "s"),
        "rows_per_s": (rows / wall, "1/s"),
        "calls_per_s": (calls / wall, "1/s"),
        "call_p50_us": (_median_percentile(plain, 50), "us"),
        "call_p99_us": (_median_percentile(plain, 99), "us"),
        "peak_rss_mib": (statistics.median(rep["peak_rss_mib"] for rep in plain), "MiB"),
    }


def _per_layer(plain: list[dict], traced: list[dict], ops: int) -> dict[str, tuple[float, str]]:
    def med(get) -> float:
        return statistics.median(get(rep) for rep in traced)

    names = traced[0]["spans"]
    out: dict[str, tuple[float, str]] = {}
    for name in names:
        out[f"{name}.calls"] = (med(lambda rep: rep["spans"][name]["calls"]), "count")
        out[f"{name}.self_s"] = (
            med(lambda rep: rep["spans"][name]["self_s"] * _scale(rep)), "s"
        )

    def calls(name: str) -> float:
        return out[f"{name}.calls"][0]

    for metric in ("qfi", "skew"):
        total = calls(f"metrics.{metric}_total")
        mixed = calls("metrics.qfi_block_mixed" if metric == "qfi" else "metrics.skew_block")
        out[f"metrics.{metric}_mixed_route_ratio"] = (mixed / (4 * total) if total else 0.0, "1")
    out["xstate.validations_per_op"] = (calls("xstate.XState.validate") / ops, "1")
    lookups = med(lambda rep: rep["triple_kraus"]["hits"] + rep["triple_kraus"]["misses"])
    hits = med(lambda rep: rep["triple_kraus"]["hits"])
    out["channels.triple_kraus_lookups"] = (lookups, "count")
    out["channels.triple_kraus_hit_ratio"] = (hits / lookups if lookups else 0.0, "1")
    out["tracing_overhead_s"] = (
        _median_scaled(traced, "wall_s") - _median_scaled(plain, "wall_s"), "s"
    )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "xqmetro" / "__init__.py").is_file():
        print(f"error: no xqmetro package under {SRC}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    # Compile the package's bytecode once, so no repetition's setup pays for it.
    subprocess.run([sys.executable, "-c", "import xqmetro.cli"], env=env, check=True)

    plain: list[dict] = []
    traced: list[dict] = []
    deadline = time.perf_counter() + args.seconds
    while (
        time.perf_counter() < deadline
        or len(plain) < MIN_REPETITIONS
        or (args.trace and len(traced) < MIN_REPETITIONS)
    ):
        trace = bool(args.trace) and len(traced) < len(plain)
        (traced if trace else plain).append(_spawn(args.workload, args.seed, out_dir, trace, env))

    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    rows = workload.rows(inputs)
    attempted, failed, failures = workload.tally(args.seed, inputs, out_dir, plain + traced)
    for failure in failures:
        print(f"FAIL {failure.message}", file=sys.stderr)
    correct = all(failure.known for failure in failures)

    ops = attempted // len(plain + traced)
    metrics = _per_layer(plain, traced, ops) if args.trace else _end_to_end(plain, rows)
    print(
        f"{args.workload} seed={args.seed}: {len(plain)} untraced + {len(traced)} traced"
        f" repetitions; per repetition {rows} rows, {ops} ops,"
        f" {len(plain[0]['latencies_us'])} calls"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:>16.6g} {unit}")
    print(f"  {'ops_failed_ratio':<42} {failed / attempted:>16.6g} 1  ({failed} of {attempted})")
    unscaled = statistics.median(rep["wall_s"] for rep in plain)
    speed = statistics.median(1.0 / _scale(rep) for rep in plain + traced)
    print(f"  unscaled median wall_s {unscaled:.6g} s; reference loop took x{speed:.4g} REFERENCE_S")
    for key, digest in plain[0]["digest"].items():
        print(f"  sha256 {key} {digest}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
