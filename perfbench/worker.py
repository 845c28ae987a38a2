"""One repetition of a benchmark workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD SEED OUT_DIR TRACE

``src`` must be on PYTHONPATH.  Prints one JSON object: the perf_counter
reading once ``xqmetro`` is imported and ready (the parent subtracts its spawn
time, which works because perf_counter is the system-wide monotonic clock on
Linux), the wall time of the workload body, the reference loop's times before,
inside and after it (see ``speed.py``), peak resident memory, per-call latencies,
output digests, and with TRACE=1 the per-span counts and self times.
"""

import json
import resource
import sys
import time
from pathlib import Path

import xqmetro  # noqa: F401  (the whole package: setup ends when it is ready)
import xqmetro.cli  # noqa: F401

READY = time.perf_counter()

import xqmetro.channels as channels  # noqa: E402

from speed import calibrate  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv: list[str]) -> int:
    name, seed, out_dir, trace = argv[1], int(argv[2]), Path(argv[3]), argv[4] == "1"
    workload = WORKLOADS[name]
    inputs = workload.inputs(seed)
    tracer = Tracer() if trace else None
    calibrations = [calibrate()]
    paused = 0.0

    def pause() -> None:
        """Time the reference loop inside the body; the wall time leaves it out."""
        nonlocal paused
        begin = time.perf_counter()
        calibrations.append(calibrate())
        paused += time.perf_counter() - begin

    if tracer:
        tracer.install()
    start = time.perf_counter()
    record = workload.run(inputs, out_dir, pause)
    wall = time.perf_counter() - start - paused
    if tracer:
        tracer.uninstall()
    calibrations.append(calibrate())
    result = {
        "ready": READY,
        "calibration_s": calibrations,
        "wall_s": wall,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": workload.digest(record, out_dir),
        **record,
    }
    if tracer:
        result["spans"] = tracer.summary()
        result["triple_kraus"] = channels._triple_kraus.cache_info()._asdict()
        tracer.write(out_dir / "spans.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
