"""Seeded inputs, timed bodies and output checks of the three benchmark workloads.

Every input is drawn here from numpy's PCG64 generator seeded with the
benchmark seed, never by the package's own ``random_family`` /
``random_xstate``, so a change to the package cannot change the traffic it is
measured on.  The package is reached only through the public entry points of
``xqmetro.cli`` and ``xqmetro.metrics``, looked up at call time so that the
traced mode's rebound functions are the ones called.

Each workload (see :data:`WORKLOADS`) supplies

``inputs(seed)``
    the fixed input of one repetition;
``run(inputs, out_dir, pause)``
    the timed body: per-call latencies and raw outputs.  A long body calls
    ``pause()`` between its parts, so the worker can time the reference loop
    there (see ``speed.py``);
``digest(record, out_dir)``
    sha256 of the outputs, taken after the timed body;
``rows(inputs)``
    output rows per repetition;
``tally(seed, inputs, out_dir, reps)``
    the output checks, run once per benchmark run after every repetition:
    ops attempted and failed over all repetitions, and one :class:`Failure`
    per failing op naming the (workload, seed, index) that reproduces it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import xqmetro.channels as channels
import xqmetro.cli as cli
import xqmetro.metrics as metrics
import xqmetro.oracle as oracle
from xqmetro.ghz import GHZ_QMIN
from xqmetro.xstate import BLOCK_PAIRS, XState, XTangent, xstate_from_dense

# The tolerances of ``xqmetro validate``.
QFI_RTOL = 1e-6
SKEW_RTOL = 1e-5
CONCURRENCE_ATOL = 1e-12

SWEEP_CHANNELS = ("pdc", "dpc", "pfc")
SWEEP_Q_COUNT = 40
SWEEP_P_COUNT = 51
SWEEP_SAMPLE = 16  # oracle-checked rows per channel

VALIDATE_GRID = 9

# family-calls mix: mixed blocks with an analytic tangent, no tangent (central
# differences), and one rank-1 block whose tangent stays rank-1.
FAMILY_MIX = (("analytic", 840), ("no-tangent", 240), ("rank1", 120))
FAMILY_METRICS = ("qfi", "skew", "concurrence")

_ROWS = np.array([pair[0] for pair in BLOCK_PAIRS])
_COLS = np.array([pair[1] for pair in BLOCK_PAIRS])


class Failure(NamedTuple):
    """One failing op.  ``known`` marks the documented rank-1 skew defect."""

    message: str
    known: bool = False


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _relative(value: float, reference: float) -> float:
    return abs(value - reference) / max(reference, 1e-9)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _dense(diag: np.ndarray, anti: np.ndarray) -> np.ndarray:
    out = np.diag(diag).astype(complex)
    out[_ROWS, _COLS] = anti
    out[_COLS, _ROWS] = np.conj(anti)
    return out


def _concurrence_from_dense(rho: np.ndarray) -> float:
    penalty = sum(np.sqrt(rho[i, i].real * rho[j, j].real) for i, j in BLOCK_PAIRS[1:])
    return float(2.0 * max(0.0, abs(rho[0, 7]) - penalty))


# ---------------------------------------------------------------- sweep-grid


def sweep_inputs(seed: int, q_count: int = SWEEP_Q_COUNT, p_count: int = SWEEP_P_COUNT):
    """The q list of each channel's ``sweep`` call, both ends of [GHZ_QMIN, 1]
    included, and the number of points of the inclusive p grid on [0, 1]."""
    inner = np.sort(_rng(seed, 1).uniform(GHZ_QMIN, 1.0, q_count - 2))
    return (GHZ_QMIN, *(float(q) for q in inner), 1.0), p_count


def _sweep_path(out_dir: Path, channel: str) -> Path:
    return out_dir / f"sweep-{channel}.csv"


def sweep_run(inputs, out_dir: Path, pause=lambda: None) -> dict:
    """One ``sweep`` call per channel over the whole (q, p) grid."""
    q_list, p_count = inputs
    latencies, codes = [], []
    for number, channel in enumerate(SWEEP_CHANNELS):
        if number:
            pause()
        argv = [
            "sweep", "--channel", channel, "--metrics", "qfi,skew,concurrence",
            "--q", ",".join(repr(q) for q in q_list), "--p", f"0:1:{p_count}",
            "--output", str(_sweep_path(out_dir, channel)),
        ]
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            code = repr(exc)
        latencies.append((time.perf_counter() - start) * 1e6)
        codes.append(code)
    return {"latencies_us": latencies, "codes": codes}


def sweep_digest(record: dict, out_dir: Path) -> dict:
    """sha256 of each channel's CSV."""
    return {
        channel: _sha256(_sweep_path(out_dir, channel).read_bytes()) if code == 0 else None
        for channel, code in zip(SWEEP_CHANNELS, record["codes"])
    }


def _werner_dense(q: float) -> np.ndarray:
    ghz = np.zeros(8)
    ghz[0] = ghz[7] = 1.0 / np.sqrt(2.0)
    return q / 8.0 * np.eye(8, dtype=complex) + (1.0 - q) * np.outer(ghz, ghz)


def _werner_tangent_dense() -> np.ndarray:
    return _werner_dense(1.0) - _werner_dense(0.0)


def _kraus_route(channel: str, p: float):
    kind = channels.ChannelKind.from_label(channel)
    param = channels.ChannelParam(p)
    return lambda matrix: channels.apply_kraus_dense(matrix, kind, param)


def sweep_rows(inputs) -> int:
    q_list, p_count = inputs
    return len(SWEEP_CHANNELS) * len(q_list) * p_count


def _sweep_oracle_check(seed: int, inputs, out_dir: Path):
    """Hold a seeded sample of rows per channel to the Kraus-route oracles.

    Returns ``{channel: [failing row index, ...]}`` and one failure each,
    naming the ``ghz-point`` call that reproduces it.
    """
    per_channel = sweep_rows(inputs) // len(SWEEP_CHANNELS)
    rng = _rng(seed, 2)
    bad: dict[str, list[int]] = {}
    failures: list[Failure] = []
    for channel in SWEEP_CHANNELS:
        with open(_sweep_path(out_dir, channel), newline="", encoding="utf-8") as handle:
            table = list(csv.reader(handle))[1:]
        bad[channel] = []
        if len(table) != per_channel:
            bad[channel] = list(range(per_channel))
            failures.append(Failure(
                f"sweep-grid seed={seed} channel={channel}: {len(table)} rows,"
                f" expected {per_channel}"
            ))
            continue
        for index in sorted(rng.choice(per_channel, SWEEP_SAMPLE, replace=False)):
            _, q_text, p_text, *values = table[index]
            q, p = float(q_text), float(p_text)
            qfi, skew, concurrence = (float(v) for v in values)
            damp = _kraus_route(channel, p)
            rho = damp(_werner_dense(q))
            family = metrics.ParamFamily(
                state=lambda x, damp=damp: xstate_from_dense(damp(_werner_dense(x)))
            )
            qfi_ref = float(oracle.qfi_eigen_oracle(rho, damp(_werner_tangent_dense())))
            skew_ref = oracle.skew_sqrt_oracle(family, q)
            conc_ref = _concurrence_from_dense(rho)
            if (
                _relative(qfi, qfi_ref) > QFI_RTOL
                or _relative(skew, skew_ref) > SKEW_RTOL
                or abs(concurrence - conc_ref) > CONCURRENCE_ATOL + _csv_rounding(concurrence)
            ):
                bad[channel].append(int(index))
                failures.append(Failure(
                    f"sweep-grid seed={seed} channel={channel} row={index}:"
                    f" qfi {qfi!r}/{qfi_ref!r} skew {skew!r}/{skew_ref!r}"
                    f" concurrence {concurrence!r}/{conc_ref!r} (pipeline/oracle);"
                    f" reproduce: python -m xqmetro ghz-point --channel {channel}"
                    f" --q {q_text} --p {p_text}"
                ))
    return bad, failures


def _csv_rounding(value: float) -> float:
    """Largest error of the CSV's 12-significant-digit rendering of ``value``."""
    return 0.0 if value == 0.0 else 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - 11)


def sweep_tally(seed: int, inputs, out_dir: Path, reps: list[dict]):
    """An op is one CSV row.  A row fails when its ``sweep`` call raised or exited
    nonzero, when its channel's CSV differs from the first repetition's, or
    when it is a sampled row that misses an oracle."""
    per_channel = sweep_rows(inputs) // len(SWEEP_CHANNELS)
    reference = reps[0]["digest"]
    if None not in reference.values() and sweep_digest(reps[0], out_dir) == reference:
        bad, failures = _sweep_oracle_check(seed, inputs, out_dir)
    else:
        bad = {channel: list(range(per_channel)) for channel in SWEEP_CHANNELS}
        failures = [Failure(f"sweep-grid seed={seed}: no consistent CSV output to check")]
    q_list, p_count = inputs
    failed = 0
    for number, rep in enumerate(reps):
        for channel, code in zip(SWEEP_CHANNELS, rep["codes"]):
            if code != 0:
                failed += per_channel
                failures.append(Failure(
                    f"sweep-grid seed={seed} repetition={number} channel={channel}:"
                    f" exit {code!r}; reproduce: python -m xqmetro sweep --channel {channel}"
                    f" --q {','.join(map(repr, q_list))} --p 0:1:{p_count}"
                ))
            elif rep["digest"][channel] != reference[channel]:
                failed += per_channel
                failures.append(Failure(
                    f"sweep-grid seed={seed} repetition={number} channel={channel}:"
                    f" CSV sha256 {rep['digest'][channel]} differs from the first"
                    f" repetition's {reference[channel]}"
                ))
            else:
                failed += len(bad[channel])
    return len(reps) * sweep_rows(inputs), failed, failures


# ------------------------------------------------------------ validate-suite


def validate_inputs(seed: int, grid: int = VALIDATE_GRID):
    return grid, seed


def validate_run(inputs, out_dir: Path, pause=lambda: None) -> dict:
    grid, seed = inputs
    buffer = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buffer):
            code = cli.main(["validate", "--grid", str(grid), "--seed", str(seed)])
    except Exception as exc:
        code = repr(exc)
    latency = (time.perf_counter() - start) * 1e6
    (out_dir / "validate-report.txt").write_text(buffer.getvalue(), encoding="utf-8")
    return {"latencies_us": [latency], "codes": [code]}


def validate_digest(record: dict, out_dir: Path) -> dict:
    return {"report": _sha256((out_dir / "validate-report.txt").read_bytes())}


def validate_rows(inputs) -> int:
    """Crosscheck grid points: 3 channels x grid q values x (grid + 1) p values."""
    grid, _ = inputs
    return 3 * grid * (grid + 1)


def validate_tally(seed: int, inputs, out_dir: Path, reps: list[dict]):
    """An op is one ``validate`` call; it fails unless it exits 0 with the same
    report as the first repetition."""
    grid, cli_seed = inputs
    reference = reps[0]["digest"]["report"]
    failures = []
    for number, rep in enumerate(reps):
        code, digest = rep["codes"][0], rep["digest"]["report"]
        if code != 0 or digest != reference:
            failures.append(Failure(
                f"validate-suite seed={seed} repetition={number}: exit {code!r},"
                f" report sha256 {digest} (first repetition {reference});"
                f" reproduce: python -m xqmetro validate --grid {grid} --seed {cli_seed}"
            ))
    return len(reps), len(failures), failures


# -------------------------------------------------------------- family-calls


@dataclass(frozen=True)
class FamilySpec:
    """A seeded X-state family and the point at which it is evaluated.

    Populations follow ``softmax(logits + slopes * phi)``; coherence k is
    ``fraction[k] * sqrt(rho_ii rho_jj) * exp(i (theta[k] + rate[k] phi))``.
    A fraction of exactly 1 keeps that block rank-1 along the whole family.
    """

    kind: str
    logits: np.ndarray
    slopes: np.ndarray
    fraction: np.ndarray
    theta: np.ndarray
    rate: np.ndarray
    phi: float

    def compact(self, phi: float):
        z = np.exp(self.logits + self.slopes * phi)
        diag = z / z.sum()
        radius = self.fraction * np.sqrt(diag[_ROWS] * diag[_COLS])
        return diag, radius * np.exp(1j * (self.theta + self.rate * phi))

    def derivative(self, phi: float):
        diag, anti = self.compact(phi)
        ddiag = diag * (self.slopes - diag @ self.slopes)
        prod = diag[_ROWS] * diag[_COLS]
        dprod = ddiag[_ROWS] * diag[_COLS] + diag[_ROWS] * ddiag[_COLS]
        dradius = self.fraction * dprod / (2.0 * np.sqrt(prod))
        phase = np.exp(1j * (self.theta + self.rate * phi))
        return ddiag, dradius * phase + 1j * self.rate * anti

    def family(self) -> metrics.ParamFamily:
        def state(phi: float) -> XState:
            return XState(*self.compact(phi))

        if self.kind == "no-tangent":
            return metrics.ParamFamily(state=state)
        return metrics.ParamFamily(
            state=state, tangent=lambda phi: XTangent(*self.derivative(phi))
        )


def family_inputs(seed: int, mix=FAMILY_MIX) -> list[FamilySpec]:
    """Fixed counts per kind, shuffled; every draw comes from one seeded stream."""
    rng = _rng(seed, 3)
    specs = []
    for kind, count in mix:
        for _ in range(count):
            fraction = rng.uniform(0.1, 0.85, 4)
            if kind == "rank1":
                fraction[rng.integers(4)] = 1.0
            specs.append(
                FamilySpec(
                    kind=kind,
                    logits=rng.normal(0.0, 0.5, 8),
                    slopes=rng.uniform(-1.0, 1.0, 8),
                    fraction=fraction,
                    theta=rng.uniform(0.0, 2.0 * np.pi, 4),
                    rate=rng.uniform(-2.0, 2.0, 4),
                    phi=float(rng.uniform(0.2, 0.8)),
                )
            )
    order = rng.permutation(len(specs))
    return [specs[i] for i in order]


def _family_calls(family: metrics.ParamFamily, phi: float):
    return (
        lambda: metrics.qfi_total(family, phi),
        lambda: metrics.skew_total(family, phi),
        lambda: metrics.concurrence_ghz_class(family.state(phi)),
    )


def family_run(inputs: list[FamilySpec], out_dir: Path, pause=lambda: None) -> dict:
    families = [(spec.family(), spec.phi) for spec in inputs]
    latencies, values = [], []
    clock = time.perf_counter
    for family, phi in families:
        for call in _family_calls(family, phi):
            start = clock()
            try:
                value = call()
            except Exception:
                value = None
            latencies.append((clock() - start) * 1e6)
            values.append(value)
    return {"latencies_us": latencies, "values": values}


def family_digest(record: dict, out_dir: Path) -> dict:
    return {"values": _sha256(repr(record["values"]).encode())}


def family_rows(inputs: list[FamilySpec]) -> int:
    return len(inputs)


def _family_oracle_check(seed: int, inputs: list[FamilySpec], values: list):
    """Hold every call to the oracles; returns failing call indices and failures.

    A skew failure on a rank-1 family is the rank-deficient skew defect listed
    in the roadmap.  It is counted like any other failure and marked known.
    """
    bad, failures = set(), []
    for point, spec in enumerate(inputs):
        rho = _dense(*spec.compact(spec.phi))
        drho = _dense(*spec.derivative(spec.phi))
        references = (
            float(oracle.qfi_eigen_oracle(rho, drho)),
            oracle.skew_sqrt_oracle(spec.family(), spec.phi),
            _concurrence_from_dense(rho),
        )
        for offset, (name, reference) in enumerate(zip(FAMILY_METRICS, references)):
            index = 3 * point + offset
            value = values[index]
            if value is None:
                failed = True
            elif name == "qfi":
                failed = _relative(value, reference) > QFI_RTOL
            elif name == "skew":
                failed = _relative(value, reference) > SKEW_RTOL
            else:
                failed = abs(value - reference) > CONCURRENCE_ATOL
            if failed:
                bad.add(index)
                known = spec.kind == "rank1" and name == "skew" and value is not None
                failures.append(Failure(
                    f"family-calls seed={seed} index={index} (point {point},"
                    f" {spec.kind}, {name}): pipeline {value!r} oracle {reference!r}"
                    f"{' [known rank-1 skew defect]' if known else ''};"
                    f" reproduce: workloads.family_inputs({seed})[{point}]",
                    known,
                ))
    return bad, failures


def family_tally(seed: int, inputs: list[FamilySpec], out_dir: Path, reps: list[dict]):
    """An op is one metric call.  It fails when it raised, when its value differs
    from the first repetition's, or when it misses an oracle."""
    reference = reps[0]["values"]
    bad, failures = _family_oracle_check(seed, inputs, reference)
    failed = 0
    for number, rep in enumerate(reps):
        drift = {i for i, value in enumerate(rep["values"]) if value != reference[i]}
        if drift:
            failures.append(Failure(
                f"family-calls seed={seed} repetition={number}: {len(drift)} values"
                f" differ from the first repetition, first at index {min(drift)}"
            ))
        failed += len(bad | drift)
    return len(reps) * len(reference), failed, failures


class Workload(NamedTuple):
    inputs: Callable
    run: Callable
    digest: Callable
    rows: Callable
    tally: Callable


WORKLOADS = {
    "sweep-grid": Workload(sweep_inputs, sweep_run, sweep_digest, sweep_rows, sweep_tally),
    "validate-suite": Workload(
        validate_inputs, validate_run, validate_digest, validate_rows, validate_tally
    ),
    "family-calls": Workload(
        family_inputs, family_run, family_digest, family_rows, family_tally
    ),
}
