"""Command-line front end: metric sweeps, validation runs, crosscheck reports.

Three subcommands:

``sweep``
    Damped Werner-GHZ metric table over a (q, p) grid, as CSV or JSON.
``validate``
    Seeded oracle-equivalence suites plus the GHZ crosscheck grid; known
    closed-form deviations are printed as warnings, never failures.
``ghz-point``
    Pipeline, reference closed form, and brute-force oracle side by side at
    one grid point.

Exit codes: 0 success, 1 validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from .channels import (
    ChannelKind,
    ChannelParam,
    apply_kraus_dense,
    damped_bloch_array,
    kraus_operators,
)
from .errors import BadParameterError, XQMetroError
from .ghz import (
    GHZ_QMIN,
    CrosscheckReport,
    Verdict,
    crosscheck,
    crosscheck_grid,
    depolarizing_qfi_gap,
    ghz_grid,
)
from .metrics import qfi_total, random_family, skew_total
from .oracle import family_oracles
from .xstate import (
    bloch_from_compact,
    check_bloch,
    check_compact,
    compact_from_bloch,
    compact_from_dense,
    dense_from_compact,
    random_xstate,
)

METRIC_NAMES = ("qfi", "skew", "concurrence")
CSV_HEADER = ("channel", "q", "p", "qfi", "skew", "concurrence")


def _sig12(value: float) -> str:
    return f"{value:.12g}"


@dataclass(frozen=True)
class SweepSpec:
    """One sweep request: channel, metric subset, q list, inclusive p grid."""

    channel: ChannelKind
    metrics: tuple[str, ...]
    q_values: tuple[float, ...]
    p_start: float
    p_stop: float
    p_count: int
    fmt: str = "csv"
    output: str | None = None

    def __post_init__(self) -> None:
        for name in self.metrics:
            if name not in METRIC_NAMES:
                raise BadParameterError(
                    f"--metrics: unknown metric {name!r}; choose from {', '.join(METRIC_NAMES)}"
                )
        if not self.metrics:
            raise BadParameterError("--metrics: at least one metric is required")
        if not self.q_values:
            raise BadParameterError("--q: at least one value is required")
        for q in self.q_values:
            if not np.isfinite(q) or not GHZ_QMIN <= q <= 1.0:
                raise BadParameterError(f"--q: values must lie in [{GHZ_QMIN}, 1], got {q!r}")
        if self.p_count < 2:
            raise BadParameterError(f"--p: count must be at least 2, got {self.p_count}")
        if not (
            np.isfinite(self.p_start)
            and np.isfinite(self.p_stop)
            and 0.0 <= self.p_start <= self.p_stop <= 1.0
        ):
            raise BadParameterError(
                f"--p: need 0 <= start <= stop <= 1, got {self.p_start!r}:{self.p_stop!r}"
            )
        if self.fmt not in ("csv", "json"):
            raise BadParameterError(f"--format: must be csv or json, got {self.fmt!r}")


def _sweep_cells(spec: SweepSpec) -> tuple[list[str], list[str], dict[str, list[str]]]:
    """The sweep's values as 12-significant-digit text, each formatted once.

    One :func:`ghz_grid` call gives the requested metrics over the whole
    grid.  Returns the q cells (one per q), the p cells (one per p) and the
    cells of each requested metric, flattened q outer, p inner.
    """
    p_values = np.linspace(spec.p_start, spec.p_stop, spec.p_count).tolist()
    grid = ghz_grid(spec.channel, spec.q_values, p_values, spec.metrics)
    cells = {
        name: [f"{x:.12g}" for x in values.ravel().tolist()] for name, values in grid.items()
    }
    return [f"{q:.12g}" for q in spec.q_values], [f"{p:.12g}" for p in p_values], cells


def run_sweep(spec: SweepSpec) -> list[dict]:
    """Evaluate the requested metrics on the (q, p) grid, q outer, p inner.

    Values come from the trusted pipeline (closed-form channel route plus
    analytic d/dq), evaluated over the whole grid by :func:`ghz_grid` and
    rounded to 12 significant digits; metrics not requested are None.
    """
    q_cells, p_cells, cells = _sweep_cells(spec)
    p_values = [float(cell) for cell in p_cells]
    rows = [
        {
            "channel": spec.channel.value,
            "q": float(q),
            "p": p,
            "qfi": None,
            "skew": None,
            "concurrence": None,
        }
        for q in q_cells
        for p in p_values
    ]
    for name, column in cells.items():
        for row, cell in zip(rows, column):
            row[name] = float(cell)
    return rows


def render_csv(spec: SweepSpec) -> str:
    """The sweep as CSV: a header, then one line per (q, p), q outer, p inner.

    Every value is formatted once (:func:`_sweep_cells`) and each line fills
    one ``%s`` template, with an empty cell per metric not requested.  No
    field needs quoting: they are numbers, empty cells and the channel label.
    """
    q_cells, p_cells, cells = _sweep_cells(spec)
    template = f"{spec.channel.value},%s,%s"
    template += "".join(",%s" if name in cells else "," for name in METRIC_NAMES) + "\n"
    columns = [cells[name] for name in METRIC_NAMES if name in cells]
    q_column = [q for q in q_cells for _ in p_cells]
    p_column = p_cells * len(q_cells)
    lines = [template % row for row in zip(q_column, p_column, *columns)]
    return ",".join(CSV_HEADER) + "\n" + "".join(lines)


def render_json(rows: list[dict]) -> str:
    return json.dumps(rows, indent=2) + "\n"


@dataclass(frozen=True)
class SuiteResult:
    name: str
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance


@dataclass(frozen=True)
class ValidationReport:
    grid: int
    seed: int
    suites: tuple[SuiteResult, ...]
    warnings: tuple[str, ...]
    notes: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return all(suite.passed for suite in self.suites)

    def render(self) -> str:
        lines = [f"validation report  grid={self.grid}  seed={self.seed}"]
        lines.append(f"{'suite':<28}{'max error':>12}{'tolerance':>12}  status")
        for suite in self.suites:
            lines.append(
                f"{suite.name:<28}{suite.max_error:>12.3e}{suite.tolerance:>12.1e}"
                f"  {'pass' if suite.passed else 'FAIL'}"
            )
        lines.extend(f"warning: {text}" for text in self.warnings)
        lines.extend(f"note: {text}" for text in self.notes)
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _grid_axes(grid: int) -> tuple[list[float], list[float]]:
    step = 1.0 / (grid + 1)
    q_values = [step * j for j in range(1, grid + 1)]
    p_values = [step * j for j in range(grid + 1)]
    return q_values, p_values


def run_validation(grid: int, seed: int) -> ValidationReport:
    """Run every hard-invariant suite plus the GHZ crosscheck grid.

    Deterministic for fixed (grid, seed): corpora are drawn from
    numpy.random.default_rng(seed) (the PCG64 generator).  Known deviations
    of the depolarizing reference closed forms are reported as warnings and
    do not affect the pass/fail outcome.
    """
    if grid < 1:
        raise BadParameterError(f"--grid: must be a positive integer, got {grid}")
    rng = np.random.default_rng(seed)
    p_probe = [float(p) for p in np.linspace(0.0, 1.0, 11)]
    suites = []

    err = 0.0
    for kind in ChannelKind:
        for p in p_probe:
            ops = kraus_operators(kind, ChannelParam(p))
            total = sum(op.conj().T @ op for op in ops)
            err = max(err, float(np.abs(total - np.eye(2)).max()))
    suites.append(SuiteResult("kraus-completeness", err, 1e-14))

    # Both routes run over the whole corpus at once, and every state passes the
    # checks it would pass alone: check_bloch on the input and the Bloch image,
    # XState on both images, the dense X pattern on the Kraus image.  A
    # failure names its element of the stack.
    states = [random_xstate(rng) for _ in range(12 * grid)]
    diag = np.stack([state.diag for state in states])
    anti = np.stack([state.anti for state in states])
    bloch = bloch_from_compact(diag, anti)
    check_bloch(bloch)
    dense = dense_from_compact(diag, anti)
    params = [ChannelParam(p) for p in p_probe]
    err = 0.0
    for kind in ChannelKind:
        damped = damped_bloch_array(kind, bloch, params)
        check_bloch(damped)
        damped_diag, damped_anti = compact_from_bloch(damped)
        check_compact(damped_diag, damped_anti)
        for k, param in enumerate(params):
            kraus_diag, kraus_anti = compact_from_dense(apply_kraus_dense(dense, kind, param))
            via_kraus = dense_from_compact(kraus_diag, kraus_anti)
            via_bloch = dense_from_compact(damped_diag[k], damped_anti[k])
            err = max(err, float(np.abs(via_kraus - via_bloch).max()))
    suites.append(SuiteResult("channel-equivalence", err, 1e-12))

    # Every (family, phi) point is drawn first; the oracles then take all of
    # their spectra from one stacked eigensolver call.
    points = []
    for _ in range(6 * grid):
        family = random_family(rng)
        points.append((family, float(rng.uniform(0.2, 0.8))))
    qfi_err = 0.0
    skew_err = 0.0
    for (family, phi), (qfi_oracle, skew_oracle) in zip(points, family_oracles(points)):
        qfi_err = max(qfi_err, abs(qfi_total(family, phi) - qfi_oracle) / max(qfi_oracle, 1e-9))
        skew_err = max(
            skew_err, abs(skew_total(family, phi) - skew_oracle) / max(skew_oracle, 1e-9)
        )
    suites.append(SuiteResult("family-qfi-oracle", qfi_err, 1e-6))
    suites.append(SuiteResult("family-skew-oracle", skew_err, 1e-5))

    q_values, p_values = _grid_axes(grid)
    reports: dict[ChannelKind, list[CrosscheckReport]] = {
        kind: crosscheck_grid(kind, q_values, p_values) for kind in ChannelKind
    }
    singular = sum(
        check.verdict is Verdict.SINGULAR
        for kind_reports in reports.values()
        for report in kind_reports
        for check in (report.qfi, report.skew, report.concurrence)
    )

    agree_err = 0.0
    for kind in (ChannelKind.PHASE_DAMPING, ChannelKind.PHASE_FLIP):
        for report in reports[kind]:
            for check in (report.qfi, report.skew, report.concurrence):
                if check.verdict is not Verdict.SINGULAR:
                    agree_err = max(agree_err, check.closed_form_delta)
    suites.append(SuiteResult("ghz-closed-form-agreement", agree_err, 1e-8))

    qfi_err = skew_err = conc_err = 0.0
    for kind in ChannelKind:
        for report in reports[kind]:
            if report.qfi.verdict is not Verdict.SINGULAR:
                qfi_err = max(qfi_err, report.qfi.oracle_delta)
            if report.skew.verdict is not Verdict.SINGULAR:
                skew_err = max(skew_err, report.skew.oracle_delta)
            if report.concurrence.verdict is not Verdict.SINGULAR:
                conc_err = max(conc_err, abs(report.concurrence.pipeline - report.concurrence.oracle))
    suites.append(SuiteResult("ghz-qfi-oracle", qfi_err, 1e-6))
    suites.append(SuiteResult("ghz-skew-oracle", skew_err, 1e-5))
    suites.append(SuiteResult("ghz-concurrence-routes", conc_err, 1e-12))

    dpc = reports[ChannelKind.DEPOLARIZING]
    qfi_gap = max(check.qfi.closed_form_delta for check in dpc)
    gap_mismatch = max(
        abs(check.qfi.closed_form_delta - depolarizing_qfi_gap(check.q, check.p))
        for check in dpc
    )
    skew_gap = max(check.skew.closed_form_delta for check in dpc)
    conc_gap = max(check.concurrence.closed_form_delta for check in dpc)
    warnings = (
        "depolarizing Fisher information: the reference closed form's diagonal"
        " term reads 3S^4/(16(1-S^2+qS^2)) where pipeline and oracle give"
        " 3S^4/(4(1-S^2+qS^2)) — a factor 4; observed deficit matches"
        f" (9/16)S^4/(1-S^2+qS^2) to {gap_mismatch:.3e}"
        f" (max |pipeline-closed| = {qfi_gap:.3e})",
        "depolarizing skew information: reference closed form deviates from the"
        f" pipeline (transcribed verbatim); max |pipeline-closed| = {skew_gap:.3e}",
        "depolarizing concurrence: reference closed form deviates from the"
        f" pipeline; max |pipeline-closed| = {conc_gap:.3e}",
    )
    notes = (
        f"crosscheck points: {sum(len(v) for v in reports.values())}"
        f" ({len(q_values)} q x {len(p_values)} p x 3 channels);"
        f" singular-verdict metrics: {singular}"
        " (pure blocks would route to the rank-aware spectral fallback)",
    )
    return ValidationReport(grid, seed, tuple(suites), warnings, notes)


def render_ghz_point(kind: ChannelKind, q: float, p: float) -> str:
    report = crosscheck(kind, q, p)
    lines = [f"ghz crosscheck  channel={kind.value}  q={_sig12(q)}  p={_sig12(p)}"]
    lines.append(f"{'metric':<13}{'pipeline':>18}{'closed form':>18}{'oracle':>18}  verdict")
    for name, check in (
        ("qfi", report.qfi),
        ("skew", report.skew),
        ("concurrence", report.concurrence),
    ):
        lines.append(
            f"{name:<13}{_sig12(check.pipeline):>18}{_sig12(check.closed_form):>18}"
            f"{_sig12(check.oracle):>18}  {check.verdict.value}"
        )
    return "\n".join(lines) + "\n"


def _parse_channel(text: str) -> ChannelKind:
    try:
        return ChannelKind.from_label(text)
    except XQMetroError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc


def _parse_q_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(piece) for piece in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from exc


def _parse_p_grid(text: str) -> tuple[float, float, int]:
    pieces = text.split(":")
    if len(pieces) != 3:
        raise argparse.ArgumentTypeError(f"expected start:stop:count, got {text!r}")
    try:
        return float(pieces[0]), float(pieces[1]), int(pieces[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected start:stop:count, got {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xqmetro",
        description="Metrology metrics for three-qubit X states under decoherence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="metric table over a (q, p) grid")
    sweep.add_argument("--channel", type=_parse_channel, required=True, help="pdc, dpc, or pfc")
    sweep.add_argument(
        "--metrics",
        type=str,
        default="qfi,skew,concurrence",
        help="comma-separated subset of qfi,skew,concurrence",
    )
    sweep.add_argument("--q", type=_parse_q_list, required=True, help="comma-separated q values")
    sweep.add_argument(
        "--p", type=_parse_p_grid, required=True, help="inclusive grid start:stop:count"
    )
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.add_argument("--output", type=str, default=None, help="output path (default stdout)")

    validate = sub.add_parser("validate", help="run the oracle-equivalence suites")
    validate.add_argument("--grid", type=int, default=3, help="grid density (positive integer)")
    validate.add_argument("--seed", type=int, default=0, help="corpus seed")

    point = sub.add_parser("ghz-point", help="pipeline / closed form / oracle at one point")
    point.add_argument("--channel", type=_parse_channel, required=True, help="pdc, dpc, or pfc")
    point.add_argument("--q", type=_parse_float, required=True)
    point.add_argument("--p", type=_parse_float, required=True)
    return parser


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "sweep":
            spec = SweepSpec(
                channel=args.channel,
                metrics=tuple(piece.strip() for piece in args.metrics.split(",") if piece.strip()),
                q_values=args.q,
                p_start=args.p[0],
                p_stop=args.p[1],
                p_count=args.p[2],
                fmt=args.format,
                output=args.output,
            )
            text = render_csv(spec) if spec.fmt == "csv" else render_json(run_sweep(spec))
            _emit(text, spec.output)
            return 0
        if args.command == "validate":
            report = run_validation(args.grid, args.seed)
            sys.stdout.write(report.render())
            return 0 if report.passed else 1
        report_text = render_ghz_point(args.channel, args.q, args.p)
        sys.stdout.write(report_text)
        return 0
    except BadParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except XQMetroError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
