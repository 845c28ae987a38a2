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
import contextlib
import functools
import json
import os
import stat
import sys
from dataclasses import dataclass
from itertools import chain

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
    Verdict,
    crosscheck,
    crosscheck_grid,
    depolarizing_qfi_gap,
    ghz_grid,
)
from .linalg import diff_step
from .metrics import METRIC_NAMES, _check_names, evaluate_stack, random_family

# Unused here, but importable from this module: the benchmark's tracer
# self-test calls xqmetro.cli.qfi_total.
from .metrics import qfi_total  # noqa: F401
from .oracle import oracle_column
from .xstate import (
    _xstate,
    bloch_from_compact,
    check_compact,
    compact_from_bloch,
    compact_from_dense,
    dense_from_compact,
    random_xstate,
)

CSV_HEADER = ("channel", "q", "p", *METRIC_NAMES)


def _sig12(value: float) -> str:
    return f"{value:.12g}"


def run_sweep(kind: ChannelKind, metrics, q_values, p_values) -> list[dict]:
    """The rows of :func:`render_csv`, read back: the JSON view of the sweep.

    One dict per data line, q outer, p inner, keyed by ``CSV_HEADER``: the
    channel label, then ``float(cell)`` for each number (so each is the
    number its cell prints) and None for the empty cell of a metric not
    requested.
    """
    rows = []
    for line in render_csv(kind, metrics, q_values, p_values).splitlines()[1:]:
        label, *cells = line.split(",")
        numbers = (float(cell) if cell else None for cell in cells)
        rows.append(dict(zip(CSV_HEADER, (label, *numbers))))
    return rows


def render_csv(kind: ChannelKind, metrics, q_values, p_values) -> str:
    """The sweep as CSV: a header, then one line per (q, p), q outer, p inner.

    Each q and p is formatted once, and every metric value by one ``%`` over
    the line template repeated per line: ``%.12g`` (the text of
    ``f"{x:.12g}"``) per requested metric, an empty cell per other one.  No
    field needs quoting: they are numbers, empty cells and the channel label.
    The arguments are what the ``sweep`` flags parse to, and
    :func:`ghz_grid` checks them as it checks any caller's.
    """
    grid = ghz_grid(kind, q_values, p_values, metrics)
    q_cells = [f"{q:.12g}" for q in q_values]
    p_cells = [f"{p:.12g}" for p in p_values]
    line = f"{kind.value},%s,%s"
    line += "".join(",%.12g" if name in grid else "," for name in METRIC_NAMES) + "\n"
    columns = [grid[name].ravel().tolist() for name in METRIC_NAMES if name in grid]
    q_column = [q for q in q_cells for _ in p_cells]
    p_column = p_cells * len(q_cells)
    fields = tuple(chain.from_iterable(zip(q_column, p_column, *columns)))
    return ",".join(CSV_HEADER) + "\n" + (line * len(q_column)) % fields


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


def _max_error(errors) -> float:
    """The largest error, 0.0 for none: NaN if any error is NaN, so its suite fails."""
    return float(np.max(np.asarray(errors, dtype=float), initial=0.0))


def channel_route_errors(states, p_values) -> tuple[float, float]:
    """Kraus completeness and Kraus-versus-Bloch route error on a corpus of states.

    Per channel, both routes run over the whole corpus and every p at once:
    one :func:`damped_bloch_array` call and one :func:`apply_kraus_dense`
    call, each with the sequence of parameters.  Every state passes the
    checks it would pass alone: :func:`check_compact` (the checks of XState)
    on the input and on both images, the dense X pattern on each p's Kraus
    image; a failure of that pattern names the channel, the p index and its
    element of that p's stack.  The route error spans the raw 8x8 Kraus
    image, off-pattern entries included.
    """
    diag = np.stack([state.diag for state in states])
    anti = np.stack([state.anti for state in states])
    check_compact(diag, anti)
    bloch = bloch_from_compact(diag, anti)
    dense = dense_from_compact(diag, anti)
    params = [ChannelParam(p) for p in p_values]
    completeness, route = [], []
    for kind in ChannelKind:
        damped = damped_bloch_array(kind, bloch, params)
        damped_diag, damped_anti = compact_from_bloch(damped)
        check_compact(damped_diag, damped_anti)
        images = apply_kraus_dense(dense, kind, params)
        for k, (param, via_kraus) in enumerate(zip(params, images)):
            total = sum(op.conj().T @ op for op in kraus_operators(kind, param))
            completeness.append(np.abs(total - np.eye(2)).max())
            try:
                compact_from_dense(via_kraus)
            except XQMetroError as exc:
                raise type(exc)(f"{kind.value}, p index {k}: {exc}") from exc
            via_bloch = dense_from_compact(damped_diag[k], damped_anti[k])
            route.append(np.abs(via_kraus - via_bloch).max())
        images = via_kraus = None  # not held through the next channel's Kraus pass
    return _max_error(completeness), _max_error(route)


def family_oracle_errors(points) -> tuple[float, float]:
    """Largest Fisher and skew |pipeline - oracle| / max(oracle, 1e-9) over
    ``(family, phi)`` points.

    Each point's state and tangent at ``phi`` and skew probes rho(phi -+ h),
    ``h = diff_step(phi)``, are built once as compact stacks.  One
    :func:`evaluate_stack` call checks the tangents and gives the pipeline
    column, one :func:`oracle.oracle_column` call on the dense forms the
    oracle column; each element is in raw bits what the point gives alone.
    Every failure names the point's index: a point that cannot be built
    prefixes ``element k: `` to its error's text, and each column names its
    failing element.
    """
    points = list(points)
    states, tangents, steps = ([], [], []), [], []
    for k, (family, phi) in enumerate(points):
        h = diff_step(phi)
        try:
            for stack, x in zip(states, (phi, phi - h, phi + h)):
                stack.append(_xstate(family.state(x), x))
            tangents.append(family.tangent_at(phi))
        except XQMetroError as exc:
            raise type(exc)(f"element {k}: {exc}") from exc
        steps.append(h)
    n = len(points)
    diag = np.reshape([[s.diag for s in stack] for stack in states], (3, n, 8))
    anti = np.reshape([[s.anti for s in stack] for stack in states], (3, n, 4))
    tangent_diag = np.reshape([t.diag for t in tangents], (n, 8))
    tangent_anti = np.reshape([t.anti for t in tangents], (n, 4))
    values = evaluate_stack(("qfi", "skew"), diag[0], anti[0], tangent_diag, tangent_anti)
    columns = oracle_column(
        dense_from_compact(diag, anti), dense_from_compact(tangent_diag, tangent_anti), steps
    )
    fisher, skew = (
        _max_error(np.abs(values[name] - column) / np.maximum(column, 1e-9))
        for name, column in zip(("qfi", "skew"), columns)
    )
    return fisher, skew


def crosscheck_error(checks, delta) -> float:
    """Largest element of ``delta(check)`` over ``checks`` where the verdict is not singular."""
    return _max_error(
        np.concatenate([delta(check)[check.verdict != Verdict.SINGULAR] for check in checks])
    )


def run_validation(grid: int, seed: int) -> ValidationReport:
    """Run every hard-invariant suite plus the GHZ crosscheck grid.

    Deterministic for fixed (grid, seed): 12 * grid states, then 6 * grid
    (family, phi) points, are drawn from numpy.random.default_rng(seed) (the
    PCG64 generator).  The acceptance gate calls the same suite functions.
    Known deviations of the depolarizing reference closed forms are reported
    as warnings and do not affect the pass/fail outcome.
    """
    if grid < 1:
        raise BadParameterError(f"--grid: must be a positive integer, got {grid}")
    if seed < 0:
        raise BadParameterError(f"--seed: must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)
    states = [random_xstate(rng) for _ in range(12 * grid)]
    completeness, route = channel_route_errors(states, np.linspace(0.0, 1.0, 11).tolist())
    points = [(random_family(rng), float(rng.uniform(0.2, 0.8))) for _ in range(6 * grid)]
    fisher, skew = family_oracle_errors(points)

    q_values, p_values = _grid_axes(grid)
    grids = {kind: crosscheck_grid(kind, q_values, p_values) for kind in ChannelKind}
    across = {name: [checks[name] for checks in grids.values()] for name in METRIC_NAMES}
    dephasing = [ChannelKind.PHASE_DAMPING, ChannelKind.PHASE_FLIP]
    agree = crosscheck_error(
        [check for kind in dephasing for check in grids[kind].values()],
        lambda check: check.closed_form_delta,
    )
    qfi_err = crosscheck_error(across["qfi"], lambda check: check.oracle_delta)
    skew_err = crosscheck_error(across["skew"], lambda check: check.oracle_delta)
    conc_err = crosscheck_error(
        across["concurrence"], lambda check: np.abs(check.pipeline - check.oracle)
    )
    suites = (
        SuiteResult("kraus-completeness", completeness, 1e-14),
        SuiteResult("channel-equivalence", route, 1e-12),
        SuiteResult("family-qfi-oracle", fisher, 1e-6),
        SuiteResult("family-skew-oracle", skew, 1e-5),
        SuiteResult("ghz-closed-form-agreement", agree, 1e-8),
        SuiteResult("ghz-qfi-oracle", qfi_err, 1e-6),
        SuiteResult("ghz-skew-oracle", skew_err, 1e-5),
        SuiteResult("ghz-concurrence-routes", conc_err, 1e-12),
    )
    verdicts = np.concatenate([check.verdict for checks in across.values() for check in checks])
    singular = np.count_nonzero(verdicts == Verdict.SINGULAR)

    dpc = grids[ChannelKind.DEPOLARIZING]
    gap = depolarizing_qfi_gap(np.array(q_values)[:, None], np.array(p_values)[None, :])
    gap_mismatch = _max_error(np.abs(dpc["qfi"].closed_form_delta - gap))
    qfi_gap, skew_gap, conc_gap = (_max_error(check.closed_form_delta) for check in dpc.values())
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
        f"crosscheck points: {len(grids) * len(q_values) * len(p_values)}"
        f" ({len(q_values)} q x {len(p_values)} p x 3 channels);"
        f" singular-verdict metrics: {singular}"
        " (pure blocks would route to the rank-aware spectral fallback)",
    )
    return ValidationReport(grid, seed, suites, warnings, notes)


def render_ghz_point(kind: ChannelKind, q: float, p: float) -> str:
    checks = crosscheck(kind, q, p)
    lines = [f"ghz crosscheck  channel={kind.value}  q={_sig12(q)}  p={_sig12(p)}"]
    lines.append(f"{'metric':<13}{'pipeline':>18}{'closed form':>18}{'oracle':>18}  verdict")
    for name, check in checks.items():
        lines.append(
            f"{name:<13}{_sig12(check.pipeline):>18}{_sig12(check.closed_form):>18}"
            f"{_sig12(check.oracle):>18}  {check.verdict.value}"
        )
    return "\n".join(lines) + "\n"


def _flag_type(parse):
    """The argparse ``type=`` of ``parse``: a ``ValueError`` or :class:`XQMetroError`
    it raises becomes argparse's ``argument --flag: ...`` line and exit status 2."""

    @functools.wraps(parse)
    def checked(text: str):
        try:
            return parse(text)
        except (ValueError, XQMetroError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return checked


@_flag_type
def _parse_channel(text: str) -> ChannelKind:
    return ChannelKind.from_label(text)


@_flag_type
def _parse_metrics(text: str) -> tuple[str, ...]:
    names = _check_names(piece.strip() for piece in text.split(",") if piece.strip())
    if not names:
        raise BadParameterError("at least one metric is required")
    return names


@_flag_type
def _parse_q(text: str) -> float:
    q = float(text)
    if not GHZ_QMIN <= q <= 1.0:  # False for NaN and +-inf too
        raise BadParameterError(f"q must lie in [{GHZ_QMIN}, 1], got {q!r}")
    return q


def _parse_q_list(text: str) -> tuple[float, ...]:
    return tuple(_parse_q(piece) for piece in text.split(","))


@_flag_type
def _parse_p(text: str) -> float:
    return ChannelParam(float(text)).p


@_flag_type
def _parse_p_grid(text: str) -> list[float]:
    """``start:stop:count``, 0 <= start <= stop <= 1 and count >= 2: the inclusive p grid."""
    try:
        start, stop, count = text.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError:
        raise BadParameterError(f"expected start:stop:count, got {text!r}") from None
    if count < 2:
        raise BadParameterError(f"count must be at least 2, got {count}")
    if not 0.0 <= start <= stop <= 1.0:  # False for NaN and +-inf too
        raise BadParameterError(f"need 0 <= start <= stop <= 1, got {start!r}:{stop!r}")
    return np.linspace(start, stop, count).tolist()


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
        type=_parse_metrics,
        default=METRIC_NAMES,
        help=f"comma-separated subset of {','.join(METRIC_NAMES)}",
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
    point.add_argument("--q", type=_parse_q, required=True)
    point.add_argument("--p", type=_parse_p, required=True)
    return parser


def _emit(text: str, output: str | None) -> None:
    """Write ``text`` to stdout, or to the file ``output`` names.

    A target that is absent, or a regular file that ``open()`` could write,
    is replaced atomically: the text goes to a temporary file in the
    target's directory, renamed over the target once the write succeeded,
    so a failed write leaves the old bytes and no stray file.  The new file
    gets the mode ``open()`` would leave: the old file's, or 0o666 less the
    umask.  Any other target (a device, a FIFO, ``/dev/stdout``) is written
    in place, since a rename would replace the node itself.
    """
    if output is None:
        sys.stdout.write(text)
        return
    try:
        mode = os.stat(output).st_mode
    except OSError:
        mode = None  # absent, or unreachable: creating the temporary file says so
    atomic = mode is None or (stat.S_ISREG(mode) and os.access(output, os.W_OK))
    path = output
    if atomic:
        target = os.path.realpath(output)  # through a symlink, as open() writes
        directory, name = os.path.split(target)
        path = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    try:
        handle = open(path, "x" if atomic else "w", encoding="utf-8")
    except OSError as exc:
        shown = OSError(exc.errno, exc.strerror, output) if atomic else exc
        raise BadParameterError(f"--output: {shown}") from exc
    try:
        with handle:
            if atomic and mode is not None:
                os.chmod(path, stat.S_IMODE(mode))
            handle.write(text)
        if atomic:
            os.replace(path, target)
    except OSError as exc:
        if atomic:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise XQMetroError(f"--output: writing failed: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "sweep":
            sweep = (args.channel, args.metrics, args.q, args.p)
            if args.format == "csv":
                text = render_csv(*sweep)
            else:
                text = json.dumps(run_sweep(*sweep), indent=2) + "\n"
            _emit(text, args.output)
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
