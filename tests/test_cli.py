"""Command-line interface: sweeps, validation, point reports, exit codes."""

import csv
import errno
import io
import itertools
import json
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

from xqmetro import cli, ghz, linalg, oracle
from xqmetro.channels import ChannelKind, apply_kraus_dense
from xqmetro.cli import (
    CSV_HEADER,
    METRIC_NAMES,
    build_parser,
    channel_route_errors,
    main,
    render_csv,
    run_sweep,
    run_validation,
)
from xqmetro.errors import BadParameterError, NotXFormError
from xqmetro.ghz import GHZ_QMIN, closed_form_qfi, crosscheck_grid, ghz_family, ghz_grid
from xqmetro.linalg import diff_step
from xqmetro.metrics import (
    ParamFamily,
    concurrence_ghz_class,
    evaluate_stack,
    qfi_total,
    random_family,
    skew_total,
)
from xqmetro.xstate import XTangent, random_xstate


def sweep(
    kind=ChannelKind.PHASE_DAMPING, metrics=METRIC_NAMES, q_values=(0.2, 0.5), p_grid=(0.0, 0.9, 4)
):
    """Arguments of run_sweep and render_csv, as the sweep flags parse to them."""
    return kind, metrics, q_values, np.linspace(*p_grid).tolist()


SWEEP_ARGV = ["sweep", "--channel", "pdc", "--q", "0.2,0.5", "--p", "0:0.9:4"]


class TestSweepFlags:
    """Each sweep flag's argparse type parses and checks it once: a bad
    value exits 2 on argparse's ``argument --flag:`` line."""

    def test_accepts_valid(self):
        args = build_parser().parse_args(SWEEP_ARGV + ["--metrics", " skew , qfi,"])
        assert (args.channel, args.metrics, args.q, args.p) == sweep(metrics=("skew", "qfi"))

    @pytest.mark.parametrize(
        "flag, value, text",
        [
            ("--metrics", "qfi,entropy", "unknown metric 'entropy'"),
            ("--metrics", "", "at least one metric is required"),
            ("--q", "0.0,0.5", "q must lie in [0.001, 1], got 0.0"),
            ("--q", "0.5,1.2", "q must lie in [0.001, 1], got 1.2"),
            ("--q", "", "could not convert string to float: ''"),
            ("--p", "-0.1:0.9:4", "need 0 <= start <= stop <= 1, got -0.1:0.9"),
            ("--p", "0:1.1:4", "need 0 <= start <= stop <= 1, got 0.0:1.1"),
            ("--p", "0.8:0.2:4", "need 0 <= start <= stop <= 1, got 0.8:0.2"),
            ("--p", "0:0.9:1", "count must be at least 2, got 1"),
            ("--format", "xml", "invalid choice: 'xml'"),
        ],
    )
    def test_rejects_and_names_flag(self, flag, value, text, capsys):
        code = exit_code(SWEEP_ARGV + [f"{flag}={value}"])
        last = capsys.readouterr().err.splitlines()[-1]
        assert code == 2
        assert last.startswith(f"xqmetro sweep: error: argument {flag}: ")
        assert text in last


class TestRunSweep:
    def test_row_order_and_count(self):
        rows = run_sweep(*sweep())
        assert len(rows) == 8
        assert [r["q"] for r in rows] == [0.2] * 4 + [0.5] * 4
        assert [r["p"] for r in rows[:4]] == [0.0, 0.3, 0.6, 0.9]

    def test_values_match_library(self):
        rows = run_sweep(*sweep(q_values=(0.3,), p_grid=(0.0, 0.9, 3)))
        family = ghz_family(ChannelKind.PHASE_DAMPING, 0.45)
        mid = rows[1]
        assert mid["p"] == 0.45
        assert abs(mid["qfi"] - qfi_total(family, 0.3)) < 1e-9
        assert abs(mid["skew"] - skew_total(family, 0.3)) < 1e-9
        assert abs(mid["concurrence"] - concurrence_ghz_class(family.state(0.3))) < 1e-9

    def test_absent_metrics_are_none(self):
        rows = run_sweep(*sweep(metrics=("qfi",)))
        assert rows[0]["skew"] is None and rows[0]["concurrence"] is None

    def test_depolarizing_concurrence_monotone(self):
        spec = sweep(ChannelKind.DEPOLARIZING, q_values=(0.2,), p_grid=(0.0, 1.0, 11))
        conc = [row["concurrence"] for row in run_sweep(*spec)]
        assert all(b <= a + 1e-12 for a, b in zip(conc, conc[1:]))
        assert conc[-1] == 0.0


class TestRendering:
    def test_csv_header_and_digits(self):
        text = render_csv(*sweep())
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_HEADER)
        assert lines[0] == "channel,q,p,qfi,skew,concurrence"
        assert len(lines) == 9
        first = lines[1].split(",")
        assert first[0] == "pdc"
        for cell in first[3:]:
            assert float(cell) >= 0.0
            mantissa = cell.replace(".", "").replace("-", "").lstrip("0")
            assert len(mantissa.split("e")[0]) <= 12

    def test_csv_blank_cells_for_absent_metrics(self):
        line = render_csv(*sweep(metrics=("skew",))).strip().split("\n")[1]
        cells = line.split(",")
        assert cells[3] == "" and cells[5] == ""
        assert cells[4] != ""

    def test_json_mirrors_csv(self):
        rows = run_sweep(*sweep(metrics=("qfi",)))
        payload = json.loads(json.dumps(rows))
        assert payload[0]["skew"] is None
        assert payload[0]["qfi"] == rows[0]["qfi"]


def _sig12(value):
    return f"{value:.12g}"


def two_pass_rows(kind, metrics, q_values, p_values):
    """Reference sweep rows: every value rounded through ``float(_sig12(x))``."""
    grid = {
        name: values.tolist()
        for name, values in ghz_grid(kind, q_values, p_values, metrics).items()
    }
    rows = []
    for i, q in enumerate(float(_sig12(q)) for q in q_values):
        for j, p in enumerate(float(_sig12(p)) for p in p_values):
            row = {"channel": kind.value, "q": q, "p": p}
            row.update(dict.fromkeys(METRIC_NAMES))
            for name, values in grid.items():
                row[name] = float(_sig12(values[i][j]))
            rows.append(row)
    return rows


def two_pass_csv(rows):
    """Reference CSV of those rows: ``csv.writer``, every value through ``_sig12`` again."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow(
            [row["channel"]]
            + [_sig12(row[key]) for key in ("q", "p")]
            + ["" if row[key] is None else _sig12(row[key]) for key in METRIC_NAMES]
        )
    return buffer.getvalue()


def first_difference(actual, expected):
    """(line number, actual line, expected line) of the first difference, or None.

    Keeps a failing byte comparison of two long texts short to report.
    """
    got, want = actual.split("\n"), expected.split("\n")
    for number, (a, b) in enumerate(itertools.zip_longest(got, want)):
        if a != b:
            return number, a, b
    return None


GATE_Q = (
    GHZ_QMIN,
    *(float(q) for q in np.sort(np.random.default_rng(808).uniform(GHZ_QMIN, 1.0, 18))),
    1.0,
)
METRIC_ORDERS = [
    order for k in range(1, 4) for order in itertools.permutations(METRIC_NAMES, k)
]


class TestOnePassBytes:
    """The one-pass CSV and the JSON view write the bytes of the two-pass reference:
    values rounded through float, then formatted a second time."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("metrics", METRIC_ORDERS, ids=",".join)
    @pytest.mark.parametrize("channel", ["pdc", "dpc", "pfc"])
    def test_sweep_bytes_match_two_pass_reference(self, channel, metrics, fmt, tmp_path):
        out = tmp_path / f"sweep.{fmt}"
        q_text = ",".join(repr(q) for q in GATE_Q)
        argv = ["sweep", "--channel", channel, "--metrics", ",".join(metrics), "--q", q_text]
        assert main(argv + ["--p", "0:1:37", "--format", fmt, "--output", str(out)]) == 0
        kind = ChannelKind.from_label(channel)
        rows = two_pass_rows(*sweep(kind, metrics, GATE_Q, (0.0, 1.0, 37)))
        expected = two_pass_csv(rows) if fmt == "csv" else json.dumps(rows, indent=2) + "\n"
        assert first_difference(out.read_text(encoding="utf-8"), expected) is None

    def test_second_12_digit_pass_is_an_identity(self):
        rng = np.random.default_rng(1212)
        magnitudes = 10.0 ** rng.uniform(-300.0, 300.0, 20_000)
        subnormals = rng.uniform(0.0, 1.0, 2_000) * sys.float_info.min
        # 13-digit decimals ending in 5 sit next to a 12-digit rounding tie.
        near_ties = [
            float(f"{m}5e{e}")
            for m, e in zip(
                rng.integers(10**11, 10**12, 2_000).tolist(),
                rng.integers(-290, 290, 2_000).tolist(),
            )
        ]
        values = [*magnitudes.tolist(), *subnormals.tolist(), *near_ties]
        values += [0.0, 5e-324, sys.float_info.min, sys.float_info.max]
        values += [-x for x in values]
        assert min(abs(x) for x in values if x) == 5e-324
        mismatched = [x for x in values if f"{float(f'{x:.12g}'):.12g}" != f"{x:.12g}"]
        assert mismatched == []


def per_cell_csv(kind, metrics, q_values, p_values):
    """Reference CSV: every cell formatted on its own with ``f"{x:.12g}"``."""
    grid = ghz_grid(kind, q_values, p_values, metrics)
    lines = [",".join(CSV_HEADER)]
    for i, q in enumerate(q_values):
        for j, p in enumerate(p_values):
            cells = [f"{grid[name][i, j]:.12g}" if name in grid else "" for name in METRIC_NAMES]
            lines.append(",".join([kind.value, f"{q:.12g}", f"{p:.12g}", *cells]))
    return "\n".join(lines) + "\n"


METRIC_SUBSETS = [
    subset for k in range(1, 4) for subset in itertools.combinations(METRIC_NAMES, k)
]


class TestCsvFormatPass:
    """render_csv formats q and p once each and every metric value with
    ``%.12g`` in one ``%`` over the repeated line template: the bytes of a
    per-cell ``f"{x:.12g}"`` rendering."""

    @pytest.mark.parametrize("metrics", METRIC_SUBSETS, ids=",".join)
    @pytest.mark.parametrize("channel", ["pdc", "dpc", "pfc"])
    def test_matches_per_cell_reference(self, channel, metrics):
        # GATE_Q holds GHZ_QMIN and 1; the p grid holds 0 and 1.
        spec = sweep(ChannelKind.from_label(channel), metrics, GATE_Q, (0.0, 1.0, 37))
        text = render_csv(*spec)
        assert text.count("\n") == 1 + len(GATE_Q) * 37
        assert first_difference(text, per_cell_csv(*spec)) is None

    def test_percent_format_is_the_format_spec(self):
        rng = np.random.default_rng(1213)
        values = (10.0 ** rng.uniform(-300.0, 300.0, 20_000)).tolist()
        values += (rng.uniform(0.0, 1.0, 2_000) * sys.float_info.min).tolist()
        values += rng.integers(0, 2**64, 20_000, dtype=np.uint64).view(np.float64).tolist()
        values += [0.0, 5e-324, sys.float_info.max, float("inf"), float("nan"), GHZ_QMIN]
        values += [-x for x in values]
        assert [x for x in values if "%.12g" % x != f"{x:.12g}"] == []


class TestMainSweep:
    def test_csv_to_stdout(self, capsys):
        code = main(
            [
                "sweep",
                "--channel",
                "pdc",
                "--q",
                "0.2,0.5",
                "--p",
                "0:0.9:4",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.startswith("channel,q,p,qfi,skew,concurrence\n")
        assert len(captured.out.strip().split("\n")) == 9

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--channel",
                "dpc",
                "--q",
                "0.3",
                "--p",
                "0:0.6:3",
                "--output",
                str(target),
            ]
        )
        capsys.readouterr()
        assert code == 0
        content = target.read_text()
        assert content.startswith("channel,q,p,")
        assert len(content.strip().split("\n")) == 4

    SWEEP = ["sweep", "--channel", "pdc", "--q", "0.5", "--p", "0:0.9:4"]

    def table(self, capsys):
        assert main(self.SWEEP) == 0
        return capsys.readouterr().out

    def test_new_file_gets_the_umask_mode(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        umask = os.umask(0o027)
        try:
            assert main(self.SWEEP + ["--output", str(target)]) == 0
        finally:
            os.umask(umask)
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert target.read_text() == self.table(capsys)
        assert list(tmp_path.iterdir()) == [target]

    def test_replaced_file_keeps_its_mode_and_symlink(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        target.write_text("old table\n")
        target.chmod(0o600)
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        assert main(self.SWEEP + ["--output", str(link)]) == 0
        assert link.is_symlink() and link.resolve() == target
        assert stat.S_IMODE(target.stat().st_mode) == 0o600
        assert target.read_text() == self.table(capsys)
        assert sorted(tmp_path.iterdir()) == [link, target]

    def test_fifo_is_written_in_place(self, tmp_path, capsys):
        # A rename would replace the FIFO node with a regular file.
        fifo = tmp_path / "table.fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert main(self.SWEEP + ["--output", str(fifo)]) == 0
            written = os.read(reader, 1 << 16).decode()
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert written == self.table(capsys)

    def test_json_format(self, capsys):
        code = main(
            [
                "sweep",
                "--channel",
                "pfc",
                "--q",
                "0.4",
                "--p",
                "0:0.4:2",
                "--format",
                "json",
                "--metrics",
                "concurrence",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        assert len(payload) == 2
        assert payload[0]["channel"] == "pfc"
        assert payload[0]["qfi"] is None
        assert payload[0]["concurrence"] is not None

    def test_undamped_column_matches_base_metrics(self, capsys):
        code = main(["sweep", "--channel", "pfc", "--q", "0.3", "--p", "0:0.8:5"])
        captured = capsys.readouterr()
        assert code == 0
        first = captured.out.strip().split("\n")[1].split(",")
        family = ghz_family(ChannelKind.PHASE_FLIP, 0.0)
        assert abs(float(first[3]) - qfi_total(family, 0.3)) < 1e-9


def exit_code(argv):
    """Process-level exit code: argparse failures raise SystemExit(2)."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--channel", "pdc", "--q", "2.0", "--p", "0:0.9:4"],
            ["sweep", "--channel", "pdc", "--q", "0.5", "--p", "0:0.9:1"],
            ["sweep", "--channel", "pdc", "--q", "0.5", "--p", "zero:one:five"],
            ["sweep", "--channel", "pdc", "--q", "0.5,", "--p", "0:0.9:4"],
            ["sweep", "--channel", "amplitude", "--q", "0.5", "--p", "0:0.9:4"],
            ["ghz-point", "--channel", "pdc", "--q", "0.0005", "--p", "0.3"],
        ],
    )
    def test_bad_parameters_exit_two(self, argv, capsys):
        code = exit_code(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert "error" in captured.err

    def test_range_error_names_flag(self, capsys):
        code = exit_code(["sweep", "--channel", "pdc", "--q", "2.0", "--p", "0:0.9:4"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.splitlines()[-1] == (
            "xqmetro sweep: error: argument --q: q must lie in [0.001, 1], got 2.0"
        )

    @pytest.mark.parametrize(
        "flag, value, text",
        [
            ("--q", "0.0005", "q must lie in [0.001, 1], got 0.0005"),
            ("--p", "1.5", "p must lie in [0, 1], got 1.5"),
        ],
    )
    def test_ghz_point_range_error_names_flag(self, flag, value, text, capsys):
        argv = ["ghz-point", "--channel", "pdc", "--q", "0.4", "--p", "0.25", flag, value]
        code = exit_code(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.splitlines()[-1] == (
            f"xqmetro ghz-point: error: argument {flag}: {text}"
        )
        assert captured.out == ""

    def test_success_exit_zero(self, capsys):
        assert main(["ghz-point", "--channel", "pdc", "--q", "0.4", "--p", "0.25"]) == 0
        capsys.readouterr()

    def test_negative_seed_exits_two_before_any_draw(self, monkeypatch, capsys):
        def no_draw(seed):
            raise AssertionError("drew a corpus")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        code = exit_code(["validate", "--grid", "1", "--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: --seed: must be a non-negative integer")
        assert captured.out == ""

    def test_output_into_missing_directory_exits_two(self, tmp_path, capsys):
        target = tmp_path / "missing" / "table.csv"
        code = exit_code(
            ["sweep", "--channel", "pdc", "--q", "0.5", "--p", "0:0.9:4", "--output", str(target)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: --output: ")
        assert str(target) in captured.err
        assert "Traceback" not in captured.err
        assert not target.parent.exists()

    def test_output_write_failure_exits_one(self, monkeypatch, tmp_path, capsys):
        # The path opens; the write fails, which is an I/O failure, not a bad flag.
        class FullDisk(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli, "open", lambda *args, **kwargs: FullDisk(), raising=False)
        target = tmp_path / "table.csv"
        code = exit_code(
            ["sweep", "--channel", "pdc", "--q", "0.5", "--p", "0:0.9:4", "--output", str(target)]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: --output: writing failed: ")
        assert "No space left on device" in captured.err

    def test_failed_write_keeps_old_bytes_and_no_stray_file(self, monkeypatch, tmp_path, capsys):
        # Half the table reaches the disk, then the disk is full.
        class HalfWritten:
            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.handle.close()

            def write(self, text):
                self.handle.write(text[: len(text) // 2])
                self.handle.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(
            cli, "open", lambda *args, **kwargs: HalfWritten(open(*args, **kwargs)), raising=False
        )
        target = tmp_path / "table.csv"
        target.write_bytes(b"old table\n")
        code = exit_code(
            ["sweep", "--channel", "pdc", "--q", "0.5", "--p", "0:0.9:4", "--output", str(target)]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: --output: writing failed: ")
        assert target.read_bytes() == b"old table\n"
        assert list(tmp_path.iterdir()) == [target]

    def test_eigensolver_failure_exits_one(self, monkeypatch, capsys):
        monkeypatch.setattr(linalg, "MAX_SWEEPS", 0)
        code = exit_code(["ghz-point", "--channel", "pdc", "--q", "0.4", "--p", "0.25"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: Jacobi iteration")
        assert captured.out == ""


class TestGhzPointCommand:
    def test_report_shape(self, capsys):
        code = main(["ghz-point", "--channel", "dpc", "--q", "0.2", "--p", "0.1"])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.strip().split("\n")
        assert "pipeline" in lines[1] and "closed form" in lines[1] and "oracle" in lines[1]
        body = [ln for ln in lines if ln.startswith(("qfi", "skew", "concurrence"))]
        assert len(body) == 3
        assert any("closed-form-deviates" in ln for ln in body)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_closed_form_prints_singular(self, capsys):
        assert main(["ghz-point", "--channel", "dpc", "--q", "1", "--p", "0"]) == 0
        skew = capsys.readouterr().out.split("\n")[3].split()
        assert skew[:3] == ["skew", "7", "nan"]
        assert skew[-1] == "singular"

    def test_nan_pipeline_value_prints_pipeline_non_finite(self, monkeypatch, capsys):
        # A NaN pipeline value is the pipeline's fault, not the reference's.
        def grid_with_nan_skew(kind, q_values, p_values, metrics=METRIC_NAMES):
            values = ghz_grid(kind, q_values, p_values, metrics)
            values["skew"][0, 0] = np.nan
            return values

        monkeypatch.setattr(ghz, "ghz_grid", grid_with_nan_skew)
        report = ghz.crosscheck(ChannelKind.PHASE_DAMPING, 0.4, 0.2)
        assert report["skew"].verdict is ghz.Verdict.PIPELINE_NON_FINITE
        assert np.isnan(report["skew"].pipeline)
        assert report["skew"].closed_form == pytest.approx(report["skew"].oracle, rel=1e-6)
        assert report["qfi"].verdict is report["concurrence"].verdict is ghz.Verdict.AGREE
        assert main(["ghz-point", "--channel", "pdc", "--q", "0.4", "--p", "0.2"]) == 0
        skew = capsys.readouterr().out.split("\n")[3].split()
        assert skew[:2] == ["skew", "nan"]
        assert skew[-1] == "pipeline-non-finite"

    def test_agreeing_point(self, capsys):
        main(["ghz-point", "--channel", "pfc", "--q", "0.3", "--p", "0.2"])
        captured = capsys.readouterr()
        assert captured.out.count("agree") == 3


class TestValidation:
    def test_small_grid_passes(self, capsys):
        code = main(["validate", "--grid", "2", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 0
        assert "result: PASS" in captured.out
        assert "3S^4/(16(1-S^2+qS^2))" in captured.out
        assert "3S^4/(4(1-S^2+qS^2))" in captured.out

    def test_report_object(self):
        report = run_validation(grid=2, seed=1)
        assert report.passed
        names = {suite.name for suite in report.suites}
        assert "channel-equivalence" in names
        assert "ghz-closed-form-agreement" in names
        assert any("factor 4" in w for w in report.warnings)

    def test_deterministic_rendering(self):
        first = run_validation(grid=2, seed=1).render()
        second = run_validation(grid=2, seed=1).render()
        assert first == second

    def test_one_depolarizing_gap_call(self, monkeypatch):
        calls = []

        def spied(q, p):
            calls.append((np.shape(q), np.shape(p)))
            return ghz.depolarizing_qfi_gap(q, p)

        monkeypatch.setattr(cli, "depolarizing_qfi_gap", spied)
        run_validation(grid=2, seed=1)
        assert calls == [((2, 1), (1, 3))]


def assert_only_suites_fail(names, capsys):
    report = run_validation(grid=2, seed=1)
    failed = {suite.name for suite in report.suites if not suite.passed}
    assert failed == set(names)
    for suite in report.suites:
        assert np.isnan(suite.max_error) == (suite.name in names)
    code = main(["validate", "--grid", "2", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.endswith("result: FAIL\n")
    for name in names:
        assert any(line.startswith(name) and line.endswith("FAIL") for line in out.splitlines())


class TestNaNFailsItsSuite:
    """A NaN error fails its suite: no reduction may drop it."""

    def test_nan_family_fisher(self, monkeypatch, capsys):
        def qfi_with_one_nan(*args):
            # NaN at the third of the 6 * grid = 12 points of each run.
            values = evaluate_stack(*args)
            values["qfi"][2] = np.nan
            return values

        monkeypatch.setattr(cli, "evaluate_stack", qfi_with_one_nan)
        assert_only_suites_fail(["family-qfi-oracle"], capsys)

    def test_nan_crosscheck_pipeline_value(self, monkeypatch, capsys):
        # Its verdict is pipeline-non-finite, which the suites do not skip.
        def grid_with_one_nan(kind, q_values, p_values, metrics=METRIC_NAMES):
            values = ghz_grid(kind, q_values, p_values, metrics)
            if kind is ChannelKind.PHASE_DAMPING:
                values["skew"][1, 2] = np.nan
            return values

        monkeypatch.setattr(ghz, "ghz_grid", grid_with_one_nan)
        assert_only_suites_fail(["ghz-closed-form-agreement", "ghz-skew-oracle"], capsys)


class TestOneOracleColumnPerChannel:
    """validate solves each oracle column once: one per channel, one for the
    family corpus, and one kernel call for the family pipeline column."""

    def test_one_column_and_one_eigensolve_per_channel(self, monkeypatch):
        columns, solves = [], []

        def spy(calls, function):
            def spied(*args):
                calls.append(np.shape(args[0])[:-2])
                return function(*args)

            return spied

        column = spy(columns, oracle.oracle_column)
        monkeypatch.setattr(ghz, "oracle_column", column)
        monkeypatch.setattr(cli, "oracle_column", column)
        solve = spy(solves, linalg.eigh_stack)
        monkeypatch.setattr(linalg, "eigh_stack", solve)
        monkeypatch.setattr(oracle, "eigh_stack", solve)
        assert run_validation(9, 1).passed
        # The family corpus (6 * grid points), then each channel's
        # (probe, p, q) grid of 10 p x 9 q.
        expected = [(3, 54)] + [(3, 10, 9)] * 3
        assert columns == expected
        assert solves == expected

    def test_family_pipeline_column_is_the_per_point_totals(self, monkeypatch):
        rng = np.random.default_rng(91)
        points = [(random_family(rng), float(rng.uniform(0.2, 0.8))) for _ in range(40)]
        seen = []

        def kept(*args):
            values = evaluate_stack(*args)
            seen.append(values)
            return values

        monkeypatch.setattr(cli, "evaluate_stack", kept)
        cli.family_oracle_errors(points)
        assert len(seen) == 1
        for name, total in (("qfi", qfi_total), ("skew", skew_total)):
            expected = np.array([total(family, phi) for family, phi in points])
            assert seen[0][name].tobytes() == expected.tobytes()

    def test_each_point_is_built_once(self):
        rng = np.random.default_rng(93)
        calls = {"state": 0, "tangent": 0}

        def counted(family):
            def state(phi):
                calls["state"] += 1
                return family.state(phi)

            def tangent(phi):
                calls["tangent"] += 1
                return family.tangent(phi)

            return ParamFamily(state=state, tangent=tangent)

        points = [(counted(random_family(rng)), float(rng.uniform(0.2, 0.8))) for _ in range(54)]
        cli.family_oracle_errors(points)
        # One state and one tangent at phi feed both columns; the skew
        # probes add the states at phi - h and phi + h.
        assert calls == {"state": 3 * 54, "tangent": 54}

    def test_family_oracle_column_is_the_per_point_oracles(self, monkeypatch):
        rng = np.random.default_rng(94)
        points = [(random_family(rng), float(rng.uniform(0.2, 0.8))) for _ in range(12)]
        seen = []

        def kept(*args):
            column = oracle.oracle_column(*args)
            seen.append(column)
            return column

        monkeypatch.setattr(cli, "oracle_column", kept)
        cli.family_oracle_errors(points)
        expected = [
            [
                oracle.qfi_eigen_oracle(
                    family.state(phi).to_dense(), family.tangent_at(phi).to_dense()
                )
                for family, phi in points
            ],
            [oracle.skew_sqrt_oracle(family, phi) for family, phi in points],
        ]
        assert np.array(seen[0]).tobytes() == np.array(expected).tobytes()

    def test_non_finite_tangent_names_its_point(self):
        rng = np.random.default_rng(92)
        family = random_family(rng)
        broken = ParamFamily(
            state=family.state,
            tangent=lambda phi: XTangent(np.full(8, np.nan), np.zeros(4, dtype=complex)),
        )
        with pytest.raises(
            NotXFormError, match=r"^element 2: tangent diag\[0\] is nan, not finite$"
        ):
            cli.family_oracle_errors([(family, 0.3), (family, 0.5), (broken, 0.4)])

    def test_state_that_is_not_an_xstate_names_its_point(self):
        family = random_family(np.random.default_rng(96))
        dense = ParamFamily(state=lambda phi: family.state(phi).to_dense(), tangent=family.tangent)
        with pytest.raises(
            NotXFormError, match=r"^element 1: at phi=0\.4: expected an XState, got ndarray$"
        ):
            cli.family_oracle_errors([(family, 0.3), (dense, 0.4)])

    @pytest.mark.parametrize("sign", [-1, 1], ids=["left", "right"])
    def test_skew_probe_that_is_not_an_xstate_names_its_point(self, sign):
        family = random_family(np.random.default_rng(97))
        probe = 0.4 + sign * diff_step(0.4)

        def state(phi):
            return family.state(phi).to_dense() if phi == probe else family.state(phi)

        broken = ParamFamily(state=state, tangent=family.tangent)
        with pytest.raises(NotXFormError) as err:
            cli.family_oracle_errors([(family, 0.4), (broken, 0.4)])
        assert str(err.value) == f"element 1: at phi={probe!r}: expected an XState, got ndarray"

    def test_complex_tangent_names_its_point(self):
        # Two points at one phi: only the index tells them apart.
        family = random_family(np.random.default_rng(95))

        def tangent(phi):
            exact = family.tangent(phi)
            return XTangent(exact.diag + np.array([0.0, 0.3j] + [0.0] * 6), exact.anti)

        broken = ParamFamily(state=family.state, tangent=tangent)
        with pytest.raises(NotXFormError) as err:
            cli.family_oracle_errors([(family, 0.5), (broken, 0.5)])
        entry = tangent(0.5).diag[1]
        assert str(err.value) == f"element 1: at phi=0.5: tangent diag[1] is {entry}, not real"

    def test_no_family_points(self):
        assert cli.family_oracle_errors([]) == (0.0, 0.0)


class TestSuiteErrorsAreNotSoftened:
    """A deviation below what a check lets through still counts in the error."""

    @pytest.mark.parametrize(
        "row, col, leak",
        [(0, 1, 1e-11), (2, 2, 1e-11j), (0, 7, 1e-11)],
        ids=["off-pattern", "imaginary-diagonal", "unpaired-coherence"],
    )
    def test_kraus_leak_below_pattern_tolerance_fails_route_error(
        self, monkeypatch, row, col, leak
    ):
        # The X pattern check passes a 1e-11 leak (its tolerance is 1e-10);
        # the route error, held to 1e-12 by criterion 1 and
        # channel-equivalence, must still see it.
        def leaky(dense, kind, param):
            image = apply_kraus_dense(dense, kind, param).copy()
            image[..., row, col] += leak
            return image

        monkeypatch.setattr(cli, "apply_kraus_dense", leaky)
        rng = np.random.default_rng(3)
        states = [random_xstate(rng) for _ in range(4)]
        _, route = channel_route_errors(states, [0.0, 0.5, 1.0])
        assert route == pytest.approx(1e-11, rel=1e-3)
        assert not route <= 1e-12

    def test_kraus_image_off_the_pattern_names_channel_p_and_element(self, monkeypatch):
        def leaky(dense, kind, params):
            images = apply_kraus_dense(dense, kind, params)
            if kind is ChannelKind.PHASE_FLIP:
                images[3, 5, 0, 1] += 1e-3
            return images

        monkeypatch.setattr(cli, "apply_kraus_dense", leaky)
        rng = np.random.default_rng(3)
        states = [random_xstate(rng) for _ in range(8)]
        with pytest.raises(NotXFormError) as err:
            channel_route_errors(states, np.linspace(0.0, 1.0, 5).tolist())
        assert str(err.value) == (
            "pfc, p index 3: element 5: off-pattern entry [0, 1] of magnitude 1.000e-03"
        )

    def test_concurrence_route_error_is_absolute(self, monkeypatch):
        # Relative to an oracle value of 3, a 2.5e-12 gap would read below
        # the suite's 1e-12 tolerance; the absolute gap fails it.
        def grid_with_one_gap(kind, q_values, p_values):
            checks = crosscheck_grid(kind, q_values, p_values)
            if kind is ChannelKind.DEPOLARIZING:
                concurrence = checks["concurrence"]
                concurrence.pipeline[0, 0], concurrence.oracle[0, 0] = 3.0 + 2.5e-12, 3.0
            return checks

        monkeypatch.setattr(cli, "crosscheck_grid", grid_with_one_gap)
        report = run_validation(grid=1, seed=0)
        suites = {suite.name: suite for suite in report.suites}
        assert {name for name, suite in suites.items() if not suite.passed} == {
            "ghz-concurrence-routes"
        }
        assert suites["ghz-concurrence-routes"].max_error == pytest.approx(2.5e-12, rel=1e-3)

    def test_singular_verdict_point_counts_in_the_oracle_suites(self, monkeypatch):
        # The oracle deltas never read the closed form, so a point whose
        # closed form is NaN (a singular verdict) is still compared there.
        def qfi_nan_at_first_point(kind, q, p):
            value = closed_form_qfi(kind, q, p)
            if kind is ChannelKind.DEPOLARIZING:
                value[0, 0] = np.nan
            return value

        shifted = []

        def grid_with_shifted_oracle(kind, q_values, p_values):
            checks = crosscheck_grid(kind, q_values, p_values)
            if kind is ChannelKind.DEPOLARIZING:
                fisher = checks["qfi"]
                assert fisher.verdict[0, 0] is ghz.Verdict.SINGULAR
                fisher.oracle[0, 0] += 1e-3
                shifted.append(fisher.oracle_delta[0, 0])
            return checks

        monkeypatch.setattr(ghz, "closed_form_qfi", qfi_nan_at_first_point)
        monkeypatch.setattr(cli, "crosscheck_grid", grid_with_shifted_oracle)
        report = run_validation(grid=1, seed=0)
        suites = {suite.name: suite for suite in report.suites}
        assert {name for name, suite in suites.items() if not suite.passed} == {"ghz-qfi-oracle"}
        assert suites["ghz-qfi-oracle"].max_error == shifted[0] > 1e-4
        assert "singular-verdict metrics: 1 " in report.notes[0]


class TestSubprocessDeterminism:
    def test_byte_identical_sweep(self):
        argv = [
            sys.executable,
            "-m",
            "xqmetro",
            "sweep",
            "--channel",
            "dpc",
            "--q",
            "0.2,0.6",
            "--p",
            "0:0.9:7",
        ]
        first = subprocess.run(argv, capture_output=True, check=True)
        second = subprocess.run(argv, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout.startswith(b"channel,q,p,")


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(
            ["sweep", "--channel", "pdc", "--q", "0.5", "--p", "0:0.9:4"]
        )
        assert args.metrics == ("qfi", "skew", "concurrence")
        assert args.format == "csv"

    def test_validate_defaults(self):
        args = build_parser().parse_args(["validate"])
        assert args.grid == 3 and args.seed == 0
