"""Command-line interface: sweeps, validation, point reports, exit codes."""

import csv
import io
import itertools
import json
import subprocess
import sys

import numpy as np
import pytest

from xqmetro import linalg
from xqmetro.channels import ChannelKind
from xqmetro.cli import (
    CSV_HEADER,
    METRIC_NAMES,
    SweepSpec,
    build_parser,
    main,
    render_csv,
    run_sweep,
    run_validation,
)
from xqmetro.errors import BadParameterError
from xqmetro.ghz import GHZ_QMIN, ghz_family, ghz_grid
from xqmetro.metrics import concurrence_ghz_class, qfi_total, skew_total


def default_spec(**overrides):
    base = dict(
        channel=ChannelKind.PHASE_DAMPING,
        metrics=("qfi", "skew", "concurrence"),
        q_values=(0.2, 0.5),
        p_start=0.0,
        p_stop=0.9,
        p_count=4,
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestSweepSpec:
    def test_accepts_valid(self):
        spec = default_spec()
        assert spec.p_count == 4

    @pytest.mark.parametrize(
        "overrides, field",
        [
            (dict(metrics=("qfi", "entropy")), "--metrics"),
            (dict(metrics=()), "--metrics"),
            (dict(q_values=(0.0, 0.5)), "--q"),
            (dict(q_values=(0.5, 1.2)), "--q"),
            (dict(q_values=()), "--q"),
            (dict(p_start=-0.1), "--p"),
            (dict(p_stop=1.1), "--p"),
            (dict(p_start=0.8, p_stop=0.2), "--p"),
            (dict(p_count=1), "--p"),
            (dict(fmt="xml"), "--format"),
        ],
    )
    def test_rejects_and_names_field(self, overrides, field):
        with pytest.raises(BadParameterError) as err:
            default_spec(**overrides)
        assert field in str(err.value)


class TestRunSweep:
    def test_row_order_and_count(self):
        rows = run_sweep(default_spec())
        assert len(rows) == 8
        assert [r["q"] for r in rows] == [0.2] * 4 + [0.5] * 4
        assert [r["p"] for r in rows[:4]] == [0.0, 0.3, 0.6, 0.9]

    def test_values_match_library(self):
        rows = run_sweep(default_spec(q_values=(0.3,), p_count=3))
        family = ghz_family(ChannelKind.PHASE_DAMPING, 0.45)
        mid = rows[1]
        assert mid["p"] == 0.45
        assert abs(mid["qfi"] - qfi_total(family, 0.3)) < 1e-9
        assert abs(mid["skew"] - skew_total(family, 0.3)) < 1e-9
        assert abs(mid["concurrence"] - concurrence_ghz_class(family.state(0.3))) < 1e-9

    def test_absent_metrics_are_none(self):
        rows = run_sweep(default_spec(metrics=("qfi",)))
        assert rows[0]["skew"] is None and rows[0]["concurrence"] is None

    def test_depolarizing_concurrence_monotone(self):
        spec = default_spec(
            channel=ChannelKind.DEPOLARIZING,
            q_values=(0.2,),
            p_start=0.0,
            p_stop=1.0,
            p_count=11,
        )
        conc = [row["concurrence"] for row in run_sweep(spec)]
        assert all(b <= a + 1e-12 for a, b in zip(conc, conc[1:]))
        assert conc[-1] == 0.0


class TestRendering:
    def test_csv_header_and_digits(self):
        text = render_csv(default_spec())
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
        line = render_csv(default_spec(metrics=("skew",))).strip().split("\n")[1]
        cells = line.split(",")
        assert cells[3] == "" and cells[5] == ""
        assert cells[4] != ""

    def test_json_mirrors_csv(self):
        rows = run_sweep(default_spec(metrics=("qfi",)))
        payload = json.loads(json.dumps(rows))
        assert payload[0]["skew"] is None
        assert payload[0]["qfi"] == rows[0]["qfi"]


def _sig12(value):
    return f"{value:.12g}"


def two_pass_rows(spec):
    """Reference sweep rows: every value rounded through ``float(_sig12(x))``."""
    p_values = [float(p) for p in np.linspace(spec.p_start, spec.p_stop, spec.p_count)]
    grid = {
        name: values.tolist()
        for name, values in ghz_grid(spec.channel, spec.q_values, p_values, spec.metrics).items()
    }
    rows = []
    for i, q in enumerate(float(_sig12(q)) for q in spec.q_values):
        for j, p in enumerate(float(_sig12(p)) for p in p_values):
            row = {"channel": spec.channel.value, "q": q, "p": p}
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
        spec = SweepSpec(ChannelKind.from_label(channel), metrics, GATE_Q, 0.0, 1.0, 37)
        rows = two_pass_rows(spec)
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
        assert captured.err.startswith("error:")
        assert "--q" in captured.err

    def test_success_exit_zero(self, capsys):
        assert main(["ghz-point", "--channel", "pdc", "--q", "0.4", "--p", "0.25"]) == 0
        capsys.readouterr()

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
        assert args.metrics == "qfi,skew,concurrence"
        assert args.format == "csv"

    def test_validate_defaults(self):
        args = build_parser().parse_args(["validate"])
        assert args.grid == 3 and args.seed == 0
