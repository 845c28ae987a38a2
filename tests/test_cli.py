"""Command-line interface: sweeps, validation, point reports, exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

from xqmetro import linalg
from xqmetro.channels import ChannelKind
from xqmetro.cli import (
    CSV_HEADER,
    SweepSpec,
    build_parser,
    main,
    render_csv,
    run_sweep,
    run_validation,
)
from xqmetro.errors import BadParameterError
from xqmetro.ghz import ghz_family
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
        rows = run_sweep(default_spec())
        text = render_csv(rows)
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
        rows = run_sweep(default_spec(metrics=("skew",)))
        line = render_csv(rows).strip().split("\n")[1]
        cells = line.split(",")
        assert cells[3] == "" and cells[5] == ""
        assert cells[4] != ""

    def test_json_mirrors_csv(self):
        rows = run_sweep(default_spec(metrics=("qfi",)))
        payload = json.loads(json.dumps(rows))
        assert payload[0]["skew"] is None
        assert payload[0]["qfi"] == rows[0]["qfi"]


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
