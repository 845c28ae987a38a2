"""Golden outputs: `sweep` tables and a `validate` report, byte for byte.

The files under ``tests/data`` were written by the scalar, row-at-a-time
pipeline that preceded the stacked block kernel, with

    xqmetro sweep --channel {pdc,dpc,pfc} --q 0.001,0.2,0.37,0.5,0.9,1 \\
        --p 0:1:21 --format {csv,json} --output tests/data/sweep-<channel>.<format>
    xqmetro validate --grid 3 --seed 0 > tests/data/validate-grid3-seed0.txt

and ``validate-grid9-seed42.txt`` by the per-matrix Kraus route that preceded
the stacked one, with ``xqmetro validate --grid 9 --seed 42``.  The
``ghz-point-<channel>.txt`` files were written by the per-point crosscheck
that preceded the grid crosscheck: ``xqmetro ghz-point --channel <channel>
--q Q --p P`` for each (Q, P) in ``GHZ_POINTS``, outputs concatenated.

The validate report prints oracle and route errors near 1e-16, so it also
pins the last bits of the scalar totals and of both channel routes on the
seeded corpus.  Regenerate a file only for an intended change of output, and
say why in the change log.
"""

import contextlib
import io
from pathlib import Path

import pytest

from xqmetro.cli import main

DATA = Path(__file__).parent / "data"
SWEEP_Q = "0.001,0.2,0.37,0.5,0.9,1"
GHZ_POINTS = (
    ("0.001", "0.3"),
    ("0.25", "0.1"),
    ("1", "0.5"),
    ("0.5", "0"),
    ("0.5", "1"),
    ("0.7", "0.85"),
)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("channel", ["pdc", "dpc", "pfc"])
def test_sweep_output_is_byte_identical(channel, fmt, tmp_path):
    out = tmp_path / f"sweep-{channel}.{fmt}"
    argv = ["sweep", "--channel", channel, "--q", SWEEP_Q, "--p", "0:1:21"]
    assert main(argv + ["--format", fmt, "--output", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"sweep-{channel}.{fmt}").read_bytes()


def _validate_report(grid, seed):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(["validate", "--grid", str(grid), "--seed", str(seed)]) == 0
    return buffer.getvalue().encode("utf-8")


def test_validate_report_is_byte_identical():
    assert _validate_report(3, 0) == (DATA / "validate-grid3-seed0.txt").read_bytes()


def test_validate_grid9_report_is_byte_identical():
    assert _validate_report(9, 42) == (DATA / "validate-grid9-seed42.txt").read_bytes()


@pytest.mark.parametrize("channel", ["pdc", "dpc", "pfc"])
def test_ghz_point_output_is_byte_identical(channel):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        for q, p in GHZ_POINTS:
            assert main(["ghz-point", "--channel", channel, "--q", q, "--p", p]) == 0
    expected = (DATA / f"ghz-point-{channel}.txt").read_bytes()
    assert buffer.getvalue().encode("utf-8") == expected
