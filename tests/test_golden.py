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

The ``validate`` reports for (grid, seed) = (9, 1), (17, 5) and (1, 3) are
held to sha256 digests of the same command's output, taken before the
validate suites became shared functions of ``cli`` and the acceptance gate.

The JSON sweeps of one metric subset each are held to sha256 digests taken
while ``run_sweep`` still rounded the grid values itself, before its rows
became the CSV cells read back: no golden file has a ``null`` cell.

The validate report prints oracle and route errors near 1e-16, so it also
pins the last bits of the scalar totals and of both channel routes on the
seeded corpus.  Regenerate a file only for an intended change of output, and
say why in the change log.
"""

import contextlib
import hashlib
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


JSON_Q = "0.001,0.01,0.3333333333333,0.5,0.77,1"


@pytest.mark.parametrize(
    "channel, metrics, digest",
    [
        ("pdc", "skew", "e36b4a92750f30844b612afcb068d8e5b956a230c5972bea28391c2b92ee9b60"),
        (
            "pdc",
            "concurrence,qfi",
            "d35102d6b5365ca5d523bd24300cd44566074647ddf2e545fd45fdb30a344815",
        ),
        ("dpc", "skew", "c034ae721dd958d4a777d337e38810d2280c23c75ec62be9b7ee24b6b37d8a94"),
        (
            "dpc",
            "concurrence,qfi",
            "973452443f9d37b72dc3149e308f38df4d592e4b54ca78b540189d65d0bf77eb",
        ),
        ("pfc", "skew", "fb05d33cac03fe8acbe1f5ba591860c3936dc3bc27d4c06295fa71ba43d323ff"),
        (
            "pfc",
            "concurrence,qfi",
            "c0e68e0cf274a44bdf928e6799893b09d0e2e1c18f651549497e2dd826fe7103",
        ),
    ],
)
def test_sweep_json_sha256(channel, metrics, digest, tmp_path):
    out = tmp_path / "sweep.json"
    argv = ["sweep", "--channel", channel, "--metrics", metrics, "--q", JSON_Q, "--p", "0:1:101"]
    assert main(argv + ["--format", "json", "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _validate_report(grid, seed):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(["validate", "--grid", str(grid), "--seed", str(seed)]) == 0
    return buffer.getvalue().encode("utf-8")


def test_validate_report_is_byte_identical():
    assert _validate_report(3, 0) == (DATA / "validate-grid3-seed0.txt").read_bytes()


def test_validate_grid9_report_is_byte_identical():
    assert _validate_report(9, 42) == (DATA / "validate-grid9-seed42.txt").read_bytes()


@pytest.mark.parametrize(
    "grid, seed, digest",
    [
        (9, 1, "82f7073d78363b16a5e41ce6946c6e242f84115f7e273cd7d52141c503f2457e"),
        (17, 5, "6f6f87e6dad625f13110b0babfbddbe3869f77c3f2734647017b87ac6ef68dbd"),
        (1, 3, "22bd691c2675d5348a6c1ae91fee9453854d95730a5f1f7edc813814e97f71bb"),
    ],
)
def test_validate_report_sha256(grid, seed, digest):
    assert hashlib.sha256(_validate_report(grid, seed)).hexdigest() == digest


@pytest.mark.parametrize("channel", ["pdc", "dpc", "pfc"])
def test_ghz_point_output_is_byte_identical(channel):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        for q, p in GHZ_POINTS:
            assert main(["ghz-point", "--channel", channel, "--q", q, "--p", p]) == 0
    expected = (DATA / f"ghz-point-{channel}.txt").read_bytes()
    assert buffer.getvalue().encode("utf-8") == expected
