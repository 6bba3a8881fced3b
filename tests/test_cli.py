"""Command-line interface: exit codes, report output, file emission."""

from __future__ import annotations

import csv
import json
import xml.dom.minidom
from fractions import Fraction as F

import pytest

from matcache.cli import main

TINY_MATRIX = "2,4,1;2,4,2"


def test_simulate_reference_row_cell(capsys):
    code = main(
        "simulate --scheme row --K 4 --N 20 --s 12 --r 6 --M 10 --ell 2".split()
    )
    out = capsys.readouterr().out
    report = json.loads(out)
    assert code == 0
    assert report["load"] == "2/1"
    assert report["verified"] is True


def test_simulate_reference_col_cell(capsys):
    code = main("simulate --scheme col --K 4 --N 20 --s 12 --r 6 --M 10".split())
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["load"] == "16/9"


def test_simulate_invalid_memory_exits_two(capsys):
    code = main("simulate --scheme multireq --K 4 --N 20 --s 12 --r 6 --M 7".split())
    err = capsys.readouterr().err
    assert code == 2
    assert "validation failed" in err


def test_simulate_suggests_rescaling(capsys):
    code = main("simulate --scheme multireq --K 4 --N 20 --s 5 --r 5 --M 10".split())
    err = capsys.readouterr().err
    assert code == 2
    assert "--s 30 --r 30" in err


def test_simulate_non_corner_agnostic_memory_exits_two(capsys):
    code = main("simulate --scheme agnostic --K 2 --N 4 --s 10 --r 2 --M 2 --t 1".split())
    err = capsys.readouterr().err
    assert code == 2
    assert "corner" in err


# Each scheme with each parameter it does not take, at a cell it runs given
# by shape and at one given by ratio.
UNTAKEN = [
    ("uncoded", "--s 2 --r 2 --M 2", "--a 1 --M 2", "t", "5"),
    ("uncoded", "--s 2 --r 2 --M 2", "--a 1 --M 2", "ell", "1"),
    ("col", "--s 2 --r 2 --M 2", "--a 1 --M 2", "t", "1"),
    ("col", "--s 2 --r 2 --M 2", "--a 1 --M 2", "ell", "1"),
    ("row", "--s 2 --r 2 --M 2", "--a 1 --M 2", "t", "1"),
    ("agnostic", "--s 10 --r 2 --M 1 --t 1", "--a 1/5 --M 1 --t 1", "ell", "1"),
    ("multireq", "--s 2 --r 2 --M 2", "--a 1 --M 2", "ell", "2"),
]


@pytest.mark.parametrize(
    "scheme, by_shape, by_ratio, name, value", UNTAKEN, ids=[f"{u[0]}-{u[3]}" for u in UNTAKEN]
)
def test_simulate_rejects_a_parameter_the_scheme_does_not_take(
    capsys, scheme, by_shape, by_ratio, name, value
):
    for cell in (by_shape, by_ratio):
        base = f"simulate --scheme {scheme} --K 2 --N 4 {cell}".split()
        assert main(base) == 0
        capsys.readouterr()
        assert main(base + [f"--{name}", value]) == 2
        captured = capsys.readouterr()
        assert f"scheme {scheme} takes no parameter {name} (got {name}={value})" in captured.err
        assert "no (s, r)" not in captured.err
        assert captured.out == ""


@pytest.mark.parametrize(
    "flags, message",
    [
        ("--s 12 --r 6 --q 100", "field modulus must be prime, got 100"),
        ("--s 12 --r 6 --K 0", "invalid instance dimensions K=0"),
        ("--s 12 --r 6 --M 30", "cache size M=30 outside [0, N]"),
        ("--s 12 --r 6 --demands 1,2;3,4;5,6;7,99", "demand index outside [1, N=20]"),
        ("--a 1/2 --K 0", "invalid instance dimensions K=0"),
    ],
    ids=["q-not-prime", "K-zero", "M-above-N", "demand-above-N", "K-zero-suggester"],
)
def test_simulate_bad_cell_values_exit_two(capsys, flags, message):
    base = "simulate --scheme row --K 4 --N 20 --M 10 --ell 2".split()
    assert main(base + flags.split()) == 2
    captured = capsys.readouterr()
    assert f"configuration error: {message}" in captured.err
    assert captured.out == ""


def test_simulate_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cell.cfg"
    cfg.write_text("scheme = row\nK = 4\nN = 20\ns = 12\nr = 6\nM = 10\nell = 1\n")
    code = main(["simulate", "--config", str(cfg), "--ell", "2"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["config"] == {"ell": 2}


def test_simulate_writes_report_and_transcript(tmp_path, capsys):
    out = tmp_path / "report.json"
    dump = tmp_path / "transcript.txt"
    code = main(
        [
            "simulate", "--scheme", "col", "--K", "2", "--N", "4",
            "--s", "2", "--r", "2", "--M", "2",
            "--out", str(out), "--dump-transcript", str(dump),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report == json.loads(capsys.readouterr().out)
    lines = dump.read_text().splitlines()
    assert len(lines) == report["messages"]


def test_simulate_unknown_flag_value_exits_two(capsys):
    code = main("simulate --scheme col --K 2 --N 4 --M 2".split())
    assert code == 2  # neither (s, r) nor a given
    assert "configuration error" in capsys.readouterr().err


def test_analyze_stdout_and_round_trip(tmp_path, capsys):
    out = tmp_path / "curves.csv"
    code = main(["analyze", "--K", "4", "--N", "20", "--a", "1/2",
                 "--grid", "8", "--out", str(out)])
    assert code == 0
    from matcache import harness

    with open(out, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    at_10 = [row for row in rows if F(row["M"]) == 10]
    assert at_10 and F(at_10[0]["R_col"]) == F(16, 9)
    regenerated = harness.csv_text(harness.CURVE_COLUMNS, harness.curve_rows(4, 20, F(1, 2), grid=8))
    assert regenerated == out.read_text()


def test_analyze_svg_well_formed(tmp_path):
    svg = tmp_path / "curves.svg"
    code = main(["analyze", "--K", "2", "--N", "4", "--a", "2",
                 "--grid", "6", "--svg", str(svg), "--out", str(tmp_path / "c.csv")])
    assert code == 0
    doc = xml.dom.minidom.parseString(svg.read_text())
    assert doc.documentElement.tagName == "svg"
    assert svg.read_text().count("<polyline") >= 6


def test_analyze_bad_ratio_exits_two(capsys):
    assert main(["analyze", "--K", "2", "--N", "4", "--a", "zero"]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-3", "x"])
@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--K", "2", "--N", "4", "--a", "1", "--grid"],
        ["verify", "--instances", TINY_MATRIX, "--seeds"],
    ],
    ids=["analyze-grid", "verify-seeds"],
)
def test_grid_and_seeds_must_be_positive_integers(capsys, argv, value):
    assert main(argv + [value]) == 2
    captured = capsys.readouterr()
    assert f"configuration error: {argv[-1]} must be a positive integer" in captured.err
    assert captured.out == ""


def test_verify_empty_matrix_warns_and_passes(capsys):
    code = main(["verify", "--instances", ""])
    out = capsys.readouterr().out
    assert code == 0
    assert "warning" in out


@pytest.mark.parametrize("instances", ["2,4,0", "0,4,1", "2,4,-1/2", "2,1,1"])
def test_verify_rejects_out_of_range_instances_before_any_check(capsys, instances):
    code = main(["verify", "--instances", instances, "--seeds", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert f"configuration error: instance {instances!r} needs K >= 1, N >= 2 and a > 0" in captured.err
    assert "[PASS]" not in captured.out


def test_verify_tiny_matrix_passes(capsys):
    code = main(["verify", "--instances", TINY_MATRIX, "--seeds", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("[PASS]") == 10
    assert "10/10 checks passed" in out


def test_verify_fault_injection_fails(capsys):
    code = main(["verify", "--instances", "2,4,1", "--seeds", "1", "--fault-inject"])
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL] corner-decode-fuzz" in out


def test_sweep_deterministic_and_deduplicated(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "scheme = row\nK = 4\nN = 20\ns = 12\nr = 6\nM = 10\nell = 1..4\nseed = 0,0,1\n"
    )
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    assert main(["sweep", str(cfg), "--out", str(serial)]) == 0
    # duplicate config file: cells must be deduplicated, not repeated
    assert main(["sweep", str(cfg), str(cfg), "--out", str(parallel), "--parallel", "2"]) == 0
    capsys.readouterr()
    assert serial.read_text() == parallel.read_text()
    lines = serial.read_text().splitlines()
    assert len(lines) == 1 + 4 * 2  # header + ell x {0,1} seeds


@pytest.mark.parametrize("value", ["0", "-3", "two", "1.5"])
def test_sweep_rejects_bad_parallel(tmp_path, capsys, value):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("scheme = row\nK = 4\nN = 20\ns = 12\nr = 6\nM = 10\n")
    assert main(["sweep", str(cfg), "--parallel", value]) == 2
    captured = capsys.readouterr()
    assert "--parallel must be a positive integer" in captured.err
    assert captured.out == ""


def test_sweep_reports_invalid_cells(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("scheme = multireq\nK = 4\nN = 20\ns = 12\nr = 6\nM = 7\nt = 1\n")
    out = tmp_path / "bad.csv"
    code = main(["sweep", str(cfg), "--out", str(out)])
    capsys.readouterr()
    assert code == 1
    assert "False" in out.read_text()
