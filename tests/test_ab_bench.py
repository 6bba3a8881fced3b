"""scripts/ab_bench.py: its arguments are checked before any benchmark run
starts, and a one-pair A/B prints its table.  No benchmark runs here:
`run_once` is replaced by a stub."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ab_bench.py"


def _load():
    spec = importlib.util.spec_from_file_location("ab_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checkouts(tmp_path: Path) -> list[str]:
    sides = []
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("")
        sides.append(str(tmp_path / side))
    return sides


@pytest.mark.parametrize(
    "options, message",
    [
        (["--workload", "corners", "--pairs", "0"], "--pairs must be at least 1, got 0"),
        (["--workload", "corners", "--pairs", "-3"], "--pairs must be at least 1, got -3"),
        (["--workload", "corners", "--seconds", "0"], "--seconds must be positive, got 0"),
        (["--workload", "corners", "--seconds", "-1.5"], "--seconds must be positive, got -1.5"),
        (["--workload", "corners", "cornerz"], "unknown workload cornerz; choose from corners"),
    ],
)
def test_bad_arguments_exit_2_before_any_run(options, message, tmp_path, capsys):
    ab_bench = _load()

    def refuse(*args):
        raise AssertionError("no benchmark run may start on bad arguments")

    ab_bench.run_once = refuse
    with pytest.raises(SystemExit) as exit_info:
        ab_bench.main(_checkouts(tmp_path) + options)
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err


def test_one_pair_prints_every_end_to_end_metric(tmp_path, capsys):
    ab_bench = _load()
    names = [metric["name"] for metric in ab_bench.end_to_end()]
    calls = []

    def stub(checkout, workload, seed, seconds):
        calls.append((Path(checkout).name, workload, seed, seconds))
        return {name: 2.0 if Path(checkout).name == "change" else 1.0 for name in names}

    ab_bench.run_once = stub
    options = ["--workload", "all", "--pairs", "1", "--seed", "5", "--seconds", "0.5"]
    assert ab_bench.main(_checkouts(tmp_path) + options) == 0
    assert calls == [("parent", "all", 5, 0.5), ("change", "all", 5, 0.5)]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "workload all  seed 5  pairs 1  seconds 0.5"
    assert [line.split()[0] for line in lines[2:]] == names
    assert all(line.split()[-2] == "2.000" for line in lines[2:])


def test_verdicts_mark_a_bound_overrun_and_a_met_claim(tmp_path, capsys):
    """Ten pairs.  runs_per_s: the change wins 9/10 by a median gap of 30
    over a parent IQR of 0 (claim met).  run_p50_ms: 30% slower, over its
    0.24 bound.  setup_s: 20% slower, within its 0.25 bound.  peak_rss_mb:
    the change wins 10/10 but by 1 MB, inside the parent's IQR of 11."""
    ab_bench = _load()
    values = {
        "parent": {
            "runs_per_s": [100.0] * 10,
            "run_p50_ms": [1.0] * 10,
            "setup_s": [1.0] * 10,
            "peak_rss_mb": [40.0 + 2 * i for i in range(10)],
        },
        "change": {
            "runs_per_s": [130.0] * 9 + [90.0],
            "run_p50_ms": [1.3] * 10,
            "setup_s": [1.2] * 10,
            "peak_rss_mb": [39.0 + 2 * i for i in range(10)],
        },
    }
    calls = {"parent": 0, "change": 0}

    def stub(checkout, workload, seed, seconds):
        side = Path(checkout).name
        calls[side] += 1
        return {name: series[calls[side] - 1] for name, series in values[side].items()}

    ab_bench.run_once = stub
    assert ab_bench.main(_checkouts(tmp_path) + ["--workload", "corners"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split()[-4:] == ["bound", "claim", "ratio", "won"]
    verdicts = {line.split()[0]: line.split()[-4:-2] for line in lines[2:]}
    assert verdicts == {
        "runs_per_s": ["ok", "met"],
        "run_p50_ms": ["OVER", "-"],
        "setup_s": ["ok", "-"],
        "peak_rss_mb": ["ok", "-"],
    }
