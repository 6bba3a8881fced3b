"""scripts/ab_inproc.py: two copies of one tree load as two packages in one
process, in each import order, their passes alternate on one BLAS thread,
and the caller's `matcache` is left in place."""

from __future__ import annotations

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import matcache

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "ab_inproc.py"


def _load():
    spec = importlib.util.spec_from_file_location("ab_inproc", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checkouts(tmp_path: Path) -> list[str]:
    sides = []
    for side in ("parent", "change"):
        shutil.copytree(ROOT / "src" / "matcache", tmp_path / side / "src" / "matcache")
        (tmp_path / side / "perfbench").mkdir()
        shutil.copy(ROOT / "perfbench" / "workloads.py", tmp_path / side / "perfbench")
        sides.append(str(tmp_path / side))
    return sides


def test_two_copies_of_one_tree_alternate_in_one_process(tmp_path, capsys, monkeypatch):
    ab_inproc = _load()
    parent, change = _checkouts(tmp_path)
    modules, cells = ab_inproc.load(Path(change), "large-matrices", 3, ["col"])
    assert [cell.scheme for cell in cells] == ["col", "col"]
    assert Path(modules["matcache.harness"].__file__).is_relative_to(change)
    assert sys.modules["matcache"] is matcache

    # Pinned here to record the call, so this test process keeps its BLAS threads.
    pinned = []
    monkeypatch.setattr(ab_inproc, "pin_one_blas_thread", pinned.append)
    options = ["--workload", "large-matrices", "--scheme", "col", "--passes", "2"]
    assert ab_inproc.main([parent, change] + options) == 0
    assert sys.modules["matcache"] is matcache
    assert len(pinned) == 1 and Path(pinned[0]["matcache.field"].__file__).is_relative_to(change)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "workload large-matrices  scheme col  seed 1  cells 2  one BLAS thread"
    # Each import order in turn: its digests, its passes and its medians.
    for first, half in (("parent", lines[1:6]), ("change", lines[6:11])):
        assert half[0] == f"{first} imported first"
        assert half[1] == "transcript digests: 0 of 2 cells differ"
        assert [line.split(":")[0] for line in half[2:4]] == ["pass 1", "pass 2"]
        assert half[4].startswith("median: parent ") and " ratio " in half[4]
    assert lines[11].startswith("pooled median: parent ") and " ratio " in lines[11]
    assert len(lines) == 12


def test_several_schemes_keep_the_workload_order(tmp_path):
    ab_inproc = _load()
    _, change = _checkouts(tmp_path)
    _, cells = ab_inproc.load(Path(change), "large-matrices", 3, ["col", "agnostic"])
    assert [cell.scheme for cell in cells] == ["agnostic", "agnostic", "col", "col"]
    _, everything = ab_inproc.load(Path(change), "large-matrices", 3, None)
    assert list(map(repr, cells)) == [
        repr(cell) for cell in everything if cell.scheme in ("agnostic", "col")
    ]


@pytest.mark.parametrize(
    "options, message",
    [
        (["--passes", "0"], "--passes must be at least 1, got 0"),
        (["--workload", "cornerz"], "unknown workload cornerz; choose from corners"),
        (["--scheme", "rows"], "workload large-matrices has no rows cell"),
        (["--scheme", "col", "rows"], "workload large-matrices has no rows cell"),
    ],
)
def test_bad_arguments_exit_2(options, message, tmp_path, capsys):
    ab_inproc = _load()
    with pytest.raises(SystemExit) as exit_info:
        ab_inproc.main(_checkouts(tmp_path) + ["--workload", "large-matrices"] + options)
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err
    assert sys.modules["matcache"] is matcache


def test_the_pin_reaches_numpys_openblas():
    """In a process of its own, so that this one keeps its BLAS threads: the
    pin sets the thread count OpenBLAS reports, where numpy has an OpenBLAS."""
    script = f"""
import ctypes, importlib.util, sys
sys.path.insert(0, {str(ROOT / "src")!r})
from matcache import field
spec = importlib.util.spec_from_file_location("ab_inproc", {str(SCRIPT)!r})
ab_inproc = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_inproc)
getters = [
    getattr(ctypes.CDLL(path), f"{{prefix}}openblas_get_num_threads{{suffix}}", None)
    for path in field._openblas_paths() for prefix in ("scipy_", "") for suffix in ("64_", "")
]
getters = [getter for getter in getters if getter is not None]
ab_inproc.pin_one_blas_thread({{"matcache.field": field}})
print(sorted({{getter() for getter in getters}}))
"""
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() in ("[1]", "[]")
