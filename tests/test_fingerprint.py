"""scripts/fingerprint.py on a small slice: the corner cells of the default
matrix's first three instances, (K, N, a) = (2, 4, 1/2), (2, 4, 1) and
(2, 4, 2), which cover all five schemes and col's wide path.

The pinned digest is what the script printed before col's cross products
were stacked; a change to any report, message or decoded matrix of the
slice changes it.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "fingerprint.py"
SLICE_DIGEST = "997a753b03697b54cd33a65d4c1b05e9d112b6ba89d5f7a5fd865fea3390240e"


def _load():
    spec = importlib.util.spec_from_file_location("fingerprint", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fingerprint_of_a_small_slice_is_pinned():
    fingerprint = _load()
    assert {spec.scheme for spec in fingerprint.specs(3)} == {
        "agnostic",
        "uncoded",
        "multireq",
        "row",
        "col",
    }
    assert fingerprint.fingerprint(3) == (SLICE_DIGEST, 276)


def test_fingerprint_main_prints_digest_and_run_count(capsys, monkeypatch):
    fingerprint = _load()
    monkeypatch.setattr("sys.argv", ["fingerprint.py", "--instances", "1"])
    assert fingerprint.main() == 0
    digest, count, word = capsys.readouterr().out.split()
    assert (len(digest), count, word) == (64, "96", "runs")


@pytest.mark.parametrize("value", ["0", "-1", "two"])
def test_fingerprint_rejects_an_instance_count_below_one(value, capsys, monkeypatch):
    fingerprint = _load()
    monkeypatch.setattr("sys.argv", ["fingerprint.py", "--instances", value])
    with pytest.raises(SystemExit) as exit_info:
        fingerprint.main()
    assert exit_info.value.code == 2
    assert "must be a positive integer" in capsys.readouterr().err
