"""Experiment harness: config parsing, shape suggestion, curves, sweeps."""

from __future__ import annotations

import csv
import ctypes
import hashlib
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction as F
from pathlib import Path

import pytest

from matcache import bounds, harness
from matcache.field import _openblas_paths, single_blas_thread
from matcache.harness import ConfigurationError, ExperimentSpec
from matcache.model import get_scheme, run_scheme

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_RATIOS = {
    "1/10": "curves_K4_N20_a1_10.csv",
    "1/2": "curves_K4_N20_a1_2.csv",
    "1": "curves_K4_N20_a1.csv",
    "2": "curves_K4_N20_a2.csv",
    "10": "curves_K4_N20_a10.csv",
}


# ---------------------------------------------------------------------------
# Configuration parsing


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "cell.cfg"
    cfg.write_text("# comment\nscheme = row\nK=4\n\nN = 20  # inline\nM = 10\n")
    assert harness.parse_config_file(cfg) == {
        "scheme": "row",
        "K": "4",
        "N": "20",
        "M": "10",
    }


def test_parse_config_file_rejects_malformed_lines(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("scheme row\n")
    with pytest.raises(ConfigurationError):
        harness.parse_config_file(cfg)


def test_spec_from_mapping_validates_keys():
    with pytest.raises(ConfigurationError):
        harness.spec_from_mapping({"scheme": "row", "K": "2", "N": "4", "M": "1", "bogus": "1"})
    with pytest.raises(ConfigurationError):
        harness.spec_from_mapping({"scheme": "row", "K": "2", "N": "4"})  # no M
    with pytest.raises(ConfigurationError):
        harness.spec_from_mapping({"scheme": "nope", "K": "2", "N": "4", "M": "1"})
    spec = harness.spec_from_mapping({"scheme": "col", "K": "2", "N": "4", "M": "3/2"})
    assert spec == ExperimentSpec(scheme="col", K=2, N=4, M=F(3, 2))


def test_parse_fraction():
    assert harness.parse_fraction("5/2") == F(5, 2)
    assert harness.parse_fraction(" 10 ") == F(10)
    with pytest.raises(ConfigurationError):
        harness.parse_fraction("x/y")


def test_fraction_str_round_trips():
    for value in (F(0), F(16, 9), F(10)):
        assert F(harness.fraction_str(value)) == value


# ---------------------------------------------------------------------------
# Shape suggestion


def test_suggest_shape_minimal_multiple():
    spec = ExperimentSpec(scheme="multireq", K=4, N=20, M=F(10), a=F(1, 2))
    assert harness.suggest_shape(spec) == (6, 3)


def test_suggest_rescale_fixture():
    spec = ExperimentSpec(scheme="multireq", K=4, N=20, M=F(10), s=5, r=5)
    assert harness.suggest_rescale(spec) == (30, 30)


def test_suggest_shape_none_when_memory_not_a_corner():
    spec = ExperimentSpec(scheme="agnostic", K=2, N=4, M=F(3, 7), a=F(1))
    assert harness.suggest_shape(spec, max_scale=16) is None


def test_resolve_instance_requires_shape_or_ratio():
    with pytest.raises(ConfigurationError):
        harness.resolve_instance(ExperimentSpec(scheme="col", K=2, N=4, M=F(2)))
    with pytest.raises(ConfigurationError):
        harness.resolve_instance(ExperimentSpec(scheme="col", K=2, N=4, M=F(2), s=2))


# ---------------------------------------------------------------------------
# Simulation cells


def test_simulate_cell_report_fields():
    spec = ExperimentSpec(scheme="row", K=4, N=20, M=F(10), s=12, r=6, ell=2, seed=3)
    report = harness.simulate_cell(spec)
    assert report["load"] == "2/1" and report["verified"]
    assert report["formula_matches"]
    assert report["B"] == 36
    assert report["demands"] == [[1, 2], [3, 4], [5, 6], [7, 8]]
    assert len(report["transcript_digest"]) == 64


def test_simulate_cell_derives_row_group_count():
    spec = ExperimentSpec(scheme="row", K=4, N=20, M=F(10), s=12, r=6)
    report = harness.simulate_cell(spec)
    assert report["config"] == {"ell": 2}  # best load picks ell = 2
    assert report["load"] == "2/1"


def test_simulate_cell_explicit_demands():
    spec = ExperimentSpec(
        scheme="col", K=2, N=4, M=F(2), s=2, r=2, demands="2,1;3,3", seed=0
    )
    report = harness.simulate_cell(spec)
    assert report["verified"]
    assert report["demands"] == [[2, 1], [3, 3]]
    assert not report["worst_case_certified"]


def test_make_demands_rejects_malformed():
    inst = harness.resolve_instance(ExperimentSpec(scheme="col", K=2, N=4, M=F(2), s=2, r=2))
    with pytest.raises(ConfigurationError):
        harness.make_demands(inst, "1,2", seed=0)  # one pair for two users
    with pytest.raises(ConfigurationError):
        harness.make_demands(inst, "1;2", seed=0)


# ---------------------------------------------------------------------------
# Curves and golden files


@pytest.mark.parametrize("a_text,fname", sorted(GOLDEN_RATIOS.items()))
def test_curves_match_golden_files(a_text, fname):
    rows = harness.curve_rows(4, 20, F(a_text), grid=40)
    regenerated = harness.csv_text(harness.CURVE_COLUMNS, rows)
    assert regenerated == (GOLDEN_DIR / fname).read_text(encoding="utf-8")


def test_curve_csv_round_trip(tmp_path):
    rows = harness.curve_rows(2, 4, F(1), grid=8)
    path = tmp_path / "curves.csv"
    harness.write_curve_csv(path, rows)
    with open(path, encoding="utf-8", newline="") as fh:
        back = list(csv.DictReader(fh))
    assert back == rows
    for row in back:
        assert F(row["R_col"]) >= 0  # rationals survive the round trip exactly


def test_simulated_column_matches_formula():
    rows = harness.curve_rows(4, 20, F(1, 2), grid=10, simulate_scheme="row")
    for row in rows:
        if row["simulated"]:
            assert F(row["simulated"]) == F(row["R_row"])


def test_wide_ratio_replication_beats_uncoded_at_small_memory():
    with open(GOLDEN_DIR / GOLDEN_RATIOS["10"], encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    small = [row for row in rows if 0 < F(row["M"]) <= 10]
    assert small
    for row in small:
        assert F(row["R2"]) < F(row["R1"])


# ---------------------------------------------------------------------------
# Sweeps


def test_expand_sweep_cells_ranges_dedupe_and_order():
    mapping = {
        "scheme": "row",
        "K": "4",
        "N": "20",
        "s": "12",
        "r": "6",
        "M": "10",
        "ell": "2,1..2",  # 2 duplicates with the range
        "seed": "0..1",
    }
    cells = harness.expand_sweep_cells([mapping, mapping])
    assert len(cells) == 4  # ell in {1,2} x seed in {0,1}, duplicates removed
    assert [c.sort_key() for c in cells] == sorted(c.sort_key() for c in cells)


def test_expand_sweep_cells_keeps_cells_that_differ_only_in_a_or_an_unset_shape():
    base = {"scheme": "col", "K": "2", "N": "4", "M": "2"}
    by_ratio = harness.expand_sweep_cells([{**base, "a": "1/2,2"}])
    assert [cell.a for cell in by_ratio] == [F(1, 2), F(2)]
    zero_s = harness.expand_sweep_cells([{**base, "a": "1", "s": "0"}, {**base, "a": "1"}])
    assert [cell.s for cell in zero_s] == [None, 0]  # unset sorts before set
    rows = harness.run_sweep(zero_s)
    assert rows[0]["error"] == "" and rows[1]["error"] != ""


def test_expand_preserves_demand_lists():
    mapping = {
        "scheme": "col",
        "K": "2",
        "N": "4",
        "s": "2",
        "r": "2",
        "M": "2",
        "demands": "1,2;3,4",
    }
    (cell,) = harness.expand_sweep_cells([mapping])
    assert cell.demands == "1,2;3,4"


def test_sweep_rows_record_validation_errors():
    cells = [ExperimentSpec(scheme="multireq", K=4, N=20, M=F(7), s=12, r=6, t=1)]
    (row,) = harness.run_sweep(cells)
    assert row["verified"] is False
    assert "M" in row["error"]


def test_sweep_keeps_other_rows_when_a_cell_raises(monkeypatch):
    cells = harness.expand_sweep_cells(
        [{"scheme": "col", "K": "2", "N": "4", "s": "2", "r": "2", "M": "2", "seed": "0..2"}]
    )
    real = harness.simulate_cell

    def flaky(spec):
        if spec.seed == 1:
            raise RuntimeError("user 1 cache 9 symbols exceeds budget 8")
        return real(spec)

    monkeypatch.setattr(harness, "simulate_cell", flaky)
    rows = harness.run_sweep(cells)
    assert [row["seed"] for row in rows] == [0, 1, 2]
    assert rows[1]["verified"] is False
    assert rows[1]["error"] == "RuntimeError: user 1 cache 9 symbols exceeds budget 8"
    assert all(row["verified"] is True and row["error"] == "" for row in (rows[0], rows[2]))


def test_sweep_worker_count_clamped_to_cpus_and_cells(monkeypatch):
    started = []

    class RecordingPool:
        def __init__(self, max_workers, initializer):
            assert initializer is single_blas_thread
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
    cells = [
        ExperimentSpec(scheme="multireq", K=4, N=20, M=F(7), s=12, r=6, t=1, seed=seed)
        for seed in range(5)
    ]
    harness.run_sweep(cells, parallel=10**9)
    harness.run_sweep(cells[:2], parallel=10**9)
    assert started == [3, 2]
    monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
    assert len(harness.run_sweep(cells, parallel=10**9)) == 5  # unknown CPU count: serial
    assert started == [3, 2]


def test_sweep_parallel_matches_serial():
    mapping = {
        "scheme": "col",
        "K": "2",
        "N": "4",
        "s": "2",
        "r": "2,4",
        "M": "0,2,4",
        "seed": "0..2",
    }
    cells = harness.expand_sweep_cells([mapping])
    assert harness.sweep_csv(cells, parallel=1) == harness.sweep_csv(cells, parallel=3)


# SHA-256 of the serial sweep CSV, pinned so that a refactor of the schemes or
# of the sweep keeps every row, value and byte: the row-partition example, and
# every scheme at K=2, N=4 by ratio and by shape, error rows included.
SWEEP_PINS = [
    (
        "example",
        20,
        "fe0b646e41dc0ad72f139b7abd8a501d86582e7e91eb4974ee17b95d1336ae4c",
    ),
    (
        "every-scheme",
        27,
        "3381dcc54c3808410a8e7adab6b3d3d5a0333d858fb5be42349839ac13540bbb",
    ),
]


def _pinned_sweep(name: str) -> list[dict[str, str]]:
    if name == "example":
        return [harness.parse_config_file(Path(__file__).parent.parent / "scripts/sweep_example.cfg")]
    return [
        {"scheme": "agnostic,uncoded,multireq,row,col", "K": "2", "N": "4", "a": "1", "M": "0,2,4"},
        {
            "scheme": "row,multireq",
            "K": "2",
            "N": "4",
            "s": "2",
            "r": "2",
            "M": "2",
            "t": "0..2",
            "ell": "1,2",
        },
    ]


@pytest.mark.parametrize("name,count,digest", SWEEP_PINS, ids=[pin[0] for pin in SWEEP_PINS])
def test_sweep_csv_bytes_are_pinned(name, count, digest):
    cells = harness.expand_sweep_cells(_pinned_sweep(name))
    assert len(cells) == count
    text = harness.sweep_csv(cells, parallel=1)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _blas_threads() -> int | None:
    """This process's OpenBLAS thread count, or None without an OpenBLAS."""
    for path in _openblas_paths():
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_", ""):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                if getter is not None:
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    return getter()
    return None


def test_pool_workers_run_one_blas_thread_and_leave_the_parent_alone():
    before = _blas_threads()
    if before is None:
        pytest.skip("numpy runs no OpenBLAS here")
    with ProcessPoolExecutor(max_workers=1, initializer=single_blas_thread) as pool:
        assert pool.submit(_blas_threads).result() == 1
    assert _blas_threads() == before


# ---------------------------------------------------------------------------
# Corner enumeration and fault injection


def test_corner_cells_structure():
    cells = harness.corner_cells(2, 4, F(1))
    assert all(0 <= cell.M <= 4 for cell in cells)
    schemes = {cell.scheme for cell in cells}
    assert schemes == {"agnostic", "uncoded", "multireq", "row", "col"}
    agnostic = [cell for cell in cells if cell.scheme == "agnostic"]
    assert [cell.t for cell in agnostic] == [0]  # t >= 1 memories exceed N here


def test_every_corner_has_a_realizable_shape():
    for cell in harness.corner_cells(3, 8, F(2)):
        assert harness.corner_shape(cell) is not None, cell


def test_a_new_scheme_needs_only_its_registry_entry(monkeypatch):
    """A sixth scheme added to SCHEMES (SCHEME_NAMES is its key tuple) gets
    its corner cells after col's and runs through the corner fuzz, with no
    other harness change."""
    from dataclasses import replace

    from matcache.schemes import SCHEMES, col

    before = harness.corner_cells(2, 4, F(1))
    monkeypatch.setitem(SCHEMES, "col2", replace(col.SCHEME, name="col2"))
    monkeypatch.setattr(harness, "SCHEME_NAMES", tuple(SCHEMES))
    col2 = [replace(cell, scheme="col2") for cell in before if cell.scheme == "col"]
    assert harness.corner_cells(2, 4, F(1)) == before + col2
    fuzz, parity = harness.corner_fuzz([(2, 4, F(1))], seeds=2)
    assert fuzz.passed and parity.passed
    assert fuzz.detail == f"{len(before) + len(col2)} corner cells x 2 seeds verified within budget"


def test_each_scheme_closed_form_is_the_plotted_curve_at_its_corners():
    # agnostic and multireq restate their closed forms instead of reading
    # bounds, so formula-parity alone does not tie them to the plotted curves.
    curve_of = {"agnostic": "R_sa", "uncoded": "R1", "multireq": "R2", "col": "R_col"}
    cells = [cell for combo in harness.default_matrix() for cell in harness.corner_cells(*combo)]
    assert len(cells) == 587
    for cell in cells:
        spec = cell.spec(*harness.corner_shape(cell), seed=0)
        instance = harness.resolve_instance(spec)
        config = harness.build_scheme_config(spec, instance)
        got = get_scheme(cell.scheme).formula_load(instance, config)
        if cell.scheme == "row":
            want = bounds.row_partition_load(cell.K, cell.N, cell.a, cell.M, cell.ell)
        else:
            want = harness.ACHIEVABLE_LOADS[curve_of[cell.scheme]](cell.K, cell.N, cell.a, cell.M)
        assert got == want, cell


def test_tampered_scheme_fails_verification():
    from matcache.model import ProblemInstance

    inst = ProblemInstance(K=2, N=4, s=2, r=2, M=F(2))
    bad = harness.tampered(get_scheme("col"))
    result = run_scheme(bad, inst, None, seed=0)
    assert not result.verified


def test_parse_instances():
    assert harness.parse_instances("2,4,1;4,20,1/2") == [(2, 4, F(1)), (4, 20, F(1, 2))]
    assert harness.parse_instances(" ") == []
    with pytest.raises(ConfigurationError):
        harness.parse_instances("2,4")
    with pytest.raises(ConfigurationError):
        harness.parse_instances("2,4,x")


def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "out.csv"
    harness.atomic_write_text(target, "a,b\n1,2\n")
    assert target.read_text() == "a,b\n1,2\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
