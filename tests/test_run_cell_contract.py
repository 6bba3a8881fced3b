"""End-to-end contract of `harness.run_cell` over the fields and inputs the
package accepts: a cell either is rejected with a configuration or scheme
parameter error, or it decodes exactly at the closed-form load."""

from __future__ import annotations

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matcache import harness, model
from matcache.field import FieldMatrix, mat_mul
from matcache.harness import ConfigurationError, ExperimentSpec
from matcache.model import SchemeParameterError

FIELD_RANGE = (2, 3, 5, 2**61 - 1)
FIELD_RANGE_COMBOS = ((2, 4, F(1)), (3, 8, F(2)), (2, 4, F(1, 2)), (3, 4, F(2)))
DEGENERATE_FIELDS = (2, 3, 2**31 - 1, 2**61 - 1)
DEGENERATE_COMBOS = ((2, 4, F(1, 2)), (2, 4, F(2)), (3, 4, F(1)))


def test_corner_cells_decode_at_formula_load_in_every_field():
    """Every corner cell of four small (K, N, a) at its suggested shape, in the
    smallest fields and the largest supported one, with worst-case and random
    demands."""
    failures, runs = [], 0
    for K, N, a in FIELD_RANGE_COMBOS:
        for cell in harness.corner_cells(K, N, a):
            s, r = harness.corner_shape(cell)
            for q in FIELD_RANGE:
                for demands in ("worst", "random"):
                    spec = ExperimentSpec(
                        scheme=cell.scheme, K=K, N=N, M=cell.M, s=s, r=r, q=q,
                        t=cell.t, ell=cell.ell, seed=runs, demands=demands,
                    )
                    report, _ = harness.run_cell(spec)
                    runs += 1
                    if not (report["verified"] and report["formula_matches"]):
                        failures.append((spec, report["load"], report["formula_load"]))
    assert runs == 584
    assert failures == []


def _rank_one(library: list[FieldMatrix]) -> list[FieldMatrix]:
    """Each matrix's first column times its first row."""
    return [
        mat_mul(FieldMatrix(w.spec, w.data[:, :1]), FieldMatrix(w.spec, w.data[:1]))
        for w in library
    ]


def _every_other_zero(library: list[FieldMatrix]) -> list[FieldMatrix]:
    zero = np.zeros(library[0].shape, dtype=np.int64)
    return [FieldMatrix(w.spec, zero) if i % 2 else w for i, w in enumerate(library)]


def _one_repeated(library: list[FieldMatrix]) -> list[FieldMatrix]:
    return [library[0]] * len(library)


def _leading_half_zero(library: list[FieldMatrix]) -> list[FieldMatrix]:
    """Each matrix with its leading r/2 columns zeroed."""
    out = []
    for w in library:
        data = w.data.copy()
        data[:, : w.cols // 2] = 0
        out.append(FieldMatrix(w.spec, data))
    return out


@pytest.mark.parametrize("q", DEGENERATE_FIELDS)
@pytest.mark.parametrize(
    "degenerate", [_rank_one, _every_other_zero, _one_repeated, _leading_half_zero]
)
def test_corner_cells_decode_degenerate_libraries(degenerate, q, monkeypatch):
    """Libraries of low rank, zero matrices, repeated matrices and zero
    leading columns (which col must permute away) still decode every corner
    cell at the formula load, with worst-case and random demands."""
    build_library = model.build_library
    monkeypatch.setattr(model, "build_library", lambda *args: degenerate(build_library(*args)))
    failures, runs = [], 0
    for K, N, a in DEGENERATE_COMBOS:
        for cell in harness.corner_cells(K, N, a):
            s, r = harness.corner_shape(cell)
            for demands in ("worst", "random"):
                spec = ExperimentSpec(
                    scheme=cell.scheme, K=K, N=N, M=cell.M, s=s, r=r, q=q,
                    t=cell.t, ell=cell.ell, seed=runs, demands=demands,
                )
                report, _ = harness.run_cell(spec)
                runs += 1
                if not (report["verified"] and report["formula_matches"]):
                    failures.append((spec, report["load"], report["formula_load"]))
    assert runs == 106
    assert failures == []


def _mostly(lo: int, hi: int, full_lo: int, full_hi: int) -> st.SearchStrategy[int]:
    """Integers in [full_lo, full_hi], drawn from the valid [lo, hi] about half the time."""
    return st.one_of(st.integers(lo, hi), st.integers(full_lo, full_hi))


@st.composite
def _cell_settings(draw) -> dict:
    """Cell settings over and beyond the accepted ranges.  Values are drawn
    so that a good share of the cells are valid: M is often a grid point
    N*j/d (every corner of every scheme at K <= 5), and explicit demand lists
    often hold one in-range pair per user."""
    K, N = draw(_mostly(1, 5, -1, 5)), draw(_mostly(2, 9, 0, 9))
    grid = st.tuples(st.integers(1, 6), st.integers(0, 6)).map(
        lambda dj: F(N * min(dj), dj[0])
    )
    M = draw(st.one_of(grid, st.fractions(min_value=-1, max_value=10, max_denominator=12)))
    index = _mostly(1, max(N, 1), -1, 10)
    explicit = st.one_of(
        st.lists(st.tuples(index, index), min_size=max(K, 0), max_size=max(K, 0)),
        st.lists(st.tuples(index, index), max_size=6),
    )
    demands = st.one_of(
        st.sampled_from(("worst", "random")),
        explicit.map(lambda ps: ";".join(f"{i},{j}" for i, j in ps)),
    )
    optional = st.one_of(st.none(), st.integers(-1, 6))
    return dict(
        scheme=draw(st.sampled_from(harness.SCHEME_NAMES)),
        K=K,
        N=N,
        M=M,
        s=draw(_mostly(1, 12, 0, 12)),
        r=draw(_mostly(1, 12, 0, 12)),
        q=draw(st.sampled_from((2, 3, 4, 5, 7, 2**31 - 1, 2**61 - 1))),
        t=draw(optional),
        ell=draw(optional),
        seed=draw(st.integers(0, 3)),
        demands=draw(demands),
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(settings_=_cell_settings())
def test_run_cell_rejects_cleanly_or_decodes_at_formula_load(settings_):
    """Only explicit shapes are drawn: with `a` alone the suggester may scan
    shapes in the hundreds, far beyond a unit test's budget."""
    try:
        report, _ = harness.run_cell(ExperimentSpec(**settings_))
    except (ConfigurationError, SchemeParameterError):
        return
    assert report["verified"]
    assert report["formula_matches"]
