"""Closed-form loads, converse bounds, envelopes, and their orderings."""

from __future__ import annotations

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matcache import bounds
from matcache.bounds import (
    Envelope,
    LoadPoint,
    col_y,
    cutset_bound,
    f_group_fraction,
    genie_converse,
    genie_converse_corners,
    load_R1,
    load_R2,
    load_R2_corners,
    load_Rcol,
    load_Rrow,
    load_sa,
    load_sa_corners,
    row_partition_load,
)

MATRIX = [
    (K, N, a) for K in (2, 3, 4) for N in (4, 8, 20) for a in (F(1, 2), F(1), F(2))
]


# ---------------------------------------------------------------------------
# Envelope machinery


def test_envelope_two_points_is_segment():
    env = Envelope([LoadPoint(F(0), F(4)), LoadPoint(F(2), F(0))])
    assert env.evaluate(F(1)) == F(2)
    assert env.evaluate(F(0)) == F(4)
    assert env.evaluate(F(2)) == F(0)


def test_envelope_removes_collinear_middle():
    env = Envelope(
        [LoadPoint(F(0), F(4)), LoadPoint(F(1), F(2)), LoadPoint(F(2), F(0))]
    )
    assert len(env.vertices) == 2
    assert env.evaluate(F(1)) == F(2)


def test_envelope_keeps_lower_hull_only():
    env = Envelope(
        [LoadPoint(F(0), F(4)), LoadPoint(F(1), F(5)), LoadPoint(F(2), F(0))]
    )
    assert len(env.vertices) == 2
    assert env.evaluate(F(1)) == F(2)


def test_envelope_rejects_out_of_range():
    env = Envelope([LoadPoint(F(0), F(1)), LoadPoint(F(1), F(0))])
    with pytest.raises(ValueError):
        env.evaluate(F(2))
    assert env.evaluate(F(2), clamp_right=True) == F(0)


@settings(deadline=None, max_examples=60)
@given(
    ys=st.lists(st.fractions(min_value=0, max_value=100), min_size=2, max_size=8),
    num=st.integers(0, 16),
)
def test_envelope_is_convex_and_below_points(ys, num):
    points = [LoadPoint(F(x), y) for x, y in enumerate(ys)]
    env = Envelope(points)
    for pt in points:
        assert env.evaluate(pt.M) <= pt.R
    lo, hi = F(0), F(len(ys) - 1)
    x = lo + (hi - lo) * F(num, 16)
    mid = (lo + hi) / 2
    assert env.evaluate(mid) <= (env.evaluate(lo) + env.evaluate(hi)) / 2
    assert env.evaluate(x) >= 0


# ---------------------------------------------------------------------------
# Scheme formulas at fixture points


def test_reference_point_values():
    K, N, a, M = 4, 20, F(1, 2), F(10)
    assert load_sa(K, N, a, M) == F(64, 21)
    assert load_R1(K, N, a, M) == F(3)
    assert load_R2(K, N, a, M) == F(8, 3)
    assert load_Rrow(K, N, a, M) == (F(2), 2)
    assert load_Rcol(K, N, a, M) == F(16, 9)


def test_row_partition_loads_per_group_count():
    expected = {1: F(4), 2: F(2), 3: F(40, 9), 4: F(20, 9)}
    for ell, want in expected.items():
        assert row_partition_load(4, 20, F(1, 2), F(10), ell) == want


def test_square_family_envelope_value():
    assert load_sa(2, 4, 1, 2) == F(7, 5)


def test_wide_family_col_value():
    assert load_Rcol(2, 4, 2, 2) == F(3, 4)  # 9 symbols / B = 12


def test_col_load_independent_of_aspect_below_one():
    for a in (F(1, 10), F(1, 3), F(1, 2), F(1)):
        assert load_Rcol(4, 20, a, F(10)) == F(16, 9)


def test_wide_col_values():
    assert load_Rcol(2, 4, F(2), F(1)) == F(23, 16)
    assert load_Rcol(3, 6, F(2), F(2)) == F(13, 9)
    assert load_Rcol(3, 6, F(2), F(4)) == F(13, 27)


def test_endpoints_zero_at_full_memory():
    for K, N, a in MATRIX:
        assert load_R1(K, N, a, N) == 0
        assert load_R2(K, N, a, N) == 0
        assert load_Rrow(K, N, a, N)[0] == 0
        assert load_Rcol(K, N, a, N) == 0


def test_zero_memory_loads():
    # R1(0) = K a^2 / g (every user unicast a full product)
    assert load_R1(4, 20, F(10), 0) == 4 * F(100, 19)
    assert load_R1(4, 20, F(1, 2), 0) == 4
    # R2(0) = 2 K a / g (two raw matrices per user)
    assert load_R2(4, 20, F(10), 0) == 2 * 4 * F(10, 19)


# ---------------------------------------------------------------------------
# Column-scheme combinatorial lengths


def test_f_group_fractions_at_reference_point():
    values = [f_group_fraction(4, 2, F(1), i) for i in range(4)]
    assert values == [F(1, 6), F(1, 6), F(1, 36), F(0)]
    assert col_y(4, 2, F(1)) == F(16, 9)


def test_col_y_matches_weighted_sum():
    for K in (3, 4, 5):
        for t in range(K):
            for alpha in (F(1), F(1, 2)):
                y = sum(
                    bounds.comb0(K, i + 1) * f_group_fraction(K, t, alpha, i)
                    for i in range(t + 2)
                )
                assert y == col_y(K, t, alpha)


# ---------------------------------------------------------------------------
# Converse bounds


def test_cutset_fixture():
    assert cutset_bound(4, 20, 1, 1) == F(12, 5)  # b = 4: 4 - 16/10


def test_cutset_clamps_to_zero():
    assert cutset_bound(4, 20, 1, F(20)) == 0


def test_cutset_respects_halved_library():
    # N = 5 gives N' = floor(N/2) = 2, so b ranges over {1, 2} even for K = 4
    value = cutset_bound(4, 5, 1, F(1, 2))
    candidates = [b - b * b * (F(1, 2) / 2) for b in (1, 2)]  # a/g = 1 at a = 1
    assert value == max(max(candidates), F(0))


def test_genie_corner_fixture():
    pts = genie_converse_corners(4, 20, 1)
    assert [(p.M, p.R) for p in pts] == [
        (F(0), F(4)),
        (F(5), F(3, 2)),
        (F(10), F(2, 3)),
        (F(15), F(1, 4)),
        (F(20), F(0)),
    ]


def test_genie_regime_restriction():
    with pytest.raises(ValueError):
        genie_converse_corners(4, 20, F(1, 2))  # a < 1
    with pytest.raises(ValueError):
        genie_converse_corners(4, 6, F(2))  # N < 2K


def test_genie_factor_two_against_replication_corners():
    for K, N, a in MATRIX:
        if not (a >= 1 and N >= 2 * K):
            continue
        genie = {p.M: p.R for p in genie_converse_corners(K, N, a)}
        rep = {p.M: p.R for p in load_R2_corners(K, N, a)}
        assert set(genie) == set(rep)
        for M, value in genie.items():
            assert rep[M] == 2 * value


# ---------------------------------------------------------------------------
# Orderings on the memory grid


@pytest.mark.parametrize("K,N,a", MATRIX)
def test_corollary_orderings_on_grid(K, N, a):
    """Partition schemes never lose to their unpartitioned baselines:
    R_row <= R2 and R_col <= R1 at every grid memory."""
    for j in range(41):
        M = F(j * N, 40)
        assert load_Rrow(K, N, a, M)[0] <= load_R2(K, N, a, M)
        assert load_Rcol(K, N, a, M) <= load_R1(K, N, a, M)


@pytest.mark.parametrize("K,N,a", MATRIX)
def test_converses_below_achievables_on_grid(K, N, a):
    genie_ok = a >= 1 and N >= 2 * K
    for j in range(41):
        M = F(j * N, 40)
        achievable = [
            load_sa(K, N, a, M),
            load_R1(K, N, a, M),
            load_R2(K, N, a, M),
            load_Rrow(K, N, a, M)[0],
            load_Rcol(K, N, a, M),
        ]
        cut = cutset_bound(K, N, a, M)
        assert all(cut <= value for value in achievable)
        if genie_ok:
            genie = genie_converse(K, N, a, M)
            assert all(genie <= value for value in achievable)
            # factor-2 tightness holds for the row partition and replication
            assert load_Rrow(K, N, a, M)[0] <= 2 * genie or genie == 0
            assert load_R2(K, N, a, M) <= 2 * genie or genie == 0


def test_sa_corners_monotone():
    pts = load_sa_corners(2, 4, 1)
    assert all(p.M <= q.M for p, q in zip(pts, pts[1:]))
    env = Envelope(pts)
    assert env.evaluate(F(2)) == F(7, 5)
