"""Column-partition scheme: block layouts, compressed multicasts, coded
coefficients for wide matrices, and column permutations for singular blocks."""

from __future__ import annotations

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matcache.bounds import load_Rcol
from matcache.field import (
    DEFAULT_FIELD,
    FieldMatrix,
    FieldSpec,
    _matmul_mod,
    mat_mul,
    spanning_column_split,
)
from matcache.model import (
    DemandVector,
    ProblemInstance,
    SchemeParameterError,
    get_scheme,
    run_scheme,
    verify_retrieval,
    worst_case_demands,
)
from matcache.schemes import col
from matcache.schemes.col import ColConfig, constraints
from matcache.schemes.common import man_split, split_widths


def test_col_split_at_corner_and_between():
    corner = ProblemInstance(K=4, N=20, s=12, r=6, M=F(10))
    assert split_widths(4, 4 * corner.M / corner.N, corner.r)[:2] == (2, F(1))
    assert constraints(corner, ColConfig()) == {"alpha*r/C(K,t)": 1}
    between = ProblemInstance(K=4, N=20, s=12, r=6, M=F(15, 2))
    assert split_widths(4, 4 * between.M / between.N, between.r)[:2] == (1, F(1, 2))


def test_layout_covers_all_columns_once():
    split = man_split(4, 2, 6)  # t = 2, alpha = 1
    assert split.total == 6
    assert split_widths(4, 2, 6)[2:] == (1, 0)
    covered = sorted(c for b in split.blocks for c in range(b.offset, b.offset + b.width))
    assert covered == list(range(6))


def test_square_fixture_five_symbols():
    inst = ProblemInstance(K=2, N=4, s=2, r=2, M=F(2))
    result = run_scheme("col", inst, None, seed=0)
    assert result.verified
    assert result.report.total_payload_symbols == 5
    assert result.report.load == F(5, 4) == load_Rcol(2, 4, 1, 2)


def test_wide_fixture_nine_symbols_split():
    inst = ProblemInstance(K=2, N=4, s=2, r=4, M=F(2))
    result = run_scheme("col", inst, None, seed=0)
    assert result.verified
    assert result.report.total_payload_symbols == 9
    by_step = {"lead": 0, "step2": 0, "step3": 0}
    for message in result.transcript.messages:
        kind = message.tag[1]
        key = kind if kind in ("step2", "step3") else "lead"
        by_step[key] += message.payload.size
    assert (by_step["lead"], by_step["step2"], by_step["step3"]) == (5, 2, 2)
    assert result.report.load == F(3, 4) == load_Rcol(2, 4, 2, 2)


def test_reference_fixture_round_totals():
    inst = ProblemInstance(K=4, N=20, s=12, r=6, M=F(10))
    result = run_scheme("col", inst, None, seed=0)
    assert result.verified
    assert result.report.total_payload_symbols == 64
    totals: dict[int, int] = {}
    for message in result.transcript.messages:
        totals[message.tag[1]] = totals.get(message.tag[1], 0) + message.payload.size
    assert totals == {0: 24, 1: 36, 2: 4}  # s^2/6, s^2/4, s^2/36
    assert result.report.load == F(16, 9)


def test_wide_fixtures_various_ratios():
    cases = [
        (ProblemInstance(K=2, N=4, s=8, r=16, M=F(1)), F(23, 16)),
        (ProblemInstance(K=2, N=4, s=8, r=4, M=F(1)), F(29, 16)),
        (ProblemInstance(K=3, N=6, s=3, r=6, M=F(2)), F(13, 9)),
        (ProblemInstance(K=3, N=6, s=3, r=6, M=F(4)), F(13, 27)),
    ]
    for inst, want in cases:
        result = run_scheme("col", inst, None, seed=1)
        assert result.verified, (inst.K, inst.M)
        assert result.report.load == want == load_Rcol(inst.K, inst.N, inst.a, inst.M)


def test_nonintegral_widths_rejected():
    inst = ProblemInstance(K=3, N=6, s=5, r=5, M=F(2))  # widths 5/3
    with pytest.raises(SchemeParameterError) as err:
        run_scheme("col", inst, None, seed=0)
    assert any("width" in p for p in err.value.problems)


def test_load_independent_of_demands():
    inst = ProblemInstance(K=2, N=4, s=2, r=4, M=F(2))
    loads = set()
    for pairs in (((1, 2), (3, 4)), ((2, 2), (2, 2)), ((4, 1), (2, 3))):
        result = run_scheme("col", inst, None, 2, DemandVector(pairs, False))
        assert result.verified
        loads.add(result.report.load)
    assert loads == {F(3, 4)}


def test_singular_leading_block_uses_column_permutation():
    """Libraries whose first s columns are dependent must still decode: the
    placement publishes a per-matrix column permutation and the decoder undoes
    it after reassembling the permuted product."""
    inst = ProblemInstance(K=2, N=4, s=2, r=4, M=F(2))
    # leading 2x2 block all-zero: the natural leading block is singular
    blocks = [
        [[0, 0, 1, 2], [0, 0, 3, 4]],
        [[0, 0, 5, 6], [0, 0, 6, 5]],
        [[0, 0, 2, 7], [0, 0, 1, 9]],
        [[0, 0, 8, 3], [0, 0, 2, 1]],
    ]
    library = [FieldMatrix.from_rows(DEFAULT_FIELD, rows) for rows in blocks]
    scheme = get_scheme("col")
    config = ColConfig()
    assert scheme.validate(inst, config) == []
    cache = scheme.place(inst, config, library)
    perms = cache.for_user(1).metadata["column-permutations"]
    assert all(perm[0] >= 2 for perm in perms.values())  # zero columns deferred
    demands = worst_case_demands(inst)
    transcript = scheme.deliver(inst, config, library, demands)
    assert transcript.total_payload_symbols == 9
    decoded = [
        scheme.decode(inst, config, k, cache.for_user(k), transcript, demands)
        for k in (1, 2)
    ]
    assert verify_retrieval(inst, library, demands, decoded)
    i, j = demands.pair(1)
    assert decoded[0] == mat_mul(library[i - 1].transpose(), library[j - 1])


def test_transcript_regenerates_identically():
    inst = ProblemInstance(K=4, N=20, s=12, r=6, M=F(10))
    digests = {run_scheme("col", inst, None, seed=13).transcript.digest() for _ in range(3)}
    assert len(digests) == 1


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 2**31), t=st.integers(0, 2), wide=st.booleans())
def test_col_verifies_at_every_corner(seed, t, wide):
    inst = ProblemInstance(K=2, N=4, s=2, r=4 if wide else 2, M=F(4 * t, 2))
    result = run_scheme("col", inst, None, seed=seed)
    assert result.verified
    assert max(result.cache.totals()) <= inst.cache_budget


@pytest.mark.parametrize(
    "inst, pairs",
    [
        # Two tiers (t = 1) over GF(2): rank-deficient cross products.
        (
            ProblemInstance(K=6, N=12, s=120, r=60, field=FieldSpec(2), M=F(3)),
            ((1, 2), (3, 4), (5, 6), (7, 8), (9, 10), (11, 12)),
        ),
        # Wide, a = 2: the leading blocks of the column split.
        (
            ProblemInstance(K=6, N=12, s=20, r=40, M=F(6)),
            ((3, 9), (12, 1), (5, 5), (2, 7), (8, 4), (10, 6)),
        ),
        # Duplicate and transposed demands: parties with equal products.
        (ProblemInstance(K=4, N=20, s=12, r=6, M=F(10)), ((2, 1), (2, 1), (3, 3), (1, 2))),
    ],
)
def test_compress_cells_of_all_products_equal_one_call_per_product(inst, pairs):
    """The distinct demanded products, compressed in one call stacked per
    block shape, get the packets and headers that compressing each product
    alone gives; with a user, the call keeps exactly the cells whose V holds
    that user and leaves the other cells zero."""
    demands = DemandVector(pairs, False)
    result = run_scheme("col", inst, None, 5, demands)
    assert result.verified
    split, coeff = col._splits(inst)
    leads = {
        i: w.data if coeff is None else spanning_column_split(w, inst.s)[1].data
        for i, w in enumerate(result.library, start=1)
    }
    layout = col._layout(split, inst.s)
    products = {
        (d1, d2): _matmul_mod(leads[d1].T, leads[d2], inst.field.q)
        for d1, d2 in set(demands.normalized)
    }
    together = col._compress_cells(inst, layout, products)
    assert together.keys() == products.keys()
    for pair, product in products.items():
        ((packet, headers),) = col._compress_cells(inst, layout, {pair: product}).values()
        assert np.array_equal(together[pair][0], packet)
        assert together[pair][1] == headers
    split_users = 0
    for k in range(1, inst.K + 1):
        kept = col._compress_cells(inst, layout, products, user=k)
        assert kept.keys() == products.keys()
        for cells in layout.shapes.values():
            holds = cells.holders[:, k]
            index, _, symbols = cells.select(holds)
            _, _, others = cells.select(~holds)
            split_users += bool(index.size and others.size)
            for pair, (packet, headers) in kept.items():
                assert np.array_equal(packet[symbols], together[pair][0][symbols])
                assert [headers[i] for i in index] == [together[pair][1][i] for i in index]
                assert not packet[others].any()
    assert split_users


@pytest.mark.parametrize("M", [F(0), F(128)])
def test_rounds_walk_only_the_group_sizes_that_exist(M, monkeypatch):
    """At M = N the only intersection set is [K]: the rounds ask for the
    (K+1)-subsets alone, not for the 2^K - 1 smaller sets that send nothing.
    K = 64 also puts users past a 62-bit mask."""
    inst = ProblemInstance(K=64, N=128, s=2, r=2, M=M)
    asked = []

    def subsets_of(n, size):
        asked.append(size)
        return real(n, size)

    real = col.subsets_of
    monkeypatch.setattr(col, "subsets_of", subsets_of)
    result = run_scheme("col", inst, None, 3)
    assert result.verified
    assert result.report.load == load_Rcol(64, 128, 1, M)
    assert asked == ([65] if M else [1])


@pytest.mark.parametrize("wide", [True, False])
def test_each_side_splits_its_wide_matrices_in_one_call(wide, monkeypatch):
    """`place` splits the whole library in one call and `deliver` the
    demanded matrices in another; matrices with r <= s are not split."""
    inst = ProblemInstance(K=3, N=6, s=3, r=6 if wide else 3, M=F(2))
    calls = []
    real = col.spanning_column_splits

    def splits(matrices, block_cols):
        calls.append((len(matrices), block_cols))
        return real(matrices, block_cols)

    monkeypatch.setattr(col, "spanning_column_splits", splits)
    demands = DemandVector(((1, 2), (2, 1), (4, 4)), False)
    result = run_scheme("col", inst, None, 5, demands)
    assert result.verified
    assert calls == ([(6, 3), (3, 3)] if wide else [])  # the library, then matrices 1, 2 and 4
