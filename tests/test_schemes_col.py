"""Column-partition scheme: block layouts, compressed multicasts, coded
coefficients for wide matrices, and column permutations for singular blocks."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction as F
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matcache import compress
from matcache.bounds import load_Rcol
from matcache.field import (
    DEFAULT_FIELD,
    FieldMatrix,
    FieldSpec,
    _matmul_mod,
    mat_mul,
    spanning_column_splits,
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
from matcache.schemes.col import ColConfig, validate
from matcache.schemes.common import man_split, recover, split_widths, subset_sum


def test_col_split_at_corner_and_between():
    corner = ProblemInstance(K=4, N=20, s=12, r=6, M=F(10))
    assert split_widths(4, 4 * corner.M / corner.N, corner.r)[:2] == (2, F(1))
    assert [block.width for block in man_split(4, 4 * corner.M / corner.N, corner.r).blocks] == [1] * 6
    assert validate(corner, ColConfig()) == []
    between = ProblemInstance(K=4, N=20, s=12, r=6, M=F(15, 2))
    assert split_widths(4, 4 * between.M / between.N, between.r)[:2] == (1, F(1, 2))


def test_validate_names_each_fractional_width_of_each_range():
    wide = ProblemInstance(K=2, N=4, s=2, r=3, M=F(2))
    assert validate(wide, ColConfig()) == [
        "wide block width alpha*(r-s)/C(K,t) = 1/2 is not a positive integer"
    ]
    square = ProblemInstance(K=3, N=6, s=3, r=3, M=F(1))
    assert validate(square, ColConfig()) == [
        "wide block width alpha*r/C(K,t) = 3/2 is not a positive integer",
        "narrow block width (1-alpha)*r/C(K,t+1) = 1/2 is not a positive integer",
    ]


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
    library = [FieldMatrix(DEFAULT_FIELD, np.array(rows)) for rows in blocks]
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
        i: w.data if coeff is None else spanning_column_splits([w], inst.s)[0][1].data
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
    """At M = N the only intersection set is [K]: the rounds plan asks for
    the (K+1)-subsets alone, not for the 2^K - 1 smaller sets that send
    nothing.  K = 64 also puts users past a 62-bit mask."""
    inst = ProblemInstance(K=64, N=128, s=2, r=2, M=M)
    asked = []

    def subsets_of(n, size):
        asked.append(size)
        return real(n, size)

    real = col.subsets_of
    monkeypatch.setattr(col, "subsets_of", subsets_of)
    col._rounds.cache_clear()  # the walk runs when a grid's rounds are first planned
    result = run_scheme("col", inst, None, 3)
    assert result.verified
    assert result.report.load == load_Rcol(64, 128, 1, M)
    assert asked == ([65] if M else [1])


@pytest.mark.parametrize("wide", [True, False])
def test_each_side_splits_its_wide_matrices_in_one_call(wide, monkeypatch):
    """Inside run_scheme, `place` splits the whole library in one call and
    `deliver` reads the demanded matrices' splits back from the run's memo;
    a bare `deliver`, outside a memo, splits the demanded matrices in one
    call and sends the same bytes.  Matrices with r <= s are not split."""
    inst = ProblemInstance(K=3, N=6, s=3, r=6 if wide else 3, M=F(2))
    calls = []
    real = compress.spanning_column_splits

    def splits(matrices, block_cols):
        calls.append((len(matrices), block_cols))
        return real(matrices, block_cols)

    monkeypatch.setattr(compress, "spanning_column_splits", splits)
    demands = DemandVector(((1, 2), (2, 1), (4, 4)), False)
    result = run_scheme("col", inst, None, 5, demands)
    assert result.verified
    assert calls == ([(6, 3)] if wide else [])  # the library, once
    calls.clear()
    bare = col.deliver(inst, ColConfig(), result.library, demands)
    assert bare.digest() == result.transcript.digest()
    assert calls == ([(3, 3)] if wide else [])  # matrices 1, 2 and 4


def test_decoders_multiply_only_their_cached_columns(monkeypatch):
    """No product in a decoder's grid is wider than the columns it caches:
    c_k x s x c_k, not the total x s x total of zero-padded columns."""
    inst = ProblemInstance(K=6, N=12, s=120, r=60, M=F(3))  # two tiers
    decoding, widest = [], {}
    real_matmul, real_decode = col._matmul_mod, col._decode_grid

    def matmul(a, b, q):
        if decoding:
            k = decoding[-1]
            widest[k] = max(widest.get(k, 0), a.shape[0], b.shape[1])
        return real_matmul(a, b, q)

    def decode_grid(instance, split, k, *args):
        decoding.append(k)
        try:
            return real_decode(instance, split, k, *args)
        finally:
            decoding.pop()

    monkeypatch.setattr(col, "_matmul_mod", matmul)
    monkeypatch.setattr(col, "_decode_grid", decode_grid)
    result = run_scheme("col", inst, None, 3)
    assert result.verified
    split, _ = col._splits(inst)
    for k in range(1, inst.K + 1):
        cached = sum(block.width for block in split.blocks if k in block.subset)
        assert widest[k] == cached < split.total


@pytest.mark.parametrize("q", [2, 3, (1 << 31) - 1, (1 << 61) - 1])
@pytest.mark.parametrize(
    "inst, pairs",
    [
        (ProblemInstance(K=4, N=20, s=12, r=6, M=F(10)), None),  # one tier
        (ProblemInstance(K=4, N=8, s=24, r=24, M=F(3)), None),  # two tiers
        (ProblemInstance(K=3, N=6, s=3, r=6, M=F(2)), None),  # wide, r > s
        (ProblemInstance(K=4, N=20, s=12, r=6, M=F(10)), ((2, 1), (2, 1), (3, 3), (1, 2))),
        (ProblemInstance(K=7, N=14, s=42, r=42, M=F(3)), None),
    ],
    ids=["one-tier", "two-tier", "wide", "duplicate-transposed", "K7"],
)
def test_round_sums_and_cancellation_equal_subset_sum_and_recover(inst, pairs, q):
    """Each round payload is `subset_sum` over its members' groups, and each
    decoder recovers the groups `recover` gives from the round payloads and
    the zero-padded products of its cached columns, which equal the
    cached-column products placed in the grid."""
    inst = replace(inst, field=FieldSpec(q))
    demands = worst_case_demands(inst) if pairs is None else DemandVector(pairs, False)
    result = run_scheme("col", inst, None, 7, demands)
    assert result.verified
    split, coeff = col._splits(inst)
    layout = col._layout(split, inst.s)
    leads = {
        i: w.data if coeff is None else spanning_column_splits([w], inst.s)[0][1].data
        for i, w in enumerate(result.library, start=1)
    }
    products = {
        (d1, d2): _matmul_mod(leads[d1].T, leads[d2], q) for d1, d2 in set(demands.normalized)
    }
    own = col._compress_cells(inst, layout, products)

    def group(flats, k, rest):
        return flats[k][layout.symbols[rest]] if rest in layout.symbols else None

    server = {k: own[demands.pair(k)][0] for k in range(1, inst.K + 1)}
    rounds = [m for m in result.transcript.messages if isinstance(m.tag[1], int)]
    assert rounds
    for message in rounds:
        s_set = message.tag[2]
        want = subset_sum(q, message.payload.size, s_set, partial(group, server))
        assert np.array_equal(message.payload, want)
        for k in s_set:
            v_set = tuple(u for u in s_set if u != k)
            assert message.headers_for(k) == tuple(own[demands.pair(k)][1][layout.pairs[v_set]])

    def payload_for(s_set):
        return result.transcript.find(("col", len(s_set) - 1, s_set)).payload

    for k in range(1, inst.K + 1):
        cache = result.cache.for_user(k)
        padded = {}
        for i in {d for pair in demands.normalized for d in pair}:
            padded[i] = np.zeros((inst.s, split.total), dtype=np.int64)
            for block in split.blocks:
                if k in block.subset:
                    padded[i][:, block.span] = cache.get(("raw-cols", i, block.subset))
        zero_padded = {
            (d1, d2): _matmul_mod(padded[d1].T, padded[d2], q) for d1, d2 in products
        }
        lacks = col._rounds(split, inst.s).lacks[k - 1]
        cached = col._cached_products(inst, split.total, lacks, cache, demands)
        assert cached.keys() == zero_padded.keys()
        assert all(np.array_equal(cached[pair], zero_padded[pair]) for pair in cached)
        peers = {}
        for p in range(1, inst.K + 1):
            pair = demands.pair(p)
            peers[p] = col._compress_cells(inst, layout, {pair: zero_padded[pair]}, k)[pair][0]
        flat, headers = col._receive(q, k, layout, lacks, result.transcript, peers)
        missing = [v_set for v_set in layout.symbols if k not in v_set]
        recovered = recover(q, k, missing, payload_for, partial(group, peers))
        for v_set, packet in zip(missing, recovered, strict=True):
            assert np.array_equal(flat[layout.symbols[v_set]], packet)
            message = result.transcript.find(("col", len(v_set), tuple(sorted(v_set + (k,)))))
            assert headers[layout.pairs[v_set]] == list(message.headers_for(k))
        held = [layout.symbols[v_set] for v_set in layout.symbols if k in v_set]
        assert not any(flat[span].any() for span in held)
