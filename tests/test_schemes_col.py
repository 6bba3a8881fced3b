"""Column-partition scheme: block layouts, compressed multicasts, coded
coefficients for wide matrices, and column permutations for singular blocks."""

from __future__ import annotations

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matcache.bounds import load_Rcol
from matcache.field import DEFAULT_FIELD, FieldMatrix, mat_mul
from matcache.model import (
    ProblemInstance,
    SchemeParameterError,
    get_scheme,
    run_scheme,
    verify_retrieval,
    worst_case_demands,
)
from matcache.schemes.col import ColConfig, ColParams, build_layout, col_params, tier_widths


def test_col_params_at_corner_and_between():
    corner = ProblemInstance(K=4, N=20, s=12, r=6, M=F(10))
    assert col_params(corner) == ColParams(2, F(1))
    between = ProblemInstance(K=4, N=20, s=12, r=6, M=F(15, 2))
    assert col_params(between) == ColParams(1, F(1, 2))


def test_layout_covers_all_columns_once():
    params = ColParams(2, F(1))
    layout = build_layout(params, 4, 6)
    assert layout.total == 6
    w1, w2 = tier_widths(params, 4, 6)
    assert (w1, w2) == (1, 0)
    covered = sorted(
        c for e in layout.entries for c in range(e.offset, e.offset + e.width)
    )
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
    from matcache.model import DemandVector

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
