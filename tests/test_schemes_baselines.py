"""Uncoded column caching and flat-file replication baselines."""

from __future__ import annotations

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matcache.bounds import load_R1, load_R2
from matcache.field import mat_mul
from matcache.model import (
    DemandVector,
    ProblemInstance,
    SchemeParameterError,
    build_library,
    run_scheme,
    worst_case_demands,
)
from matcache.schemes import baselines
from matcache.schemes.baselines import MultiRequestConfig, UncodedConfig


# ---------------------------------------------------------------------------
# Uncoded column caching


def test_uncoded_square_fixture():
    inst = ProblemInstance(K=2, N=4, s=2, r=2, M=F(2))
    result = run_scheme("uncoded", inst, UncodedConfig(), seed=0)
    assert result.verified
    assert result.report.total_payload_symbols == 6  # K (r^2 - c^2) with c = 1
    assert result.report.load == F(3, 2)
    assert result.report.load == load_R1(2, 4, 1, 2)


def test_uncoded_reference_fixture():
    inst = ProblemInstance(K=4, N=20, s=12, r=6, M=F(10))
    result = run_scheme("uncoded", inst, UncodedConfig(), seed=1)
    assert result.verified
    assert result.report.total_payload_symbols == 108
    assert result.report.load == F(3) == load_R1(4, 20, F(1, 2), 10)


def test_uncoded_empty_and_full_memory():
    empty = ProblemInstance(K=2, N=4, s=2, r=2, M=F(0))
    result = run_scheme("uncoded", empty, UncodedConfig(), seed=2)
    assert result.verified and result.report.total_payload_symbols == 2 * 4
    full = ProblemInstance(K=2, N=4, s=2, r=2, M=F(4))
    result = run_scheme("uncoded", full, UncodedConfig(), seed=2)
    assert result.verified and result.report.total_payload_symbols == 0


def test_uncoded_rejects_fractional_column_count():
    inst = ProblemInstance(K=2, N=4, s=2, r=2, M=F(1, 3))  # c = 1/6
    with pytest.raises(SchemeParameterError):
        run_scheme("uncoded", inst, UncodedConfig(), seed=0)


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 2**31), half=st.booleans())
def test_uncoded_verifies_at_both_corners(seed, half):
    inst = ProblemInstance(K=2, N=4, s=2, r=2, M=F(2) if half else F(4))
    result = run_scheme("uncoded", inst, UncodedConfig(), seed=seed)
    assert result.verified
    assert max(result.cache.totals()) <= inst.cache_budget


# The entries uncoded unicasts at r = 3 for each cached column count c, in
# wire order: the tail of each of the first c rows, then the full later rows.
UNCODED_WIRE_ORDER = {
    0: [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)],
    1: [(0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)],
    2: [(0, 2), (1, 2), (2, 0), (2, 1), (2, 2)],
    3: [],
}


@pytest.mark.parametrize("c", sorted(UNCODED_WIRE_ORDER))
def test_uncoded_payload_lists_the_uncached_entries_row_by_row(c):
    inst = ProblemInstance(K=2, N=3, s=2, r=3, M=F(c))  # c = M*r/N = M
    result = run_scheme("uncoded", inst, UncodedConfig(), seed=c)
    assert result.verified
    entries = UNCODED_WIRE_ORDER[c]
    if not entries:
        assert result.transcript.messages == ()
        return
    for k, (d1, d2) in enumerate(result.demands.pairs, start=1):
        product = mat_mul(result.library[d1 - 1].transpose(), result.library[d2 - 1]).data
        payload = result.transcript.find(("uncoded", k)).payload
        assert payload.tolist() == [product[i, j] for i, j in entries]


def _count_products(monkeypatch) -> list[tuple[int, ...]]:
    calls = []
    real = baselines._matmul_mod

    def counted(a, b, q):
        calls.append(a.shape)
        return real(a, b, q)

    monkeypatch.setattr(baselines, "_matmul_mod", counted)
    return calls


def test_uncoded_server_multiplies_nothing_at_full_memory(monkeypatch):
    inst = ProblemInstance(K=4, N=20, s=12, r=6, M=F(20))  # c = r
    library = build_library(inst, 3)
    calls = _count_products(monkeypatch)
    transcript = baselines.uncoded_deliver(inst, UncodedConfig(), library, worst_case_demands(inst))
    assert transcript.messages == () and calls == []


def test_uncoded_server_multiplies_each_demanded_pair_once(monkeypatch):
    inst = ProblemInstance(K=4, N=20, s=12, r=6, M=F(10))
    demands = DemandVector(((1, 2), (2, 1), (1, 2), (3, 3)), False)
    library = build_library(inst, 4)
    calls = _count_products(monkeypatch)
    transcript = baselines.uncoded_deliver(inst, UncodedConfig(), library, demands)
    assert len(calls) == 2  # the pairs (1, 2) and (3, 3)
    assert [message.tag for message in transcript.messages] == [("uncoded", k) for k in range(1, 5)]
    sent = np.ones((6, 6), dtype=bool)
    sent[:3, :3] = False  # c = M*r/N = 3
    for k, message in enumerate(transcript.messages, start=1):
        d1, d2 = demands.pair(k)
        product = mat_mul(library[d1 - 1].transpose(), library[d2 - 1]).data
        assert np.array_equal(message.payload, product[sent])
    first, _, third, _ = transcript.messages
    assert first.payload is third.payload  # one frozen array per pair, not a copy per message
    monkeypatch.undo()
    assert run_scheme("uncoded", inst, UncodedConfig(), 4, demands).verified


# ---------------------------------------------------------------------------
# Flat-file replication (two raw matrices per demand)


def test_multireq_square_fixture():
    inst = ProblemInstance(K=2, N=4, s=2, r=2, M=F(2))
    result = run_scheme("multireq", inst, MultiRequestConfig(t=1), seed=0)
    assert result.verified
    assert result.report.total_payload_symbols == 4
    assert result.report.load == F(1) == load_R2(2, 4, 1, 2)


def test_multireq_reference_fixture():
    inst = ProblemInstance(K=4, N=20, s=12, r=6, M=F(10))
    result = run_scheme("multireq", inst, MultiRequestConfig(t=2), seed=1)
    assert result.verified
    assert result.report.total_payload_symbols == 96
    assert result.report.load == F(8, 3) == load_R2(4, 20, F(1, 2), 10)


def test_multireq_zero_replication_unicasts_raw_matrices():
    inst = ProblemInstance(K=2, N=4, s=2, r=2, M=F(0))
    result = run_scheme("multireq", inst, MultiRequestConfig(t=0), seed=2)
    assert result.verified
    assert result.report.total_payload_symbols == 2 * 2 * 4  # two matrices per user
    assert result.report.load == F(4) == load_R2(2, 4, 1, 0)


def test_multireq_rejects_off_corner_memory():
    inst = ProblemInstance(K=4, N=20, s=12, r=6, M=F(7))
    with pytest.raises(SchemeParameterError) as err:
        run_scheme("multireq", inst, MultiRequestConfig(t=1), seed=0)
    assert any("M" in p for p in err.value.problems)


def test_multireq_rejects_nondivisible_chunks():
    inst = ProblemInstance(K=4, N=20, s=5, r=5, M=F(10))
    with pytest.raises(SchemeParameterError) as err:
        run_scheme("multireq", inst, MultiRequestConfig(t=2), seed=0)
    assert any("divis" in p for p in err.value.problems)


def test_multireq_handles_duplicate_demands():
    from matcache.model import DemandVector

    inst = ProblemInstance(K=2, N=4, s=2, r=2, M=F(2))
    demands = DemandVector(((1, 2), (1, 2)), worst_case_certified=False)
    result = run_scheme("multireq", inst, MultiRequestConfig(t=1), 3, demands)
    assert result.verified


def test_multireq_handles_transposed_demands():
    from matcache.model import DemandVector

    inst = ProblemInstance(K=2, N=4, s=2, r=2, M=F(2))
    demands = DemandVector(((2, 1), (4, 3)), worst_case_certified=False)
    result = run_scheme("multireq", inst, MultiRequestConfig(t=1), 4, demands)
    assert result.verified


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 2**31), t=st.integers(0, 2))
def test_multireq_verifies_at_every_corner(seed, t):
    inst = ProblemInstance(K=2, N=4, s=2, r=2, M=F(4 * t, 2))
    result = run_scheme("multireq", inst, MultiRequestConfig(t=t), seed=seed)
    assert result.verified
    assert max(result.cache.totals()) <= inst.cache_budget
