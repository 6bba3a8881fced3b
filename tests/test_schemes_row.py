"""Row-partition scheme: replication groups, two-tier splits, padded packets."""

from __future__ import annotations

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matcache.bounds import load_Rrow, row_partition_load
from matcache.model import ProblemInstance, SchemeParameterError, run_scheme
from matcache.schemes.common import man_split, split_widths
from matcache.schemes.row import RowConfig, validate


def test_row_split_integral():
    inst = ProblemInstance(K=4, N=20, s=12, r=6, M=F(10))
    t, alpha, h1, h2 = split_widths(2, 2 * inst.M / inst.N, inst.s)  # ell = 2
    assert (t, alpha) == (1, F(1))
    assert h1 == 6  # alpha * s / C(2,1)
    assert h2 == 0
    assert [block.width for block in man_split(2, 2 * inst.M / inst.N, inst.s).blocks] == [6, 6]
    assert validate(inst, RowConfig(ell=2)) == []


def test_row_split_fractional():
    inst = ProblemInstance(K=4, N=20, s=12, r=6, M=F(5))
    t, alpha, h1, h2 = split_widths(2, 2 * inst.M / inst.N, inst.s)  # ell = 2
    assert (t, alpha) == (0, F(1, 2))
    assert h1 == 6 and h2 == 3
    assert [block.width for block in man_split(2, 2 * inst.M / inst.N, inst.s).blocks] == [6, 3, 3]
    assert validate(inst, RowConfig(ell=2)) == []


def test_validate_names_each_fractional_tier():
    tall = ProblemInstance(K=2, N=4, s=5, r=5, M=F(2))
    assert validate(tall, RowConfig(ell=2)) == [
        "tall-tier block height alpha*s/C(ell,t) = 5/2 is not a positive integer"
    ]
    both = ProblemInstance(K=3, N=6, s=5, r=5, M=F(1))
    assert validate(both, RowConfig(ell=3)) == [
        "tall-tier block height alpha*s/C(ell,t) = 5/2 is not a positive integer",
        "short-tier block height (1-alpha)*s/C(ell,t+1) = 5/6 is not a positive integer",
    ]
    assert validate(tall, RowConfig(ell=3)) == ["ell=3 outside [1, K=2]"]


def test_single_packet_fixture():
    inst = ProblemInstance(K=2, N=4, s=2, r=2, M=F(2))
    result = run_scheme("row", inst, RowConfig(ell=2), seed=5)
    assert result.verified
    assert len(result.transcript.messages) == 1
    assert result.report.total_payload_symbols == 3
    assert result.report.load == F(3, 4)


def test_reference_point_loads_per_group_count():
    inst = ProblemInstance(K=4, N=20, s=12, r=6, M=F(10))
    expected_symbols = {1: 144, 2: 72, 3: 160, 4: 80}
    for ell, symbols in expected_symbols.items():
        result = run_scheme("row", inst, RowConfig(ell=ell), seed=ell)
        assert result.verified
        assert result.report.total_payload_symbols == symbols
        assert result.report.load == row_partition_load(4, 20, F(1, 2), 10, ell)
    assert load_Rrow(4, 20, F(1, 2), 10) == (F(2), 2)


def test_partial_last_group_pads_with_zeros():
    """K = 5 with ell = 3 leaves the second group short one user; packet
    lengths (and hence the load) must not depend on that."""
    inst = ProblemInstance(K=5, N=6, s=6, r=12, M=F(3))
    result = run_scheme("row", inst, RowConfig(ell=3), seed=0)
    assert result.verified
    assert result.report.load == F(46, 27)
    assert result.report.load == row_partition_load(5, 6, F(2), 3, 3)


def test_wide_ratio_group_counts():
    inst = ProblemInstance(K=5, N=6, s=6, r=12, M=F(3))
    for ell, want in ((1, F(35, 12)), (2, F(7, 4))):
        result = run_scheme("row", inst, RowConfig(ell=ell), seed=ell)
        assert result.verified
        assert result.report.load == want


def test_invalid_group_count_rejected():
    inst = ProblemInstance(K=5, N=6, s=6, r=12, M=F(3))
    with pytest.raises(SchemeParameterError):
        run_scheme("row", inst, RowConfig(ell=5), seed=0)  # tier height 3/10
    with pytest.raises(SchemeParameterError):
        run_scheme("row", inst, RowConfig(ell=0), seed=0)
    with pytest.raises(SchemeParameterError):
        run_scheme("row", inst, RowConfig(ell=6), seed=0)  # more groups than users


def test_load_independent_of_demands():
    from matcache.model import DemandVector

    inst = ProblemInstance(K=2, N=4, s=2, r=2, M=F(2))
    loads = set()
    for pairs in (((1, 2), (3, 4)), ((1, 1), (1, 1)), ((4, 2), (3, 1))):
        demands = DemandVector(pairs, worst_case_certified=False)
        result = run_scheme("row", inst, RowConfig(ell=2), 9, demands)
        assert result.verified
        loads.add(result.report.load)
    assert loads == {F(3, 4)}


def test_transcript_regenerates_identically():
    inst = ProblemInstance(K=4, N=20, s=12, r=6, M=F(10))
    digests = {run_scheme("row", inst, RowConfig(ell=2), seed=11).transcript.digest()
               for _ in range(3)}
    assert len(digests) == 1


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 2**31), ell=st.integers(1, 2), t=st.integers(0, 2))
def test_row_verifies_at_integral_corners(seed, ell, t):
    if t > ell:
        return
    inst = ProblemInstance(K=2, N=4, s=2, r=2, M=F(4 * t, ell))
    result = run_scheme("row", inst, RowConfig(ell=ell), seed=seed)
    assert result.verified
    assert max(result.cache.totals()) <= inst.cache_budget


def test_decoder_keeps_each_recovered_packet_without_a_copy(monkeypatch):
    from matcache.schemes import row

    recover, decompress_product = row.recover, row.decompress_product
    recovered, kept = [], []

    def recording_recover(*args):
        for packet in recover(*args):
            if packet is not None:
                recovered.append(packet)
            yield packet

    def recording_decompress(cp):
        kept.append(cp.packet)
        return decompress_product(cp)

    monkeypatch.setattr(row, "recover", recording_recover)
    monkeypatch.setattr(row, "decompress_product", recording_decompress)
    inst = ProblemInstance(K=4, N=20, s=12, r=6, M=F(10))  # ell = 2: t = 1, peers to cancel
    assert run_scheme("row", inst, RowConfig(ell=2), seed=4).verified
    assert len(kept) == len(recovered) == 4
    assert all(np.shares_memory(packet, block) for packet, block in zip(kept, recovered))
