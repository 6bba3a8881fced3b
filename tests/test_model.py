"""System model: instances, demands, transcripts, load accounting, pipeline."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matcache.compress import DimTriple, f_len
from matcache.field import DEFAULT_FIELD, FieldMatrix
from matcache.model import (
    DeliveryTranscript,
    DemandVector,
    Message,
    ProblemInstance,
    SchemeParameterError,
    build_library,
    instance_g,
    measure_load,
    normalize_demand,
    random_demands,
    run_scheme,
    verify_retrieval,
    worst_case_demands,
)


def make_instance(**kwargs) -> ProblemInstance:
    defaults = dict(K=2, N=4, s=2, r=2, M=Fraction(2))
    defaults.update(kwargs)
    return ProblemInstance(**defaults)


def test_instance_derived_quantities():
    inst = make_instance()
    assert inst.a == 1
    assert inst.B == f_len(DimTriple(2, 2, 2)) == 4
    assert inst.cache_budget == 8
    assert instance_g(inst) == 1
    wide = make_instance(s=2, r=4)
    assert wide.a == 2 and wide.B == 12
    tall = ProblemInstance(K=4, N=20, s=12, r=6, M=Fraction(10))
    assert tall.a == Fraction(1, 2) and tall.B == 36
    assert tall.cache_budget == 720


def test_instance_validation():
    with pytest.raises(ValueError):
        make_instance(M=Fraction(-1))
    with pytest.raises(ValueError):
        make_instance(M=Fraction(5))  # M > N
    with pytest.raises(ValueError):
        make_instance(K=0)
    with pytest.raises(ValueError):
        make_instance(N=0)


def test_fractional_memory_budget_floors():
    inst = make_instance(M=Fraction(5, 3))
    assert inst.cache_budget == int(Fraction(5, 3) * 4)  # floor(20/3) = 6
    assert inst.cache_budget == 6


@given(i=st.integers(1, 9), j=st.integers(1, 9))
def test_normalize_demand_orientation(i, j):
    pair, transposed = normalize_demand(i, j)
    assert pair == (min(i, j), max(i, j))
    assert transposed == (i > j)


def test_demand_vector_pairs_and_transposition():
    demands = DemandVector(((3, 1), (2, 4)))
    assert demands.pair(1) == (1, 3) and demands.transposed(1)
    assert demands.pair(2) == (2, 4) and not demands.transposed(2)
    assert demands.K == 2


def test_worst_case_demands_distinct_when_library_large():
    inst = make_instance()  # N = 4 = 2K
    demands = worst_case_demands(inst)
    assert demands.pairs == ((1, 2), (3, 4))
    assert demands.worst_case_certified
    used = [d for pair in demands.pairs for d in pair]
    assert len(set(used)) == len(used)


def test_worst_case_demands_fallback_not_certified():
    inst = ProblemInstance(K=5, N=6, s=6, r=12, M=Fraction(3))
    demands = worst_case_demands(inst)
    assert demands.K == 5
    assert not demands.worst_case_certified
    assert all(1 <= d <= 6 for pair in demands.pairs for d in pair)


def test_random_demands_deterministic_and_in_range():
    inst = make_instance()
    a = random_demands(inst, seed=7)
    b = random_demands(inst, seed=7)
    c = random_demands(inst, seed=8)
    assert a.pairs == b.pairs
    assert a.pairs != c.pairs or True  # different seeds may rarely collide
    assert not a.worst_case_certified
    assert all(1 <= d <= inst.N for pair in a.pairs for d in pair)


def test_build_library_deterministic_shapes():
    inst = make_instance()
    library = build_library(inst, seed=3)
    assert len(library) == inst.N
    assert all(w.shape == (inst.s, inst.r) for w in library)
    assert library == build_library(inst, seed=3)
    assert library != build_library(inst, seed=4)


def _message(tag, payload, headers=()):
    return Message(tag, np.asarray(payload, dtype=np.int64), headers)


def test_message_header_bytes():
    headers = ((1, ((2, (0, 3)),)), (2, ((1, (5,)),)))
    msg = _message(("x",), [1, 2, 3], headers)
    # each compressed-product header costs 4 bytes (rank) + 4 per basis index
    assert msg.header_bytes == (4 + 8) + (4 + 4)
    assert msg.headers_for(1) == ((2, (0, 3)),)
    with pytest.raises(KeyError):
        msg.headers_for(3)


def test_transcript_digest_order_sensitive():
    m1 = _message(("a", 1), [1, 2])
    m2 = _message(("b", 2), [3])
    t12 = DeliveryTranscript((m1, m2))
    t21 = DeliveryTranscript((m2, m1))
    assert t12.digest() == DeliveryTranscript((m1, m2)).digest()
    assert t12.digest() != t21.digest()
    assert t12.total_payload_symbols == 3
    assert t12.find(("a", 1)) is m1
    assert t12.has(("b", 2)) and not t12.has(("c",))


def test_transcript_rejects_duplicate_tags():
    with pytest.raises(ValueError, match=r"duplicate message tag a:\{1,2\}"):
        DeliveryTranscript(
            (_message(("a", (1, 2)), [1]), _message(("b",), [2]), _message(("a", (1, 2)), [3]))
        )


def test_measure_load_exact_rational():
    transcript = DeliveryTranscript((_message(("m",), list(range(10))),))
    report = measure_load(transcript, B=4)
    assert report.load == Fraction(10, 4)
    assert report.total_payload_symbols == 10
    assert report.header_overhead_symbols == 0


def test_measure_load_counts_header_overhead():
    headers = ((1, ((3, (0, 1, 2)),)),)  # 4 + 12 = 16 bytes = 4 symbols
    transcript = DeliveryTranscript((_message(("m",), [1], headers),))
    report = measure_load(transcript, B=4)
    assert report.header_overhead_symbols == 4
    assert report.load == Fraction(1, 4)  # headers never count toward load


def test_verify_retrieval_accepts_truth_rejects_corruption():
    inst = make_instance()
    library = build_library(inst, seed=0)
    demands = worst_case_demands(inst)
    from matcache.field import mat_mul

    decoded = []
    for k in (1, 2):
        i, j = demands.pair(k)
        product = mat_mul(library[i - 1].transpose(), library[j - 1])
        decoded.append(product)
    assert verify_retrieval(inst, library, demands, decoded)
    bad = np.array(decoded[0].data, dtype=np.int64, copy=True)
    bad[0, 0] = (bad[0, 0] + 1) % inst.field.q
    corrupted = [FieldMatrix(inst.field, bad), decoded[1]]
    assert not verify_retrieval(inst, library, demands, corrupted)


def test_run_scheme_demand_validation():
    inst = make_instance()
    with pytest.raises(ValueError):
        run_scheme("col", inst, None, 0, DemandVector(((1, 2),)))
    with pytest.raises(ValueError):
        run_scheme("col", inst, None, 0, DemandVector(((1, 5), (1, 2))))


def test_run_scheme_surfaces_validation_problems():
    inst = ProblemInstance(K=4, N=20, s=12, r=6, M=Fraction(7))
    from matcache.schemes.baselines import MultiRequestConfig

    with pytest.raises(SchemeParameterError) as err:
        run_scheme("multireq", inst, MultiRequestConfig(t=1), 0)
    assert err.value.problems
    assert any("M" in p for p in err.value.problems)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**31))
def test_run_scheme_end_to_end_property(seed):
    """Any seed: the square fixture verifies, stays within budget, and the
    transcript digest is reproducible."""
    inst = make_instance()
    first = run_scheme("col", inst, None, seed)
    second = run_scheme("col", inst, None, seed)
    assert first.verified
    assert max(first.cache.totals()) <= inst.cache_budget
    assert first.transcript.digest() == second.transcript.digest()
