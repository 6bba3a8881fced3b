"""System model: instances, demands, transcripts, load accounting, pipeline."""

from __future__ import annotations

import contextlib
import hashlib
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matcache import compress, harness, model
from matcache.compress import DimTriple, f_len
from matcache.field import (
    _DRAW_BATCH_SYMBOLS,
    DEFAULT_FIELD,
    FieldMatrix,
    FieldSpec,
    derive_seed,
    random_matrix,
)
from matcache.model import (
    DeliveryTranscript,
    DemandVector,
    Message,
    ProblemInstance,
    SchemeParameterError,
    build_library,
    get_scheme,
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


LIBRARY_FIELDS = (2, 3, 65521, (1 << 31) - 1, (1 << 61) - 1)


def _library_sizes():
    """(s, r, N): N = 2 for 1x1 and 12x6, then libraries whose N*s*r sits
    just below, at and just above the batch cap, past two batches, and
    matrices larger than the cap."""
    sizes = [(1, 1, 2), (12, 6, 2)]
    per_batch = _DRAW_BATCH_SYMBOLS // 72
    sizes += [(12, 6, per_batch), (12, 6, per_batch + 1), (12, 6, 2 * per_batch + 1)]
    exact = _DRAW_BATCH_SYMBOLS // 256  # 16 x 16 matrices fill a batch exactly
    sizes += [(16, 16, n) for n in (exact - 1, exact, exact + 1)]
    sizes += [(64, 128, 3)]
    return sizes


@pytest.mark.parametrize("q", LIBRARY_FIELDS)
@pytest.mark.parametrize("s, r, n", _library_sizes())
def test_batched_library_matches_one_draw_per_matrix(q, s, r, n):
    inst = ProblemInstance(K=1, N=n, s=s, r=r, field=FieldSpec(q))
    library = build_library(inst, seed=5)
    assert len(library) == n
    for i, w in enumerate(library):
        alone = random_matrix(inst.field, s, r, derive_seed(5, i))
        assert w.data.dtype == np.int64 and w.data.tobytes() == alone.data.tobytes()


def _library_digest(inst: ProblemInstance, seed: int) -> str:
    h = hashlib.sha256()
    for w in build_library(inst, seed):
        h.update(w.data.astype("<i8").tobytes())
    return h.hexdigest()


def test_library_stream_is_pinned():
    """Digests of two libraries as drawn before the library was batched;
    the second spans several batches at q = 2^61 - 1."""
    paper = ProblemInstance(K=4, N=20, s=12, r=6, M=Fraction(10))
    want = "d7801b9955555487dfedb8cc98d9c42251057ab32ce249862331d8df0cd94f81"
    assert _library_digest(paper, 7) == want
    wide = ProblemInstance(K=2, N=9, s=64, r=64, field=FieldSpec((1 << 61) - 1))
    want = "61051b250eaa076d2d277c394fc74fbacb9068d459465317704c15a2cb29d830"
    assert _library_digest(wide, 11) == want


def _bases(array: np.ndarray):
    while isinstance(array, np.ndarray):
        yield array
        array = array.base


@pytest.mark.parametrize("s, r, n", [(12, 6, 20), (64, 64, 9)])
def test_library_matrices_are_read_only_and_disjoint(s, r, n):
    """Every array a library matrix reaches is frozen, and no two matrices
    share memory."""
    library = build_library(ProblemInstance(K=1, N=n, s=s, r=r), seed=2)
    for i, w in enumerate(library):
        assert all(not array.flags.writeable for array in _bases(w.data))
        with pytest.raises(ValueError):
            w.data[0, 0] = 1
        for other in library[i + 1 :]:
            assert not np.shares_memory(w.data, other.data)


def _count_eliminations(monkeypatch) -> list:
    """Record, for each elimination compress_product runs, the memo open in
    the context."""
    seen = []
    original = compress._compress_product

    def counted(product, inner_dim):
        seen.append(compress._memo.get())
        return original(product, inner_dim)

    monkeypatch.setattr(compress, "_compress_product", counted)
    return seen


@pytest.mark.parametrize("q", [2, (1 << 31) - 1, (1 << 61) - 1])
def test_compression_memo_lives_for_one_run(q, monkeypatch):
    """row's decoders regenerate the packets the server compressed: inside
    run_scheme they reuse them from one memo, which is emptied on return,
    and the run's bytes equal those of a run without the memo."""
    from matcache.schemes.row import RowConfig

    inst = ProblemInstance(K=4, N=20, s=12, r=6, field=FieldSpec(q), M=Fraction(10))
    seen = _count_eliminations(monkeypatch)
    result = run_scheme("row", inst, RowConfig(ell=2), 3)
    memos = {id(memo): memo for memo in seen}
    assert result.verified and len(memos) == 1
    assert next(iter(memos.values())) == {} and compress._memo.get() is None
    with_memo = len(seen)
    monkeypatch.setattr(model, "compression_memo", contextlib.nullcontext)
    plain = run_scheme("row", inst, RowConfig(ell=2), 3)
    without_memo = len(seen) - with_memo
    assert 0 < with_memo < without_memo
    assert plain.transcript.digest() == result.transcript.digest()
    assert plain.decoded == result.decoded


def _over_budget(place):
    def wrapped(instance, config, library):
        cache = place(instance, config, library)
        cache.users[0].segments["extra"] = np.zeros(instance.cache_budget + 1, dtype=np.int64)
        return cache

    return wrapped


def _failing_decode(decode):
    def wrapped(instance, config, k, cache, transcript, demands):
        decode(instance, config, k, cache, transcript, demands)
        raise ZeroDivisionError("decoder fault")

    return wrapped


@pytest.mark.parametrize(
    "broken, error",
    [
        (lambda scheme: replace(scheme, place=_over_budget(scheme.place)), RuntimeError),
        (lambda scheme: replace(scheme, decode=_failing_decode(scheme.decode)), ZeroDivisionError),
    ],
    ids=["over-budget", "decode-raises"],
)
def test_compression_memo_is_emptied_when_a_run_raises(broken, error, monkeypatch):
    """agnostic compresses every product in place, so the memo is full when
    the budget check or a decoder raises."""
    from matcache.schemes.agnostic import AgnosticConfig

    inst = ProblemInstance(K=2, N=4, s=4, r=2, M=Fraction(5, 2))
    seen = _count_eliminations(monkeypatch)
    with pytest.raises(error):
        run_scheme(broken(get_scheme("agnostic")), inst, AgnosticConfig(t=1), 0)
    assert seen and seen[0] == {} and compress._memo.get() is None


def test_memoized_structure_is_bounded():
    from matcache import bounds, field
    from matcache.schemes import col, common

    memoized = (
        field.is_prime,
        common.man_split,
        col._intersection_groups,
        bounds.row_partition_load,
        bounds.load_Rcol,
        harness.fraction_str,
    )
    assert all(f.cache_info().maxsize is not None for f in memoized)


@pytest.mark.parametrize("name", harness.SCHEME_NAMES)
def test_tampered_transcript_fails_verification_on_a_corner_cell(name):
    """The memo reuses compressions, never messages: one corrupted symbol
    still fails the run, on the first corner cell with a nonzero load."""
    for cell in harness.corner_cells(2, 4, Fraction(1)):
        if cell.scheme != name:
            continue
        s, r = harness.corner_shape(cell)
        spec = cell.spec(s, r, 0)
        inst = harness.resolve_instance(spec)
        config = harness.build_scheme_config(spec, inst)
        if get_scheme(name).formula_load(inst, config) > 0:
            break
    else:
        pytest.fail(f"no {name} corner cell with a nonzero load")
    assert run_scheme(name, inst, config, 4).verified
    assert not run_scheme(harness.tampered(get_scheme(name)), inst, config, 4).verified


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
