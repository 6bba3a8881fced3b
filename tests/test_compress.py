"""Product-matrix compression: round-trips, packet lengths, symbol counts."""

from __future__ import annotations

import contextlib
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matcache import compress as compress_mod
from matcache import field as field_mod
from matcache.compress import (
    CompressedProduct,
    DimTriple,
    compress_product,
    compress_stack,
    decompress_product,
    decompress_stack,
    f_len,
    g_ratio,
)
from matcache.field import DEFAULT_FIELD, FieldMatrix, FieldSpec, _matmul_mod, derive_seed, mat_mul, random_matrix


def random_product(m: int, n: int, p: int, seed: int) -> FieldMatrix:
    left = random_matrix(DEFAULT_FIELD, m, n, derive_seed(seed, 0))
    right = random_matrix(DEFAULT_FIELD, n, p, derive_seed(seed, 1))
    return mat_mul(left, right)


def test_f_len_cases():
    assert f_len(DimTriple(2, 2, 2)) == 4  # (m + p - n) * n
    assert f_len(DimTriple(4, 2, 4)) == 12
    assert f_len(DimTriple(1, 5, 1)) == 1  # min(m, p) < n: plain m*p entries
    assert f_len(DimTriple(6, 12, 6)) == 36
    assert f_len(DimTriple(12, 6, 12)) == 108


def test_f_len_symmetry_full_grid():
    for m in range(1, 9):
        for n in range(1, 9):
            for p in range(1, 9):
                assert f_len(DimTriple(m, n, p)) == f_len(DimTriple(p, n, m))


def test_dim_triple_rejects_nonpositive():
    with pytest.raises(ValueError):
        DimTriple(0, 1, 1)


def test_g_ratio_values():
    assert g_ratio(Fraction(1), Fraction(1)) == 1
    assert g_ratio(Fraction(1, 2), Fraction(1, 2)) == Fraction(1, 4)
    assert g_ratio(Fraction(2), Fraction(2)) == 3
    assert g_ratio(Fraction(3), Fraction(1, 2)) == Fraction(3, 2)


@settings(deadline=None, max_examples=80)
@given(st.fractions(min_value="1/64", max_value=64))
def test_product_cost_at_most_twice_uncompressed(a):
    """g(a, a) / a <= 2: a compressed product never costs more than two W's."""
    assert g_ratio(a, a) / a <= 2


@settings(deadline=None, max_examples=100)
@given(
    m=st.integers(1, 10),
    n=st.integers(1, 10),
    p=st.integers(1, 10),
    seed=st.integers(0, 2**31),
)
def test_compress_round_trip(m, n, p, seed):
    product = random_product(m, n, p, seed)
    cp = compress_product(product, n)
    assert decompress_product(cp) == product
    assert cp.payload.size <= f_len(DimTriple(m, n, p))
    assert cp.packet.shape == (f_len(DimTriple(m, n, p)),)


@settings(deadline=None, max_examples=60)
@given(
    m=st.integers(1, 8),
    n=st.integers(1, 8),
    p=st.integers(1, 8),
    seed=st.integers(0, 2**31),
)
def test_packet_round_trip_via_header(m, n, p, seed):
    """Zero-padded packet plus (rank, basis) header reconstructs the product."""
    product = random_product(m, n, p, seed)
    cp = compress_product(product, n)
    packet = cp.packet.copy()  # as a decoder receives it: a fresh, writable array
    assert packet.size == f_len(DimTriple(m, n, p))
    rebuilt = CompressedProduct(cp.spec, cp.dims, cp.rank, cp.basis_row_indices, packet)
    assert decompress_product(rebuilt) == product


def test_payload_length_matches_rank():
    """payload = rank*p + (m - rank)*rank symbols, exactly."""
    spec = DEFAULT_FIELD
    left = random_matrix(spec, 6, 2, derive_seed(5, 0))
    right = random_matrix(spec, 2, 7, derive_seed(5, 1))
    product = mat_mul(left, right)  # rank 2 with overwhelming probability
    cp = compress_product(product, 4)  # claimed inner dimension 4, true rank 2
    assert cp.rank == 2
    assert cp.payload.size == 2 * 7 + (6 - 2) * 2
    assert cp.payload.size < f_len(DimTriple(6, 4, 7))
    assert decompress_product(cp) == product


@pytest.mark.parametrize("m, n, p", [(6, 2, 7), (5, 5, 5), (1, 4, 3), (4, 9, 3)])
def test_packet_is_the_read_only_wire_form(m, n, p):
    """The packet holds f(m,n,p) symbols: the payload, then zeros.  It is
    frozen, payload is a view of it, and compress_stack sends the same bytes."""
    product = random_product(m, n, p, seed=m * 100 + n * 10 + p)
    cp = compress_product(product, n)
    length = f_len(DimTriple(m, n, p))
    assert cp.packet.shape == (length,) and cp.packet.dtype == np.int64
    assert not cp.packet.flags.writeable and not cp.payload.flags.writeable
    assert np.shares_memory(cp.payload, cp.packet)
    assert cp.payload.size == cp.rank * p + (m - cp.rank) * cp.rank
    assert np.array_equal(cp.packet[: cp.payload.size], cp.payload)
    assert not cp.packet[cp.payload.size :].any()
    packets, headers = compress_stack(product.data[None], n, DEFAULT_FIELD.q)
    assert packets[0].tobytes() == cp.packet.tobytes()
    assert headers == [(cp.rank, cp.basis_row_indices)]


def test_constructor_keeps_a_frozen_packet_and_copies_a_writable_one():
    cp = compress_product(random_product(3, 2, 3, seed=7), 2)
    header = (cp.spec, cp.dims, cp.rank, cp.basis_row_indices)
    assert CompressedProduct(*header, cp.packet).packet is cp.packet
    packet = cp.packet.copy()
    rebuilt = CompressedProduct(*header, packet)
    assert rebuilt.packet is not packet and not rebuilt.packet.flags.writeable
    packet[0] += 1  # the sender's array may change; the packet does not
    assert decompress_product(rebuilt) == decompress_product(cp)


def test_constructor_rejects_a_packet_of_the_wrong_length():
    cp = compress_product(random_product(4, 2, 3, seed=3), 2)
    length = f_len(cp.dims)
    header = (cp.spec, cp.dims, cp.rank, cp.basis_row_indices)
    for wrong in (length - 1, length + 1):
        with pytest.raises(ValueError, match=rf"packet of shape \({wrong},\), expected \({length},\)"):
            CompressedProduct(*header, np.zeros(wrong, dtype=np.int64))
    with pytest.raises(ValueError, match="packet of shape"):
        CompressedProduct(*header, np.zeros((1, length), dtype=np.int64))


def test_padding_is_not_read():
    """A nonzero padding symbol, as a corrupted broadcast may carry, is no
    error: the product decompresses from A1 and A2 alone."""
    product = random_product(6, 2, 7, seed=5)
    cp = compress_product(product, 4)  # inner dimension 4, rank 2: 8 padding symbols
    assert cp.payload.size < f_len(cp.dims)
    packet = cp.packet.copy()
    packet[cp.payload.size :] = 1
    rebuilt = CompressedProduct(cp.spec, cp.dims, cp.rank, cp.basis_row_indices, packet)
    assert decompress_product(rebuilt) == product


def test_compress_rejects_rank_above_inner_dimension():
    product = FieldMatrix(DEFAULT_FIELD, np.eye(3, dtype=np.int64))
    with pytest.raises(ValueError):
        compress_product(product, 1)


def test_packet_sums_cancel_like_multicast():
    """The multicast primitive: equal-length packets added mod q, one packet
    recoverable after subtracting the other from the sum."""
    q = DEFAULT_FIELD.q
    first = compress_product(random_product(3, 2, 3, seed=11), 2)
    second = compress_product(random_product(3, 2, 3, seed=12), 2)
    a, b = first.packet, second.packet
    multicast = (a + b) % q
    recovered = (multicast - a) % q
    assert np.array_equal(recovered, b)
    rebuilt = CompressedProduct(second.spec, second.dims, second.rank, second.basis_row_indices, recovered)
    assert decompress_product(rebuilt) == decompress_product(second)


def test_large_field_packets_reach_full_length():
    """>= 99% of random large-q products compress to exactly f symbols."""
    from matcache.field import uniform_residues

    trials, full = 500, 0
    for trial in range(trials):
        m, n, p = (int(v) + 1 for v in uniform_residues(derive_seed(88, trial), 3, 12))
        cp = compress_product(random_product(m, n, p, derive_seed(89, trial)), n)
        if cp.payload.size == f_len(DimTriple(m, n, p)):
            full += 1
    assert full >= trials * 99 // 100


# ---------------------------------------------------------------------------
# Stacked compression against compress_product item by item

Q31 = (1 << 31) - 1
Q61 = (1 << 61) - 1
# (m, n, p): 1 x 1, m < p, m > p, n below min(m, p), n above it, square.
STACK_SHAPES = ((1, 4, 1), (2, 5, 6), (6, 5, 2), (5, 2, 6), (4, 9, 3), (5, 5, 5))
# Single rows (m = 1), which skip the elimination: p of 3 and 7, n below and above p.
SINGLE_ROW_SHAPES = ((1, 2, 3), (1, 5, 3), (1, 4, 7), (1, 9, 7))


def _stack(q: int, b: int, m: int, n: int, p: int, seed: int) -> np.ndarray:
    """b products of inner dimension n whose ranks run through 0..min(n, m, p):
    item i is a product of inner dimension i mod (min(n, m, p) + 1), so zero
    items and rank-deficient items share the stack with full-rank ones."""
    rng = np.random.default_rng(seed)
    hi = min(q, 1 << 62)
    items = []
    for i in range(b):
        k = i % (min(n, m, p) + 1)
        left = rng.integers(0, hi, (m, k), dtype=np.int64)
        items.append(_matmul_mod(left, rng.integers(0, hi, (k, p), dtype=np.int64), q))
    return np.array(items, dtype=np.int64).reshape(b, m, p)


@pytest.mark.parametrize("q", [2, 3, Q31, Q61])
@pytest.mark.parametrize("m, n, p", STACK_SHAPES + SINGLE_ROW_SHAPES)
def test_stacked_compression_matches_items(q, m, n, p):
    spec = FieldSpec(q)
    dims = DimTriple(m, n, p)
    for b in (0, 1, 13):
        products = _stack(q, b, m, n, p, seed=b * 31 + m)
        before = products.copy()
        packets, headers = compress_stack(products, n, q)
        assert np.array_equal(products, before)  # the input is left as it was
        assert packets.shape == (b, f_len(dims)) and packets.dtype == np.int64
        assert len(headers) == b
        singles = [compress_product(FieldMatrix(spec, products[i]), n) for i in range(b)]
        for i, cp in enumerate(singles):
            assert packets[i].tobytes() == cp.packet.tobytes()
            assert headers[i] == (cp.rank, cp.basis_row_indices)
            assert all(type(x) is int for x in (headers[i][0], *headers[i][1]))
        rebuilt = decompress_stack(packets, headers, dims, q)
        assert rebuilt.shape == (b, m, p) and rebuilt.dtype == np.int64
        for i, cp in enumerate(singles):
            assert rebuilt[i].tobytes() == decompress_product(cp).data.tobytes()
        if b > 1:
            assert len({rank for rank, _ in headers}) > 1  # mixed ranks in one stack


@pytest.mark.parametrize("q", [2, Q31, Q61])
def test_stacked_compression_rejects_rank_above_inner_dimension(q):
    products = np.array([np.zeros((3, 3)), np.eye(3)], dtype=np.int64)
    with pytest.raises(ValueError, match="inner-dimension contract violated"):
        compress_product(FieldMatrix(FieldSpec(q), products[1]), 2)
    with pytest.raises(ValueError, match="inner-dimension contract violated"):
        compress_stack(products, 2, q)
    with pytest.raises(ValueError, match="dimensions must be positive"):
        compress_stack(products, 0, q)


@pytest.mark.parametrize("q", [2, Q31, Q61])
@pytest.mark.parametrize("inner", [0, -1])
def test_an_inner_dimension_below_one_is_refused_before_any_elimination(q, inner, monkeypatch):
    """A zero and a nonzero product, single or stacked, in or out of a
    memo, all get the one message, and nothing is eliminated first."""
    def refuse(*args):
        raise AssertionError("eliminated before the dimensions were checked")

    for name in ("_rref", "_eliminate_stack"):
        monkeypatch.setattr(field_mod, name, refuse)
    products = np.array([np.zeros((3, 3)), np.eye(3)], dtype=np.int64)
    for memo in (contextlib.nullcontext(), compress_mod.compression_memo()):
        with memo:
            for product in products:
                with pytest.raises(ValueError, match="dimensions must be positive"):
                    compress_product(FieldMatrix(FieldSpec(q), product), inner)
            with pytest.raises(ValueError, match="dimensions must be positive"):
                compress_stack(products, inner, q)


@pytest.mark.parametrize(
    "header, message",
    [
        ((3, (0, 1, 2)), "rank 3 out of range"),
        ((-1, ()), "rank -1 out of range"),
        ((2, (1,)), "basis index count must equal rank"),
        ((1, (4,)), "basis index out of range"),
        ((2, (2, 1)), "basis indices must be strictly increasing"),
        ((2, (1, 1)), "basis indices must be strictly increasing"),
    ],
)
def test_stacked_decompression_rejects_what_from_packet_rejects(header, message):
    dims = DimTriple(4, 2, 3)
    # The header is checked first: a packet of the wrong length changes no message.
    for length in (f_len(dims), f_len(dims) + 1):
        with pytest.raises(ValueError, match=message):
            CompressedProduct(DEFAULT_FIELD, dims, header[0], header[1], np.zeros(length, dtype=np.int64))
    good = (2, (0, 3))
    stack = np.zeros((3, f_len(dims)), dtype=np.int64)
    with pytest.raises(ValueError, match=message):
        decompress_stack(stack, [good, header, good], dims, DEFAULT_FIELD.q)


@pytest.mark.parametrize("q", [2, Q31, Q61])
def test_single_row_stacks_take_no_elimination(q, monkeypatch):
    """Single-row products, stacked or one by one through compress_product,
    are packed without an elimination or a product."""
    def refuse(*args):
        raise AssertionError("a single-row stack needs no elimination or product")

    for name in ("_rref_stack", "_matmul_mod"):
        monkeypatch.setattr(compress_mod, name, refuse)
    for name in ("_rref", "_eliminate_stack"):
        monkeypatch.setattr(field_mod, name, refuse)
    rows = np.array([[[1, 0, q - 1]], [[0, 0, 0]], [[0, 1, 0]]], dtype=np.int64)
    packets, headers = compress_stack(rows, 2, q)
    assert packets.tolist() == [[1, 0, q - 1], [0, 0, 0], [0, 1, 0]]
    assert headers == [(1, (0,)), (0, ()), (1, (0,))]
    assert all(type(x) is int for rank, basis in headers for x in (rank, *basis))
    singles = [compress_product(FieldMatrix(FieldSpec(q), row), 2) for row in rows]
    assert [cp.packet.tolist() for cp in singles] == packets.tolist()
    assert [(cp.rank, cp.basis_row_indices) for cp in singles] == headers
    # A rank-0 header zeroes its product, whatever its packet holds.
    rebuilt = decompress_stack(packets, [(1, (0,)), (0, ()), (0, ())], DimTriple(1, 2, 3), q)
    assert rebuilt.tolist() == [[[1, 0, q - 1]], [[0, 0, 0]], [[0, 0, 0]]]


@pytest.mark.parametrize(
    "header, message",
    [
        ((1, (1,)), "basis index out of range"),
        ((2, (0, 1)), "rank 2 out of range"),
        ((1, ()), "basis index count must equal rank"),
        ((-1, ()), "rank -1 out of range"),
    ],
)
def test_single_row_decompression_rejects_what_from_packet_rejects(header, message):
    dims = DimTriple(1, 2, 3)
    for length in (f_len(dims), f_len(dims) - 1):
        with pytest.raises(ValueError, match=message):
            CompressedProduct(DEFAULT_FIELD, dims, header[0], header[1], np.zeros(length, dtype=np.int64))
    stack = np.zeros((3, f_len(dims)), dtype=np.int64)
    with pytest.raises(ValueError, match=message):
        decompress_stack(stack, [(1, (0,)), header, (0, ())], dims, DEFAULT_FIELD.q)


def test_stacked_decompression_rejects_a_misshapen_stack():
    dims = DimTriple(2, 2, 2)
    with pytest.raises(ValueError, match="packet stack of shape"):
        decompress_stack(np.zeros((2, f_len(dims) + 1), dtype=np.int64), [(0, ()), (0, ())], dims, 2)


# ---------------------------------------------------------------------------
# Compression from the factors against compress_product of their product

# (m, p), m != p: small ones, whose products compress_factors forms, and two
# at least 64 wide, which it keeps factored up to h = min(m, p)/4; the second
# has factor eliminations long enough for the blocked path.
FACTOR_SHAPES = ((7, 5), (4, 9), (70, 64), (130, 150))


def _heights(q: int, m: int, p: int) -> tuple[int, ...]:
    """h from 1 to one past min(m, p), across the cut-over at min(m, p)/4."""
    if min(m, p) < 64:
        return tuple(range(1, min(m, p) + 2))
    if q > 1 << 32:  # object arithmetic: keep the products small
        return (1, 7) if m > 100 else (1, 16, 17)
    return (1, 2, 7, min(m, p) // 4, min(m, p) // 4 + 1, min(m, p) // 2, min(m, p), min(m, p) + 1)


def _factors(kind: str, q: int, h: int, m: int, p: int, rng) -> tuple[np.ndarray, np.ndarray]:
    hi = min(q, 1 << 62)
    a = rng.integers(0, hi, (h, m), dtype=np.int64)
    b = rng.integers(0, hi, (h, p), dtype=np.int64)
    if kind == "a-zero":
        a[:] = 0
    elif kind == "b-zero":
        b[:] = 0
    elif kind == "b-repeated-rows":  # rank of b below h
        b = b[np.arange(h) // 2]
    elif kind == "b-zero-leading-columns":
        b[:, : p // 2] = 0
    elif kind == "a-low-rank":
        a = _matmul_mod(rng.integers(0, hi, (h, h - 1), dtype=np.int64), a[: h - 1], q)
    return a, b


@pytest.mark.parametrize("q", [2, 3, Q31, Q61])
@pytest.mark.parametrize(
    "kind", ["random", "a-zero", "b-zero", "b-repeated-rows", "b-zero-leading-columns", "a-low-rank"]
)
def test_factored_compression_matches_the_product(q, kind):
    spec = FieldSpec(q)
    rng = np.random.default_rng([q % 1000, len(kind)])
    for m, p in FACTOR_SHAPES:
        for h in _heights(q, m, p):
            a, b = _factors(kind, q, h, m, p, rng)
            expected = compress_product(FieldMatrix(spec, _matmul_mod(a.T, b, q)), h)
            # compress_factors on either side of its cut-over, and the
            # factored elimination itself wherever h < min(m, p).
            results = compress_mod.compress_factors(spec, [(a, b)])
            if h < min(m, p):
                results.append(compress_mod._compress_factors(spec, a, b))
            for cp in results:
                assert cp.dims == expected.dims == DimTriple(m, h, p)
                assert (cp.rank, cp.basis_row_indices) == (expected.rank, expected.basis_row_indices)
                assert cp.packet.tobytes() == expected.packet.tobytes()
                assert not cp.packet.flags.writeable
            if kind in ("a-zero", "b-zero"):
                assert expected.rank == 0


def test_factored_compression_shares_a_memo_entry(monkeypatch):
    """Inside one memo block, equal factors are eliminated once; the thin
    product is never formed and compress_product is never called."""
    calls = []
    original = compress_mod._compress_factors

    def counted(spec, a, b):
        calls.append((a.shape, b.shape))
        return original(spec, a, b)

    def refuse(*args):
        raise AssertionError("a thin product goes through its factors")

    monkeypatch.setattr(compress_mod, "_compress_factors", counted)
    monkeypatch.setattr(compress_mod, "compress_product", refuse)
    rng = np.random.default_rng(5)
    a, b = rng.integers(0, Q31, (3, 64)), rng.integers(0, Q31, (3, 96))
    # The same residues, cut at another shape: the key holds the shapes too.
    flat = np.concatenate([a.ravel(), b.ravel()])
    swapped = flat[:288].reshape(3, 96), flat[288:].reshape(3, 64)
    with compress_mod.compression_memo():
        (first,) = compress_mod.compress_factors(DEFAULT_FIELD, [(a, b)])
        again, other = compress_mod.compress_factors(DEFAULT_FIELD, [(a.copy(), b.copy()), swapped])
    assert again is first and other.dims == DimTriple(96, 3, 64)
    assert calls == [((3, 64), (3, 96)), ((3, 96), (3, 64))]


@pytest.mark.parametrize("q", [2, Q31, Q61])
def test_factors_multiply_back_to_the_product(q):
    spec = FieldSpec(q)
    for m, n, p in ((6, 2, 7), (5, 5, 5), (4, 9, 3), (1, 4, 3)):
        for inner in range(n + 1):  # ranks 0..n
            rng = np.random.default_rng([m, n, p, inner])
            left = rng.integers(0, min(q, 1 << 62), (m, inner), dtype=np.int64)
            right = rng.integers(0, min(q, 1 << 62), (inner, p), dtype=np.int64)
            product = FieldMatrix(spec, _matmul_mod(left, right, q))
            cp = compress_product(product, n)
            l_factor, basis_rows = cp.factors()
            assert l_factor.shape == (m, cp.rank) and basis_rows.shape == (cp.rank, p)
            assert np.shares_memory(basis_rows, cp.packet) or cp.rank == 0
            assert np.array_equal(_matmul_mod(l_factor, basis_rows, q), product.data)


# ---------------------------------------------------------------------------
# The list call against compress_product item by item

# compress_factors' cut-overs scaled down, so that every route runs on small
# factors: the factors from min(m, p) >= 8 and products of more than 24
# entries alone; and field._rref_stack's, so that stacks of 3 distinct
# products share one stacked elimination.
SMALL_CUTS = {"_FACTORS_MIN_OUTER": 8, "_STACK_MAX_SYMBOLS": 24}
SMALL_STACK = 3
# (h, m, p) on each side of those cut-overs: stacked (a single row, h above
# min(m, p), 12 entries, and 24 exactly), alone past 24 entries, factored at
# h = min(m, p)/4 = 2, and alone one past that or below min(m, p) = 8.
LIST_SHAPES = ((2, 1, 3), (4, 2, 2), (2, 3, 4), (3, 4, 6), (3, 5, 5), (2, 8, 8), (3, 8, 8), (2, 7, 9))


@st.composite
def _factor_lists(draw):
    """(shape, kind, seed) items, a few of each drawn shape, some of them
    repeated, in a drawn order; equal items have equal entries."""
    items = []
    for _ in range(draw(st.integers(0, 4))):
        shape = draw(st.sampled_from(LIST_SHAPES))
        for _ in range(draw(st.integers(1, 5))):
            if items and items[-1][0] == shape and draw(st.integers(0, 3)) == 0:
                items.append(items[-1])
                continue
            kind = draw(st.sampled_from(["random", "a-zero", "b-zero", "a-low-rank"]))
            items.append((shape, kind, draw(st.integers(0, 2**16))))
    return draw(st.permutations(items))


def _listed_factors(q: int, items) -> list[tuple[np.ndarray, np.ndarray]]:
    pairs = []
    for (h, m, p), kind, seed in items:
        rng = np.random.default_rng(seed)
        hi = min(q, 1 << 62)
        a, b = rng.integers(0, hi, (h, m), dtype=np.int64), rng.integers(0, hi, (h, p), dtype=np.int64)
        if kind == "a-zero":
            a[:] = 0
        elif kind == "b-zero":
            b[:] = 0
        elif kind == "a-low-rank" and h > 1:
            a = _matmul_mod(rng.integers(0, hi, (h, 1), dtype=np.int64), a[:1], q)
        pairs.append((a, b))
    return pairs


@pytest.mark.parametrize("q", [2, 3, Q31, Q61])
@settings(deadline=None, max_examples=60)
@given(items=_factor_lists(), in_memo=st.booleans())
def test_listed_factors_match_compress_product_item_by_item(q, items, in_memo):
    spec = FieldSpec(q)
    pairs = _listed_factors(q, items)
    expected = [
        compress_product(FieldMatrix(spec, _matmul_mod(a.T, b, q)), a.shape[0]) for a, b in pairs
    ]
    small_stack = mock.patch.object(field_mod, "_STACK_MIN_ITEMS", SMALL_STACK)
    with mock.patch.multiple(compress_mod, **SMALL_CUTS), small_stack:
        with compress_mod.compression_memo() if in_memo else contextlib.nullcontext():
            results = compress_mod.compress_factors(spec, pairs)
            again = compress_mod.compress_factors(spec, pairs)
            singles = [
                compress_product(FieldMatrix(spec, _matmul_mod(a.T, b, q)), a.shape[0])
                for a, b in pairs
            ]
    assert len(results) == len(pairs)
    for cp, single, want in zip(results, singles, expected):
        assert cp.dims == want.dims
        assert (cp.rank, cp.basis_row_indices) == (want.rank, want.basis_row_indices)
        assert cp.packet.tobytes() == want.packet.tobytes()
        assert not cp.packet.flags.writeable
        h, m, p = cp.dims.n, cp.dims.m, cp.dims.p
        factored = min(m, p) >= 8 and min(m, p) >= 4 * h
        # Inside a memo a later call, listed or single, finds each result
        # again; a factored result is kept under its factors' key.
        assert (cp is single) == (in_memo and not factored)
    assert all((cp is repeat) == in_memo for cp, repeat in zip(results, again))


def _route_spies(monkeypatch) -> list[tuple[str, tuple[int, ...]]]:
    """Record each route compress_factors takes and each elimination kernel
    a stack takes in field._rref_stack, with its input shape."""
    routes = []
    for module, name, shape in (
        (compress_mod, "_compress_factors", lambda spec, a, b: a.shape + b.shape[1:]),
        (compress_mod, "compress_stack", lambda products, inner, q: products.shape),
        (field_mod, "_eliminate_stack", lambda work, q, ncols: work.shape),
        (field_mod, "_rref", lambda data, q, ncols=None: data.shape),
    ):
        def spy(*args, original=getattr(module, name), name=name, shape=shape):
            routes.append((name, shape(*args)))
            return original(*args)

        monkeypatch.setattr(module, name, spy)
    return routes


def test_listed_factors_take_each_route_at_the_cut_overs(monkeypatch):
    """At the module's own cut-overs, q = 2^31 - 1: 64 x 64 products stack
    and a 65 x 64 one is a stack of its own, h = 16 against 64 x 64 stays
    factored and h = 17 does not, and a stack shares one stacked
    elimination from _STACK_MIN_ITEMS distinct products on, counted after
    the memo and the duplicates; fewer take _rref one by one, on P^T."""
    assert (compress_mod._STACK_MAX_SYMBOLS, field_mod._STACK_MIN_ITEMS) == (4096, 5)
    rng = np.random.default_rng(17)

    def factors(h, m, p):
        return rng.integers(0, Q31, (h, m), dtype=np.int64), rng.integers(0, Q31, (h, p), dtype=np.int64)

    square = [factors(17, 64, 64) for _ in range(5)]
    small = [factors(3, 5, 6) for _ in range(4)]
    pairs = square + [factors(17, 65, 64), factors(16, 64, 64)] + small + [small[0]]
    routes = _route_spies(monkeypatch)
    with compress_mod.compression_memo():
        results = compress_mod.compress_factors(DEFAULT_FIELD, pairs)
        assert routes == [
            ("_compress_factors", (16, 64, 64)),
            ("compress_stack", (5, 64, 64)),
            ("_eliminate_stack", (5, 64, 64)),
            ("compress_stack", (1, 65, 64)),
            ("_rref", (64, 65)),
            ("compress_stack", (4, 5, 6)),  # four distinct: below the stack size
            *[("_rref", (6, 5))] * 4,
        ]
        routes.clear()
        square_again = compress_mod.compress_factors(DEFAULT_FIELD, square)
        assert routes == [] and all(x is y for x, y in zip(square_again, results))
    for (a, b), cp in zip(pairs, results):
        want = compress_product(FieldMatrix(DEFAULT_FIELD, _matmul_mod(a.T, b, Q31)), a.shape[0])
        assert cp.packet.tobytes() == want.packet.tobytes()
        assert (cp.rank, cp.basis_row_indices) == (want.rank, want.basis_row_indices)
