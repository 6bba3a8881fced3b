"""Product-matrix compression: round-trips, packet lengths, symbol counts."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matcache import compress as compress_mod
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
    def refuse(*args):
        raise AssertionError("a single-row stack needs no elimination or product")

    monkeypatch.setattr(compress_mod, "_eliminate_stack", refuse)
    monkeypatch.setattr(compress_mod, "_matmul_mod", refuse)
    rows = np.array([[[1, 0, q - 1]], [[0, 0, 0]], [[0, 1, 0]]], dtype=np.int64)
    packets, headers = compress_stack(rows, 2, q)
    assert packets.tolist() == [[1, 0, q - 1], [0, 0, 0], [0, 1, 0]]
    assert headers == [(1, (0,)), (0, ()), (1, (0,))]
    assert all(type(x) is int for rank, basis in headers for x in (rank, *basis))
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
