"""Rank-based compression of matrix products.

An m x p matrix known to be a product with inner dimension n has rank at
most min(n, m, p), so it is determined by a row basis (rank x p), the
coefficients expressing the remaining rows in that basis ((m-rank) x rank),
and the basis-row index list.  The index list travels as an uncounted
header; the numeric payload is zero-padded to the fixed packet length
f(m, n, p) so equal-shaped packets can be summed in multicasts.

Within a `compression_memo` block, which `model.run_scheme` opens around
place, deliver and decode, `compress_product` compresses each distinct
product once: a call with the same field, shape, inner dimension and
entries (its residues as raw bytes, not a hash of them) as an earlier one
in the block returns the earlier (immutable) result.  The caller still
computes every product it passes; the memo only skips the elimination.  It
holds no more than the block's own products and is emptied when the block
ends.

A single-row product (m = 1) needs no elimination: its rank is 1 exactly
when its row is nonzero, with basis (0,) and no coefficients, and its packet
is the row itself, since f(1, n, p) = p.  `compress_stack` and
`decompress_stack` take such stacks on that rule, with the same bytes.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .field import _WORD_Q, FieldMatrix, FieldSpec, _eliminate_stack, _matmul_mod, _rref

Header = tuple[int, tuple[int, ...]]  # (rank, basis row indices)
# The headers of a nonzero and of a zero single-row product.
_ROW: Header = (1, (0,))
_ZERO: Header = (0, ())
# (q, shape, inner dimension, product residues as bytes) -> result, while a
# `compression_memo` block runs in this context.
_MemoKey = tuple[int, tuple[int, int], int, bytes]
_memo: ContextVar[dict[_MemoKey, "CompressedProduct"] | None] = ContextVar(
    "compression_memo", default=None
)


@dataclass(frozen=True)
class DimTriple:
    """Dimensions (m, n, p) of a product: outer rows, inner dim, outer cols."""

    m: int
    n: int
    p: int

    def __post_init__(self) -> None:
        if self.m <= 0 or self.n <= 0 or self.p <= 0:
            raise ValueError(f"dimensions must be positive, got {self}")


def f_len(dims: DimTriple) -> int:
    """Packet length f(m,n,p): symbols needed for an m x p inner-dim-n product.

    (m + p - min(n,m,p)) * min(n,m,p) when min(m,p) >= n, else m*p.
    Symmetric in m and p.
    """
    m, n, p = dims.m, dims.n, dims.p
    if min(m, p) >= n:
        return (m + p - n) * n
    return m * p


def g_ratio(alpha: Fraction, beta: Fraction) -> Fraction:
    """Normalized packet length g: alpha+beta-1 if min >= 1, else alpha*beta.

    f(m,n,p) = n^2 * g(m/n, p/n); in particular one r x r product with inner
    dimension s costs s^2 * g(a, a) symbols where a = r/s.
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    if alpha <= 0 or beta <= 0:
        raise ValueError("g_ratio arguments must be positive")
    if min(alpha, beta) >= 1:
        return alpha + beta - 1
    return alpha * beta


@dataclass(frozen=True)
class CompressedProduct:
    """P(C, B) encoding: basis rows A1, coefficients A2, basis-index header.

    payload = A1 entries row-major, then A2 entries row-major (non-basis
    rows in ascending original index order); its length is
    rank*p + (m-rank)*rank <= padded_length = f(m,n,p).
    """

    spec: FieldSpec
    dims: DimTriple
    rank: int
    basis_row_indices: tuple[int, ...]
    payload: np.ndarray
    padded_length: int

    def __post_init__(self) -> None:
        m, n, p = self.dims.m, self.dims.n, self.dims.p
        if not 0 <= self.rank <= min(n, m, p):
            raise ValueError(f"rank {self.rank} out of range for dims {self.dims}")
        if len(self.basis_row_indices) != self.rank:
            raise ValueError("basis index count must equal rank")
        if any(i < 0 or i >= m for i in self.basis_row_indices):
            raise ValueError("basis index out of range")
        if any(b >= c for b, c in zip(self.basis_row_indices, self.basis_row_indices[1:])):
            raise ValueError("basis indices must be strictly increasing")
        expected = self.rank * p + (m - self.rank) * self.rank
        arr = np.ascontiguousarray(self.payload, dtype=np.int64)
        if arr.ndim != 1 or arr.shape[0] != expected:
            raise ValueError(f"malformed payload length {arr.shape}, expected {expected}")
        if self.padded_length != f_len(self.dims):
            raise ValueError("padded_length must equal f(m,n,p)")
        if expected > self.padded_length:
            raise ValueError("payload longer than padded length")
        if arr is self.payload and arr.flags.writeable:
            arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "payload", arr)

    @classmethod
    def from_packet(
        cls,
        spec: FieldSpec,
        dims: DimTriple,
        rank: int,
        basis_row_indices: tuple[int, ...],
        packet: np.ndarray,
    ) -> "CompressedProduct":
        """Rebuild from a wire packet; padding symbols beyond the payload are ignored."""
        expected = rank * dims.p + (dims.m - rank) * rank
        packet = np.asarray(packet, dtype=np.int64).ravel()
        if packet.shape[0] < expected:
            raise ValueError(f"packet too short: {packet.shape[0]} < {expected}")
        return cls(spec, dims, rank, basis_row_indices, packet[:expected], f_len(dims))


@contextmanager
def compression_memo() -> Iterator[None]:
    """Let `compress_product` reuse its results for the length of the block;
    the memo is emptied and closed when the block ends, also when it
    raises.  Nested blocks each get their own memo."""
    memo: dict[_MemoKey, CompressedProduct] = {}
    token = _memo.set(memo)
    try:
        yield
    finally:
        _memo.reset(token)
        memo.clear()


def compress_product(product: FieldMatrix, inner_dim: int) -> CompressedProduct:
    """Deterministically encode an m x p product with inner dimension n.

    Inside a `compression_memo` block, a product already compressed there
    (same q, shape, inner dimension and entries) returns the earlier result.

    Raises ValueError("inner-dimension contract violated") when the matrix
    rank exceeds min(n, m, p) — i.e. the caller's product claim is wrong.
    """
    memo = _memo.get()
    if memo is None:
        return _compress_product(product, inner_dim)
    # Residues below 2^32 are keyed as 4-byte words: the key stays exact and
    # the memo, which holds every distinct product of the run, half as large.
    width = np.uint32 if product.spec.q <= 1 << 32 else np.int64
    key = (product.spec.q, product.shape, inner_dim, product.data.astype(width).tobytes())
    if key not in memo:
        memo[key] = _compress_product(product, inner_dim)
    return memo[key]


def _compress_product(product: FieldMatrix, inner_dim: int) -> CompressedProduct:
    m, p = product.rows, product.cols
    dims = DimTriple(m, inner_dim, p)
    # Column j of the RREF of P^T holds the coefficients of row j of P in the
    # basis rows, which are the pivots.
    reduced, basis = _rref(product.data.T, product.spec.q)
    rank = len(basis)
    if rank > min(inner_dim, m, p):
        raise ValueError("inner-dimension contract violated")
    chosen = set(basis)
    non_basis = [i for i in range(m) if i not in chosen]
    a1 = product.data[basis]
    a2 = reduced[:rank, non_basis].T
    payload = np.concatenate([a1.ravel(), a2.ravel()])
    return CompressedProduct(product.spec, dims, rank, tuple(basis), payload, f_len(dims))


def decompress_product(cp: CompressedProduct) -> FieldMatrix:
    """Exact inverse of compress_product."""
    m, p = cp.dims.m, cp.dims.p
    rank = cp.rank
    out = np.zeros((m, p), dtype=np.int64)
    if rank:
        a1 = cp.payload[: rank * p].reshape(rank, p)
        a2 = cp.payload[rank * p :].reshape(m - rank, rank)
        out[list(cp.basis_row_indices)] = a1
        chosen = set(cp.basis_row_indices)
        non_basis = [i for i in range(m) if i not in chosen]
        if non_basis:
            out[non_basis] = _matmul_mod(a2, a1, cp.spec.q)
    return FieldMatrix(cp.spec, out)


def packet_symbols(cp: CompressedProduct) -> np.ndarray:
    """Payload zero-padded to f(m,n,p): the fixed-length multicast wire form."""
    packet = np.zeros(cp.padded_length, dtype=np.int64)
    packet[: cp.payload.shape[0]] = cp.payload
    return packet


def _basis_first(basis: np.ndarray) -> np.ndarray:
    """Per item of a (b, m) basis-row mask: the basis rows, then the other
    rows, each ascending."""
    return np.argsort(~basis, axis=1, kind="stable")


def compress_stack(products: np.ndarray, inner_dim: int, q: int) -> tuple[np.ndarray, list[Header]]:
    """compress_product over a (b, m, p) stack of residue products with inner
    dimension n: the (b, f(m,n,p)) packets, item i equal to
    packet_symbols(compress_product(products[i], n)), and each item's
    (rank, basis_row_indices).  The items share one stacked elimination and
    one gather per distinct rank; single-row items need neither.

    Raises ValueError("inner-dimension contract violated") when some item's
    rank exceeds min(n, m, p).
    """
    b, m, p = products.shape
    dims = DimTriple(m, inner_dim, p)
    if m == 1:
        packets = products.reshape(b, p).copy()
        return packets, [_ROW if nonzero else _ZERO for nonzero in packets.any(axis=1).tolist()]
    reduced = products.transpose(0, 2, 1).copy()
    if q > _WORD_Q:
        reduced = reduced.astype(object)
    basis = _eliminate_stack(reduced, q, m)
    ranks = basis.sum(axis=1)
    if np.any(ranks > min(inner_dim, m, p)):
        raise ValueError("inner-dimension contract violated")
    order = _basis_first(basis)
    packets = np.zeros((b, f_len(dims)), dtype=np.int64)
    for rank in sorted(set(ranks.tolist()) - {0}):
        items = np.flatnonzero(ranks == rank)
        rows = order[items]
        a1 = np.take_along_axis(products[items], rows[:, :rank, None], axis=1)
        a2 = np.take_along_axis(reduced[items, :rank], rows[:, None, rank:], axis=2)
        packets[items, : rank * p] = a1.reshape(items.size, -1)
        a2 = a2.transpose(0, 2, 1).reshape(items.size, -1)
        packets[items, rank * p : rank * p + (m - rank) * rank] = a2
    headers = [(rank, tuple(row[:rank])) for rank, row in zip(ranks.tolist(), order.tolist())]
    return packets, headers


def decompress_stack(
    packets: np.ndarray, headers: Sequence[Header], dims: DimTriple, q: int
) -> np.ndarray:
    """decompress_product over a (b, f(m,n,p)) stack of packets with their
    (rank, basis_row_indices) headers: the (b, m, p) products.  The items
    share one stacked product per distinct rank.

    Raises ValueError, with CompressedProduct's message, on a header it
    would refuse, and on a stack of the wrong shape.
    """
    m, n, p = dims.m, dims.n, dims.p
    b = len(headers)
    if packets.shape != (b, f_len(dims)):
        raise ValueError(f"packet stack of shape {packets.shape}, expected {(b, f_len(dims))}")
    if m == 1 and all(header in (_ROW, _ZERO) for header in headers):
        out = packets.reshape(b, 1, p).copy()
        out[np.array([header == _ZERO for header in headers], dtype=bool)] = 0
        return out
    ranks = np.array([rank for rank, _ in headers], dtype=np.int64)
    bad = np.flatnonzero((ranks < 0) | (ranks > min(n, m, p)))
    if bad.size:
        raise ValueError(f"rank {ranks[bad[0]]} out of range for dims {dims}")
    if any(len(basis_rows) != rank for rank, basis_rows in headers):
        raise ValueError("basis index count must equal rank")
    rows = np.array([i for _, basis_rows in headers for i in basis_rows], dtype=np.int64)
    if np.any((rows < 0) | (rows >= m)):
        raise ValueError("basis index out of range")
    basis = np.zeros((b, m), dtype=bool)
    basis[np.repeat(np.arange(b), ranks), rows] = True
    order = _basis_first(basis)
    # Each item's indices are strictly increasing exactly when they are the
    # leading `rank` entries of its basis-first order.
    if not np.array_equal(order[np.arange(m) < ranks[:, None]], rows):
        raise ValueError("basis indices must be strictly increasing")
    out = np.zeros((b, m, p), dtype=np.int64)
    for rank in sorted(set(ranks.tolist()) - {0}):
        items = np.flatnonzero(ranks == rank)
        a1 = packets[items, : rank * p].reshape(items.size, rank, p)
        a2 = packets[items, rank * p : rank * p + (m - rank) * rank]
        a2 = a2.reshape(items.size, m - rank, rank)
        out[items[:, None], order[items]] = np.concatenate([a1, _matmul_mod(a2, a1, q)], axis=1)
    return out
