"""Rank-based compression of matrix products.

An m x p matrix known to be a product with inner dimension n has rank at
most min(n, m, p), so it is determined by a row basis (rank x p), the
coefficients expressing the remaining rows in that basis ((m-rank) x rank),
and the basis-row index list.  The index list travels as an uncounted
header; the numeric payload, zero-padded to the fixed length f(m, n, p), is
the packet that goes on the wire, so equal-shaped packets can be summed in
multicasts.  A `CompressedProduct` holds that packet, and `compress_stack`
and `decompress_stack` take stacks of the same (header, packet) pairs.

`compress_factors` takes a list of factor pairs (A, B), h x m and h x p,
and compresses each product P = A^T B by one of two routes, both with
`compress_product`'s bytes:
- **The factors**, when min(m, p) >= 64 and h <= min(m, p)/4, one pair
  at a time, without forming P.  Let the columns of the h x rho matrix G
  be a basis of B's column space.  The row space of P^T = B^T A is then
  the row space of G^T A, and an RREF is fixed by its row space, so the
  RREF of G^T A has the same pivots and the same first rank rows as that
  of P^T: the same basis rows and coefficients.  When B's leading h
  columns are independent, B's column space is all of F^h, so G may be
  the identity and G^T A is A itself; otherwise G is B at its pivot
  columns.  The basis rows themselves are A[:, basis]^T B.  That costs an
  elimination of h x h and one of h x m (or, for the other B, of h x p and
  rho x m), where the product needs P (m x h x p) and an elimination of
  m x p.  Timed one call at a time at q = 2^31 - 1 on one BLAS thread, the
  factors took 0.05 to 0.95 of the product's time inside that range
  (r x h x r at r = 64 to 360); from h = r/2 on, and at r <= 32, they were
  mostly slower, by up to 2x.
- **One stack per shape**, for the other products: the products of one
  shape are formed in one stacked product, and the distinct ones the memo
  does not hold yet share one `compress_stack`, the same call
  `compress_product` makes for a stack of one.  A product of more than
  _STACK_MAX_SYMBOLS = 4096 entries is formed on its own, which bounds
  the memory held at once: `agnostic` at N = 20 and r = 256 would
  otherwise stack 210 products of 256 x 256, 110 MB before the limb
  temporaries.  Whether a stack is eliminated together or item by item is
  `field._rref_stack`'s choice alone.

Within a `compression_memo` block, which `model.run_scheme` opens around
place, deliver and decode, each distinct product is compressed once, by
either route: a result is kept under its field, shape, inner dimension
and entries (residues as raw bytes, not a hash of them), or for the
factors under the field, shapes and entries of the pair.  A later call
with the same key, single or listed, returns the earlier result, whose
frozen packet the server and every decoder then share without a copy.
`column_splits` keeps each matrix's `spanning_column_splits` result in the
same memo, keyed by field, shape, block width and entries, so a server
that split its library in `place` reads the splits again in `deliver`.
The memo only skips the eliminations.  It holds no more than the block's
own products and splits and is emptied when the block ends.

A single-row product (m = 1) needs no elimination: its rank is 1 exactly
when its row is nonzero, with basis (0,) and no coefficients, and its packet
is the row itself, since f(1, n, p) = p.  `compress_stack`, and so
`compress_product`, and `decompress_stack` take such products on that rule.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .field import FieldMatrix, FieldSpec, _matmul_mod, _rref, _rref_stack, spanning_column_splits

PacketHeader = tuple[int, tuple[int, ...]]  # (rank, basis row indices)
# The headers of a nonzero and of a zero single-row product.
_ROW: PacketHeader = (1, (0,))
_ZERO: PacketHeader = (0, ())
# (q, product shape, inner dimension, product residues as bytes) or
# (q, shape of a, shape of b, residues of a and b as bytes) -> result, and
# (q, "split", matrix shape, block width, residues as bytes) -> the matrix's
# (perm, W1, Q), while a `compression_memo` block runs in this context.
_MemoKey = tuple
ColumnSplit = tuple[tuple[int, ...], FieldMatrix, FieldMatrix]
# Cut-overs of compress_factors (see the module docstring): it eliminates
# the factors when min(m, p) is at least _FACTORS_MIN_OUTER and at least
# _FACTORS_MIN_RATIO times h, and forms a product of more than
# _STACK_MAX_SYMBOLS entries alone.
_FACTORS_MIN_OUTER = 64
_FACTORS_MIN_RATIO = 4
_STACK_MAX_SYMBOLS = 4096
_memo: ContextVar[dict[_MemoKey, "CompressedProduct | ColumnSplit"] | None] = ContextVar(
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
    """P(C, B) encoding: the f(m,n,p)-symbol wire packet and its header.

    packet = A1 entries row-major (the basis rows), then A2 entries
    row-major (the coefficients of the non-basis rows, in ascending original
    index order), then zeros up to f(m,n,p).  The padding is never read, so
    a packet whose padding is not zero still decompresses.  The packet is
    kept read-only, without a copy when it already is.
    """

    spec: FieldSpec
    dims: DimTriple
    rank: int
    basis_row_indices: tuple[int, ...]
    packet: np.ndarray

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
        arr = np.ascontiguousarray(self.packet, dtype=np.int64)
        if arr.shape != (f_len(self.dims),):
            raise ValueError(f"packet of shape {arr.shape}, expected ({f_len(self.dims)},)")
        if arr is self.packet and arr.flags.writeable:
            arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "packet", arr)

    @property
    def payload(self) -> np.ndarray:
        """The packet without its padding: rank*p + (m-rank)*rank symbols."""
        return self.packet[: self.rank * self.dims.p + (self.dims.m - self.rank) * self.rank]

    def factors(self) -> tuple[np.ndarray, np.ndarray]:
        """(L, basis rows), whose product L @ basis rows mod q is the m x p
        product: L is m x rank, the identity at the basis rows and the
        coefficients elsewhere, and the basis rows are a view of the packet."""
        m, p, rank = self.dims.m, self.dims.p, self.rank
        left = np.zeros((m, rank), dtype=np.int64)
        left[list(self.basis_row_indices), np.arange(rank)] = 1
        non_basis = np.ones(m, dtype=bool)
        non_basis[list(self.basis_row_indices)] = False
        coefficients = self.packet[rank * p : rank * p + (m - rank) * rank]
        left[non_basis] = coefficients.reshape(m - rank, rank)
        return left, self.packet[: rank * p].reshape(rank, p)


@contextmanager
def compression_memo() -> Iterator[None]:
    """Let `compress_product` and `compress_factors` reuse their results,
    and `column_splits` its splits, for the length of the block; the memo is
    emptied and closed when the block ends, also when it raises.  Nested
    blocks each get their own memo."""
    memo: dict[_MemoKey, CompressedProduct | ColumnSplit] = {}
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

    Raises ValueError("dimensions must be positive") when n < 1, and
    ValueError("inner-dimension contract violated") when the matrix rank
    exceeds min(n, m, p) — i.e. the caller's product claim is wrong.
    """
    return _compressed(product.spec, product.data[None], inner_dim)[0]


def compress_factors(
    spec: FieldSpec, pairs: Sequence[tuple[np.ndarray, np.ndarray]]
) -> list[CompressedProduct]:
    """compress_product(a^T b, h), byte for byte, for each pair of h x m and
    h x p residue factors a and b, in order, by the module docstring's two
    routes: from the factors, or one stacked product per shape.

    Inside a `compression_memo` block each result is kept under
    `compress_product`'s key, or on the factor route under the pair's, so a
    later call for the same product, single or listed, finds it.
    """
    q = spec.q
    memo = _memo.get()
    kept = {} if memo is None else memo  # equal pairs of one call share one compression
    out: list[CompressedProduct] = [None] * len(pairs)
    shapes: dict[object, list[int]] = {}
    for i, (a, b) in enumerate(pairs):
        (h, m), p = a.shape, b.shape[1]
        if _factored(h, m, p):
            key = _key((q, a.shape, b.shape), a, b)
            if key not in kept:
                kept[key] = _compress_factors(spec, a, b)
            out[i] = kept[key]
        else:  # a product too large to stack is a shape of its own
            shapes.setdefault((h, m, p) if m * p <= _STACK_MAX_SYMBOLS else i, []).append(i)
    for items in shapes.values():
        lefts = np.stack([pairs[i][0] for i in items]).transpose(0, 2, 1)
        products = _matmul_mod(lefts, np.stack([pairs[i][1] for i in items]), q)
        for i, cp in zip(items, _compressed(spec, products, pairs[items[0]][0].shape[0])):
            out[i] = cp
    return out


def _factored(h: int, m: int, p: int) -> bool:
    """Whether compress_factors eliminates an h x m and an h x p factor
    themselves, not their product."""
    return min(m, p) >= _FACTORS_MIN_OUTER and min(m, p) >= _FACTORS_MIN_RATIO * h


def _compressed(spec: FieldSpec, products: np.ndarray, inner_dim: int) -> list[CompressedProduct]:
    """compress_product of each item of a (b, m, p) stack of residue
    products with inner dimension n.  Equal items, and inside a
    `compression_memo` block items compressed there before, are compressed
    once: the rest share one `compress_stack`."""
    _, m, p = products.shape
    dims = DimTriple(m, inner_dim, p)
    memo = _memo.get()
    kept = {} if memo is None else memo
    keys = _stack_keys((spec.q, (m, p), inner_dim), products)
    todo = {key: j for j, key in enumerate(keys) if key not in kept}
    if todo:
        packets, headers = compress_stack(products[list(todo.values())], inner_dim, spec.q)
        packets.flags.writeable = False  # so each item keeps its row without a copy
        for key, packet, (rank, basis) in zip(todo, packets, headers):
            kept[key] = CompressedProduct(spec, dims, rank, basis, packet)
    return [kept[key] for key in keys]


def column_splits(matrices: Sequence[FieldMatrix], block_cols: int) -> list[ColumnSplit]:
    """spanning_column_splits(matrices, block_cols), item for item.

    Inside a `compression_memo` block, a matrix split there before (same
    q, shape, block width and entries) returns its earlier split, and the
    others are split in one call.
    """
    memo = _memo.get()
    if memo is None:
        return spanning_column_splits(matrices, block_cols)
    keys = [_key((w.spec.q, "split", w.shape, block_cols), w.data) for w in matrices]
    todo = {key: w for key, w in zip(keys, matrices) if key not in memo}
    if todo:
        memo.update(zip(todo, spanning_column_splits(list(todo.values()), block_cols)))
    return [memo[key] for key in keys]


def _key(head: tuple, *arrays: np.ndarray) -> _MemoKey:
    """The memo key of `head`, which starts with q, and the entries of
    `arrays`.  Residues below 2^32 are keyed as 4-byte words: the key stays
    exact and the memo, which holds every distinct product of the run, half
    as large."""
    width = np.uint32 if head[0] <= 1 << 32 else np.int64
    return (*head, b"".join(array.astype(width).tobytes() for array in arrays))


def _stack_keys(head: tuple, stack: np.ndarray) -> list[_MemoKey]:
    """`_key(head, item)` for each item of `stack`, cut from the whole
    stack's key."""
    raw = _key(head, stack)[-1]
    size = len(raw) // len(stack)
    return [(*head, raw[j * size : (j + 1) * size]) for j in range(len(stack))]


def _compress_factors(spec: FieldSpec, a: np.ndarray, b: np.ndarray) -> CompressedProduct:
    q = spec.q
    (h, m), p = a.shape, b.shape[1]
    # When b's leading h columns are independent, they span F^h, so G may
    # be the identity and the row space of P^T is that of a itself.
    if len(_rref(b[:, :h], q)[1]) == h:
        reduced, basis = _rref(a, q)
    else:
        _, columns = _rref(b, q)
        reduced, basis = _rref(_matmul_mod(b[:, columns].T, a, q), q)
    rank = len(basis)
    dims = DimTriple(m, h, p)
    chosen = set(basis)
    non_basis = [i for i in range(m) if i not in chosen]
    packet = np.zeros(f_len(dims), dtype=np.int64)
    packet[: rank * p] = _matmul_mod(a[:, basis].T, b, q).ravel()
    packet[rank * p : rank * p + (m - rank) * rank] = reduced[:rank, non_basis].T.ravel()
    packet.flags.writeable = False
    return CompressedProduct(spec, dims, rank, tuple(basis), packet)


def decompress_product(cp: CompressedProduct) -> FieldMatrix:
    """Exact inverse of compress_product."""
    m, p = cp.dims.m, cp.dims.p
    rank = cp.rank
    out = np.zeros((m, p), dtype=np.int64)
    if rank:
        a1 = cp.packet[: rank * p].reshape(rank, p)
        a2 = cp.packet[rank * p : rank * p + (m - rank) * rank].reshape(m - rank, rank)
        out[list(cp.basis_row_indices)] = a1
        chosen = set(cp.basis_row_indices)
        non_basis = [i for i in range(m) if i not in chosen]
        if non_basis:
            out[non_basis] = _matmul_mod(a2, a1, cp.spec.q)
    return FieldMatrix(cp.spec, out)


def _basis_first(basis: np.ndarray) -> np.ndarray:
    """Per item of a (b, m) basis-row mask: the basis rows, then the other
    rows, each ascending."""
    return np.argsort(~basis, axis=1, kind="stable")


def compress_stack(
    products: np.ndarray, inner_dim: int, q: int
) -> tuple[np.ndarray, list[PacketHeader]]:
    """compress_product over a (b, m, p) stack of residue products with inner
    dimension n: the (b, f(m,n,p)) packets, item i equal to
    compress_product(products[i], n).packet, and each item's
    (rank, basis_row_indices).  The items share one `field._rref_stack` and
    one gather per distinct rank; single-row items need neither.

    Raises ValueError("dimensions must be positive") when n < 1, before any
    elimination, and ValueError("inner-dimension contract violated") when
    some item's rank exceeds min(n, m, p).
    """
    b, m, p = products.shape
    dims = DimTriple(m, inner_dim, p)
    if m == 1:
        packets = products.reshape(b, p).copy()
        return packets, [_ROW if nonzero else _ZERO for nonzero in packets.any(axis=1).tolist()]
    # Column j of the RREF of P^T holds the coefficients of row j of P in the
    # basis rows, which are the pivots.
    reduced, basis = _rref_stack(products.transpose(0, 2, 1), q, m)
    ranks = basis.sum(axis=1)
    if np.any(ranks > min(inner_dim, m, p)):
        raise ValueError("inner-dimension contract violated")
    order = _basis_first(basis)
    packets = np.zeros((b, f_len(dims)), dtype=np.int64)
    for rank in sorted(set(ranks.tolist()) - {0}):
        items = np.flatnonzero(ranks == rank)
        rows = order[items]
        at = items[:, None]
        packets[items, : rank * p] = products[at, rows[:, :rank]].reshape(items.size, -1)
        # Entry (j, t) of an item's coefficients: reduced[t, non-basis row j].
        a2 = reduced[at[:, :, None], np.arange(rank), rows[:, rank:, None]]
        packets[items, rank * p : rank * p + (m - rank) * rank] = a2.reshape(items.size, -1)
    headers = [(rank, tuple(row[:rank])) for rank, row in zip(ranks.tolist(), order.tolist())]
    return packets, headers


def decompress_stack(
    packets: np.ndarray, headers: Sequence[PacketHeader], dims: DimTriple, q: int
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
