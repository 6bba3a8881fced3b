"""Deterministic dense linear algebra over a prime field GF(q).

Matrices are stored row-major as numpy int64 arrays of residues in [0, q).
All algorithms use exact modular arithmetic with first-nonzero pivoting, so
every operation is a pure deterministic function of its inputs — two callers
holding the same matrix always compute byte-identical results, which the
multicast-cancellation logic elsewhere relies on.

Products and eliminations for q < 2^31 each have two exact paths.  Small
ones stay in int64: the product splits b into 16-bit halves, and the
elimination is a rank-1 loop, one pivot at a time.  Larger products run in
float64 BLAS on k-bit limbs of a, k = 53 - bitlen(q-1) - bitlen(n) for inner
dimension n.  Each dot product of n limbs (< 2^k) with n residues (< q) is
then an integer of at most n*(q-1)*(2^k - 1) < 2^53, and so is every partial
sum of it, which float64 holds exactly: the result is the same for every
order and thread count the BLAS sums in (the delayed reduction of Dumas,
Giorgi and Pernet, "FFLAS/FFPACK", ACM TOMS 35(3), 2008).  Larger
eliminations run in column panels whose trailing updates are such products
(after the blocked elimination of Jeannerod, Pernet and Storjohann,
J. Symbolic Comput. 56, 2013).  The cut-overs (_BLAS_MIN_INNER,
_BLAS_MIN_OUTPUT, _BLOCKED_MIN_COLS, _BLOCKED_MIN_ENTRIES) come from a timing
sweep: below them the int64 paths are faster, and the tests hold the BLAS
paths to them as oracles.  q > 2^31 computes on Python ints (object dtype).
For many small products of one shape, `_matmul_mod` also multiplies
(b, m, n) @ (b, n, p) stacks and `_eliminate_stack` runs the rank-1 loop on
every item of a stack in the same numpy calls.  Every elimination stops
once the rows below its last pivot are zero on the columns still to pivot,
a stack once that holds for every item: no later column could find a pivot
there, so stopping changes no result.

Random matrices come from a counter-based PRNG (SplitMix64 finalizer over a
linear counter encoding) with rejection sampling, so entry (i, j) of a matrix
depends only on (seed, rows, cols, i, j) — never on generation order or
platform.  `random_matrices` draws a whole library in one vectorized pass
over its vector of seeds, in batches of at most _DRAW_BATCH_SYMBOLS symbols,
with the same bytes as one `random_matrix` per seed.

`FieldMatrix(spec, data)` is the boundary: it reduces its input mod q and
copies an array the caller can still write to.  Results the code has just
computed (products, library draws, solutions, transposes) are already
reduced and owned by no one else, so they go through the private
`FieldMatrix._trusted`, which only freezes them.
"""

from __future__ import annotations

import ctypes
import ctypes.util
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from pathlib import Path
from typing import Sequence

import numpy as np

# SplitMix64 constants (Steele, Lea & Flood 2014).
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# Second stream increment for rejection-sampling retries.
_GAMMA2 = 0xD1B54A32D192ED03
_MASK64 = (1 << 64) - 1

# int64 storage keeps a*b for residues a, b < q exact only when q^2 < 2^63;
# q below 2^31 additionally enables the int64 and float64 kernels.  Primes up
# to 2^62 are still accepted (exact via object-dtype fallback).
_MAX_Q = 1 << 62
# Below this q, products run in int64 or float64 and elimination in int64.
_WORD_Q = 1 << 31
# Longest inner dimension of the int64 split product.
_INT64_MAX_INNER = 1 << 15
# float64 holds every integer below 2^53 exactly.
_MANTISSA_BITS = 53
# Cut-overs from a timing sweep on a 2-CPU x86-64 host with OpenBLAS.
# Products with an inner dimension of at least _BLAS_MIN_INNER and at least
# _BLAS_MIN_OUTPUT result entries go to float64 BLAS.
_BLAS_MIN_INNER = 16
_BLAS_MIN_OUTPUT = 256
# Eliminations of matrices with at least _BLOCKED_MIN_COLS columns and
# _BLOCKED_MIN_ENTRIES entries run in panels of _PANEL columns.
_BLOCKED_MIN_COLS = 112
_BLOCKED_MIN_ENTRIES = 1 << 13
_PANEL = 32
# Fewer than _STACK_MIN_ITEMS small matrices are eliminated one at a time,
# by `spanning_column_splits` and `compress.compress_factors`: below it a
# stacked elimination's per-column numpy calls cost more than the calls it
# saves.  On a sweep at q = 2, 2^31 - 1 and 2^61 - 1 (splits of 2 x 4 to
# 21 x 42 matrices, compressions of 2 x 2 to 21 x 21 products), 2 items
# took 1.03 to 2.29 times as long stacked, 4 items 0.80 to 1.47 and 5
# items 0.69 to 1.24, above 1 only over GF(2), whose sparse items pivot in
# fewer columns together; from 6 items on stacking won in every field.
_STACK_MIN_ITEMS = 5
# Most symbols `random_matrices` draws in one vectorized pass; a larger
# library is drawn in batches, so its temporaries do not grow peak memory.
# At 2^15, a batch's 256 KB temporaries raised the peak RSS of perfbench's
# col-many-blocks by 0.8 MB; every corner-cell library of the default
# verify matrix (at most 1,440 symbols) still takes one pass.
_DRAW_BATCH_SYMBOLS = 1 << 12

# Miller-Rabin with this witness set is deterministic for n < 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=256)  # every FieldSpec(q) asks, mostly for the same few q
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact for n < 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """A prime field GF(q)."""

    q: int

    def __post_init__(self) -> None:
        if not isinstance(self.q, int) or self.q < 2:
            raise ValueError(f"field modulus must be an integer >= 2, got {self.q!r}")
        if self.q > _MAX_Q:
            raise ValueError(f"field modulus {self.q} exceeds supported bound 2^62")
        if not is_prime(self.q):
            raise ValueError(f"field modulus must be prime, got {self.q}")

    @property
    def symbol_bytes(self) -> int:
        """Bytes needed to store one field symbol (for header accounting)."""
        return (self.q.bit_length() + 7) // 8


DEFAULT_FIELD = FieldSpec(2_147_483_647)  # 2^31 - 1


@dataclass(frozen=True, eq=False)
class FieldMatrix:
    """Immutable dense matrix over GF(q), row-major int64 residues."""

    spec: FieldSpec
    data: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.data, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError(f"matrix data must be 2-D, got shape {arr.shape}")
        if arr.size and (arr.min() < 0 or arr.max() >= self.spec.q):
            arr = arr % self.spec.q
        elif arr is self.data and arr.flags.writeable:
            arr = arr.copy()  # never freeze an array the caller still owns
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @classmethod
    def _trusted(cls, spec: FieldSpec, data: np.ndarray) -> "FieldMatrix":
        """A matrix over `data` as it is, frozen: for a 2-D int64 array of
        residues in [0, q) that the caller has just computed and that no one
        else can write to.  Skips the public constructor's range scan and
        copy."""
        data.flags.writeable = False
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "spec", spec)
        object.__setattr__(matrix, "data", data)
        return matrix

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        return self.spec == other.spec and self.data.shape == other.data.shape and bool(
            np.array_equal(self.data, other.data)
        )

    def __hash__(self) -> int:  # frozen dataclass with eq=False would inherit id-hash
        return hash((self.spec, self.data.shape, self.data.tobytes()))

    def transpose(self) -> "FieldMatrix":
        return FieldMatrix._trusted(self.spec, np.ascontiguousarray(self.data.T))


def _limb_bits(q: int, n: int) -> int:
    """Limb width k of the float64 product with inner dimension n.

    As q - 1 < 2^bitlen(q-1) and n < 2^bitlen(n), a dot product of n
    residues with n k-bit limbs is at most n*(q-1)*(2^k - 1) < 2^53.  Below 1
    there is no such limb.
    """
    return _MANTISSA_BITS - (q - 1).bit_length() - n.bit_length()


def _matmul_mod_int64(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Exact (a @ b) mod q in int64, for q <= 2^31 and inner dimension <= 2^15."""
    # Split b into 16-bit halves so every partial dot product fits int64:
    # a*b_hi < 2^31 * 2^15 summed over <= 2^15 terms < 2^61.
    b_hi = b >> 16
    b_lo = b & 0xFFFF
    hi = (a @ b_hi) % q
    return ((hi << 16) + a @ b_lo) % q


def _matmul_mod_float64(a: np.ndarray, b: np.ndarray, q: int, k: int) -> np.ndarray:
    """Exact (a @ b) mod q from float64 BLAS products of the k-bit limbs of a with b."""
    b = b.astype(np.float64)
    acc = None
    # Most significant limb first: Horner's rule recombines the limb products.
    for shift in range(((q - 1).bit_length() - 1) // k * k, -1, -k):
        part = (((a >> shift) & ((1 << k) - 1)).astype(np.float64) @ b).astype(np.int64)
        if acc is None:
            acc = part
        else:
            acc <<= k
            acc += part
        acc %= q
    return acc


def _matmul_mod(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Exact (a @ b) mod q for residue matrices, or item by item for
    (b, m, n) @ (b, n, p) stacks of them.

    For q < 2^31, a product with inner dimension n >= _BLAS_MIN_INNER and at
    least _BLAS_MIN_OUTPUT entries, or with n past the int64 split's 2^15,
    runs in float64 BLAS on k-bit limbs of a, k = _limb_bits(q, n): every
    partial dot product is an integer below 2^53, so the result is exact for
    any summation order and thread count.  Smaller products take the int64
    split, which is faster there and the oracle of the tests.  Larger q, and
    inner dimensions too long for a 1-bit limb, take the object product.
    """
    m, n = a.shape[-2:]
    p = b.shape[-1]
    if n == 0:
        return np.zeros(a.shape[:-1] + (p,), dtype=np.int64)
    if q < _WORD_Q:
        if n <= _INT64_MAX_INNER and (n < _BLAS_MIN_INNER or m * p < _BLAS_MIN_OUTPUT):
            return _matmul_mod_int64(a, b, q)
        k = _limb_bits(q, n)
        if k >= 1:
            return _matmul_mod_float64(a, b, q, k)
    prod = a.astype(object) @ b.astype(object)
    return (prod % q).astype(np.int64)


def _openblas_paths() -> list[str]:
    """The OpenBLAS libraries numpy may have loaded: the ones bundled with a
    numpy wheel (numpy.libs beside the package on Linux, numpy/.dylibs on
    macOS), else the system's."""
    package = Path(np.__file__).parent
    bundled = [*package.parent.glob("numpy.libs/*openblas*"), *package.glob(".dylibs/*openblas*")]
    system = ctypes.util.find_library("openblas")
    return [str(path) for path in bundled] or ([system] if system else [])


def single_blas_thread() -> None:
    """Run this process's OpenBLAS products on one thread, if numpy has an
    OpenBLAS.  A process pool calls this in each worker, so that its workers
    do not each start one BLAS thread per CPU; no other process is affected,
    and the results do not depend on the thread count.
    """
    for path in _openblas_paths():
        try:
            lib = ctypes.CDLL(path)  # numpy's copy, when it is loaded already
        except OSError:
            continue
        for prefix in ("scipy_", ""):
            for suffix in ("64_", ""):
                setter = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
                if setter is not None:
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    setter(1)


def mat_mul(a: FieldMatrix, b: FieldMatrix) -> FieldMatrix:
    """Matrix product over GF(q)."""
    if a.spec != b.spec:
        raise ValueError("field mismatch in mat_mul")
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch in mat_mul: {a.shape} x {b.shape}")
    return FieldMatrix._trusted(a.spec, _matmul_mod(a.data, b.data, a.spec.q))


def _rref(data: np.ndarray, q: int, ncols: int | None = None) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of `data` mod q, pivoting on its first `ncols` columns.

    Returns (reduced, pivot_cols).  For each column in order, the first
    nonzero row at or below the next pivot row is swapped up, scaled to a
    unit pivot, and cleared from every other row by one rank-1 update.  The
    RREF is unique, and pivot_cols are the lexicographically first
    independent columns, so every caller's result is fixed by the matrix.

    For q < 2^31, matrices with at least _BLOCKED_MIN_COLS columns and
    _BLOCKED_MIN_ENTRIES entries are eliminated in panels with BLAS trailing
    updates (`_eliminate_blocked`); smaller ones, and q > 2^31, by the rank-1
    loop (`_eliminate`), which is faster there and the oracle of the tests.
    Both give the same pivots and reduced[:rank].  Rows from rank on are zero
    on the first ncols columns; after those they span the residual of a
    `solve_columns` system in either path, but in a path-dependent basis.
    While that residual is nonzero, reduced[:rank, ncols:] is path-dependent
    too; callers then read only that the residual is nonzero.
    """
    work = np.ascontiguousarray(data % q)
    ncols = work.shape[1] if ncols is None else ncols
    if q > _WORD_Q:
        work = work.astype(object)  # a factor times an entry must stay exact
    elif work.shape[1] >= _BLOCKED_MIN_COLS and work.size >= _BLOCKED_MIN_ENTRIES:
        return work, _eliminate_blocked(work, q, ncols)
    return work, _eliminate(work, q, ncols)[0]


def _eliminate(work: np.ndarray, q: int, ncols: int) -> tuple[list[int], list[int]]:
    """Gauss-Jordan on `work` in place, one rank-1 update per pivot.

    Returns (pivot_cols, order): the input rows order[:rank] span the same
    row space as the first rank rows of the result, so they are independent.
    """
    m = work.shape[0]
    pivots: list[int] = []
    order = list(range(m))
    for col in range(ncols):
        row = len(pivots)
        if row == m:
            break
        nonzero = np.flatnonzero(work[row:, col])
        if nonzero.size == 0:
            if not work[row:, col:ncols].any():
                break  # no later column has a pivot candidate either
            continue
        sel = row + int(nonzero[0])
        if sel != row:
            work[[row, sel]] = work[[sel, row]]
            order[row], order[sel] = order[sel], order[row]
        # Entries left of `col` are zero in rows at or below `row`, so every
        # update can be restricted to columns >= col.
        work[row, col:] = work[row, col:] * pow(int(work[row, col]), -1, q) % q
        factors = work[:, col].copy()
        factors[row] = 0
        work[:, col:] = (work[:, col:] - np.outer(factors, work[row, col:])) % q
        pivots.append(col)
    return pivots, order


def _eliminate_stack(work: np.ndarray, q: int, ncols: int) -> np.ndarray:
    """Gauss-Jordan on every item of the (b, m, n) stack `work` in place.

    Each item gets the steps `_eliminate` takes on it alone: for each column,
    the first nonzero row at or below the item's next pivot row is swapped
    up, scaled to a unit pivot and cleared from the item's other rows.  The
    items of one column step share each numpy call.  Returns the (b, ncols)
    mask of each item's pivot columns.
    """
    b, m = work.shape[:2]
    pivots = np.zeros((b, ncols), dtype=bool)
    rank = np.zeros(b, dtype=np.int64)
    rows = np.arange(m)
    for col in range(ncols):
        if np.all(rank == m):
            break
        candidates = (work[:, :, col] != 0) & (rows >= rank[:, None])
        items = np.flatnonzero(candidates.any(axis=1))
        if items.size == 0:
            if not work[rows >= rank[:, None]][:, col:ncols].any():
                break  # no later column has a pivot candidate in any item
            continue
        row = rank[items]
        sel = candidates[items].argmax(axis=1)
        top = work[items, row]
        work[items, row] = work[items, sel]
        work[items, sel] = top
        inverse = _batch_inverse(work[items, row, col].tolist(), q)
        lead = work[items, row, col:] * np.array(inverse, dtype=work.dtype)[:, None] % q
        work[items, row, col:] = lead
        factors = work[items, :, col]
        factors[np.arange(items.size), row] = 0
        update = factors[:, :, None] * lead[:, None, :]
        if items.size == b:  # every item pivots here: read and write the stack
            block = work[:, :, col:]  # through a slice, not a gather and a scatter
            np.subtract(block, update, out=update)
            np.remainder(update, q, out=block)
        else:
            work[items, :, col:] = (work[items, :, col:] - update) % q
        pivots[items, col] = True
        rank[items] += 1
    return pivots


def _batch_inverse(values: list[int], q: int) -> list[int]:
    """The inverses mod q of nonzero residues, with one `pow` for all of them
    (Montgomery's trick): invert the product of all, then peel the values
    off from the last one, with the products of the ones before it."""
    prefix = list(accumulate(values, lambda acc, x: acc * x % q))
    inverse = pow(prefix[-1], -1, q)
    out = [0] * len(values)
    for i in range(len(values) - 1, 0, -1):
        out[i] = inverse * prefix[i - 1] % q
        inverse = inverse * values[i] % q
    out[0] = inverse
    return out


def _eliminate_blocked(work: np.ndarray, q: int, ncols: int) -> list[int]:
    """Gauss-Jordan on `work` in place, _PANEL pivot columns at a time.

    The rank-1 loop runs on a copy of the panel's non-pivot rows only, to find
    the panel's pivot columns J and the rows R that carry them.  Those rows
    become S^-1 R with S = R[:, J], which is the unit basis of their span on
    J, and every other row x gets one BLAS update x - x[:, J] S^-1 R.
    """
    m = work.shape[0]
    pivots: list[int] = []
    for c0 in range(0, ncols, _PANEL):
        r = len(pivots)
        if r == m:
            break
        c1 = min(c0 + _PANEL, ncols)
        found, order = _eliminate(work[r:, c0:c1].copy(), q, c1 - c0)
        k = len(found)
        if k == 0:
            continue
        rows = r + np.array(order[:k])
        cols = c0 + np.array(found)
        unit = np.concatenate([work[np.ix_(rows, cols)], np.eye(k, dtype=np.int64)], axis=1)
        _eliminate(unit, q, k)  # [S | I] -> [I | S^-1]
        basis = _matmul_mod(unit[:, k:], work[rows, c0:], q)
        others = np.concatenate([np.arange(r), r + np.array(order[k:], dtype=np.int64)])
        rest = work[others, c0:]
        rest = (rest - _matmul_mod(rest[:, found], basis, q)) % q
        work[:r, c0:] = rest[:r]
        work[r : r + k, c0:] = basis
        work[r + k :, c0:] = rest[r:]
        pivots.extend(cols.tolist())
        if not work[r + k :, c1:ncols].any():
            break  # the rows below the pivots are zero on every column left
    return pivots


def mat_rank(a: FieldMatrix) -> int:
    """Rank over GF(q) via Gaussian elimination (0 for empty/zero)."""
    return len(_rref(a.data, a.spec.q)[1])


def solve_columns(w1: FieldMatrix, y: FieldMatrix) -> FieldMatrix:
    """Solve W1 Q = Y column-wise; free variables pinned to 0.

    Deterministic: the solution is read off the RREF of [W1 | Y].  Raises
    ValueError("column not in span") when some column of Y is outside the
    column space of W1.
    """
    if w1.spec != y.spec:
        raise ValueError("field mismatch in solve_columns")
    if w1.rows != y.rows:
        raise ValueError(f"dimension mismatch in solve_columns: {w1.shape} vs {y.shape}")
    n = w1.cols
    reduced, pivots = _rref(np.concatenate([w1.data, y.data], axis=1), w1.spec.q, ncols=n)
    rank = len(pivots)
    if np.any(reduced[rank:, n:]):
        raise ValueError("column not in span")
    sol = np.zeros((n, y.cols), dtype=np.int64)
    sol[pivots] = reduced[:rank, n:]
    return FieldMatrix._trusted(w1.spec, sol)


def spanning_column_splits(
    matrices: Sequence[FieldMatrix], block_cols: int
) -> list[tuple[tuple[int, ...], FieldMatrix, FieldMatrix]]:
    """Split each W into a leading block W1 that spans it and coefficients Q.

    Returns one (perm, W1, Q) per matrix, with W1 = W[:, perm[:block_cols]]
    and W1 @ Q = W[:, perm[block_cols:]].  perm is the identity whenever the
    natural leading block already has rank rank(W); otherwise the
    lexicographically first independent columns are pulled to the front
    (greedy, deterministic).  Q is the solution with free variables pinned to
    0 that `solve_columns(W1, W[:, perm[block_cols:]])` finds, read off one
    elimination of W: W1 holds every pivot column of W, and the RREF rows
    carrying those pivots are unique, so they are the permuted matrix's too.

    Raises ValueError when some rank(W) exceeds block_cols, so no W1 spans
    W, raising what the first failing item would.  _STACK_MIN_ITEMS or more
    matrices of one field and shape with fewer than _BLOCKED_MIN_COLS
    columns share one `_eliminate_stack`, with the same bytes; otherwise
    each takes `_rref`.  On fewer or wider ones the stack's gathers cost
    more than the per-column calls it saves.
    """
    first = matrices[0] if matrices else None
    stacked = (
        len(matrices) >= _STACK_MIN_ITEMS
        and first.cols < _BLOCKED_MIN_COLS
        and all(w.spec == first.spec and w.shape == first.shape for w in matrices)
    )
    if stacked:
        q = first.spec.q
        work = np.array([w.data for w in matrices], dtype=object if q > _WORD_Q else None)
        masks = _eliminate_stack(work, q, first.cols)
        eliminated = [(reduced, np.flatnonzero(mask).tolist()) for reduced, mask in zip(work, masks)]
    splits = []
    for i, w in enumerate(matrices):
        if block_cols > w.cols:
            raise ValueError(f"block_cols {block_cols} exceeds matrix cols {w.cols}")
        reduced, pivots = eliminated[i] if stacked else _rref(w.data, w.spec.q)
        rank = len(pivots)
        if rank > block_cols:
            raise ValueError(f"rank {rank} exceeds block_cols {block_cols}: column not in span")
        if pivots and pivots[-1] >= block_cols:
            chosen = set(pivots)
            perm = pivots + [c for c in range(w.cols) if c not in chosen]
            lead = list(range(rank))  # where the pivot columns sit in W1
        else:
            perm, lead = list(range(w.cols)), pivots
        coeffs = np.zeros((block_cols, w.cols - block_cols), dtype=np.int64)
        coeffs[lead] = reduced[:rank, perm[block_cols:]]
        w1 = FieldMatrix._trusted(w.spec, w.data[:, perm[:block_cols]])
        splits.append((tuple(perm), w1, FieldMatrix._trusted(w.spec, coeffs)))
    return splits


def _mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, vectorized over uint64 (wraps mod 2^64)."""
    x = x ^ (x >> np.uint64(30))
    x = x * np.uint64(_MIX1)
    x = x ^ (x >> np.uint64(27))
    x = x * np.uint64(_MIX2)
    return x ^ (x >> np.uint64(31))


def _mix64_int(x: int) -> int:
    x &= _MASK64
    x ^= x >> 30
    x = (x * _MIX1) & _MASK64
    x ^= x >> 27
    x = (x * _MIX2) & _MASK64
    return x ^ (x >> 31)


def derive_seed(seed: int, index: int) -> int:
    """Derived sub-seed for item `index` of a seeded collection."""
    return _mix64_int((seed & _MASK64) + _GOLDEN * (index + 1))


def uniform_residues(seed: int, count: int, q: int) -> np.ndarray:
    """`count` i.i.d. uniform draws on [0, q) from the counter-based PRNG.

    Draw t for counter c is mix64(mix64(seed + (c+1)*GOLDEN) + t*GAMMA2);
    draws >= floor(2^64 / q) * q are rejected and retried with t+1, which
    makes the accepted value exactly uniform.
    """
    return _residue_rows([seed], count, q)[0]


def _residue_rows(seeds: Sequence[int], count: int, q: int) -> np.ndarray:
    """The (len(seeds), count) draws whose row i is
    uniform_residues(seeds[i], count, q), in one vectorized pass; a rejected
    draw is retried in its own entry only."""
    if q < 2:
        raise ValueError("q must be >= 2")
    limit = np.uint64(((1 << 64) // q) * q - 1)  # accept v <= limit
    counters = np.arange(1, count + 1, dtype=np.uint64)
    start = np.array([seed & _MASK64 for seed in seeds], dtype=np.uint64)[:, None]
    base = _mix64(start + counters * np.uint64(_GOLDEN))
    vals = _mix64(base)
    attempt = 0
    reject = vals > limit
    while np.any(reject):
        attempt += 1
        # t*GAMMA2 wraps mod 2^64; taken in Python ints, numpy does not warn.
        vals[reject] = _mix64(base[reject] + np.uint64(attempt * _GAMMA2 & _MASK64))
        reject = vals > limit
    return (vals % np.uint64(q)).astype(np.int64)


def random_matrix(spec: FieldSpec, rows: int, cols: int, seed: int) -> FieldMatrix:
    """Seeded uniform random matrix; identical on every platform.

    Entry (i, j) uses counter i*cols + j, so the value depends only on
    (seed, rows, cols, i, j).
    """
    vals = uniform_residues(seed, rows * cols, spec.q)
    return FieldMatrix._trusted(spec, vals.reshape(rows, cols))


def random_matrices(
    spec: FieldSpec, rows: int, cols: int, seeds: Sequence[int]
) -> list[FieldMatrix]:
    """[random_matrix(spec, rows, cols, seed) for seed in seeds], byte for
    byte, drawn in vectorized batches of at most _DRAW_BATCH_SYMBOLS symbols
    (one matrix when a single matrix is larger).  The matrices of a batch are
    read-only views of one frozen array that only they reach."""
    per_batch = max(1, _DRAW_BATCH_SYMBOLS // max(1, rows * cols))
    matrices = []
    for start in range(0, len(seeds), per_batch):
        chunk = seeds[start : start + per_batch]
        draws = _residue_rows(chunk, rows * cols, spec.q)
        draws.flags.writeable = False
        for matrix in draws.reshape(-1, rows, cols):
            matrices.append(FieldMatrix._trusted(spec, matrix))
    return matrices
