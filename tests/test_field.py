"""Prime-field primitives: deterministic sampling, linear algebra round-trips."""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import subprocess
import sys
from itertools import chain, product, repeat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matcache import field as field_mod
from matcache.compress import compress_product, compress_stack
from matcache.field import (
    DEFAULT_FIELD,
    FieldMatrix,
    FieldSpec,
    derive_seed,
    is_prime,
    mat_mul,
    mat_rank,
    random_matrix,
    solve_columns,
    spanning_column_splits,
    uniform_residues,
)

SMALL_PRIME = FieldSpec(101)
Q31 = (1 << 31) - 1
Q61 = (1 << 61) - 1

# chi-squared critical value at p = 0.001 for 100 degrees of freedom
CHI2_CRIT_DF100_P001 = 149.449


def test_is_prime_basics():
    assert is_prime(2) and is_prime(3) and is_prime(2_147_483_647)
    assert not is_prime(1) and not is_prime(4) and not is_prime(2_147_483_646)


def test_field_spec_rejects_composite_modulus():
    with pytest.raises(ValueError):
        FieldSpec(100)


def test_uniform_residues_deterministic_and_seed_sensitive():
    a = uniform_residues(12345, 256, DEFAULT_FIELD.q)
    b = uniform_residues(12345, 256, DEFAULT_FIELD.q)
    c = uniform_residues(12346, 256, DEFAULT_FIELD.q)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.min() >= 0 and a.max() < DEFAULT_FIELD.q


def test_uniform_residues_chi_squared_frozen_seed():
    """Bucket counts over GF(101) stay under the p=0.001 critical value."""
    draws = uniform_residues(777, 101 * 200, 101)
    counts = np.bincount(draws, minlength=101)
    expected = draws.size / 101
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < CHI2_CRIT_DF100_P001


def test_batched_draws_retry_rejections_entry_by_entry():
    """At q = 2^62 + 1 a quarter of all raw draws is rejected, many more
    than once; each row of a batched draw still equals its seed's own."""
    q = (1 << 62) + 1
    seeds = [derive_seed(31, i) for i in range(6)]
    rows = field_mod._residue_rows(seeds, 500, q)
    for seed, row in zip(seeds, rows):
        assert np.array_equal(row, uniform_residues(seed, 500, q))
    # The retry stream as drawn before draws were batched.
    digest = hashlib.sha256(uniform_residues(7, 5000, q).tobytes()).hexdigest()
    assert digest == "9a7b82b3def2bc1db0de734fb96d036e2e316eb62f440c56734b311f8b35c60a"


def test_public_constructor_reduces_and_copies():
    spec = FieldSpec(7)
    reduced = FieldMatrix(spec, np.array([[7, -1], [15, -15]], dtype=np.int64))
    assert reduced.data.tolist() == [[0, 6], [1, 6]]
    owned = np.array([[1, 2], [3, 4]], dtype=np.int64)
    matrix = FieldMatrix(spec, owned)
    assert not np.shares_memory(matrix.data, owned) and owned.flags.writeable
    owned[0, 0] = 5
    assert matrix.data[0, 0] == 1 and not matrix.data.flags.writeable


def test_internal_results_are_read_only():
    a = random_matrix(SMALL_PRIME, 3, 4, 1)
    b = random_matrix(SMALL_PRIME, 4, 2, 2)
    for result in (a, mat_mul(a, b), a.transpose()):
        assert not result.data.flags.writeable
        with pytest.raises(ValueError):
            result.data[0, 0] = 1
    assert a.transpose().transpose() == a


def test_derive_seed_collision_free_on_grid():
    seen = {derive_seed(seed, index) for seed in range(64) for index in range(64)}
    assert len(seen) == 64 * 64


def test_random_matrix_shapes_and_determinism():
    m = random_matrix(DEFAULT_FIELD, 3, 5, seed=9)
    assert m.shape == (3, 5)
    assert m == random_matrix(DEFAULT_FIELD, 3, 5, seed=9)
    assert m != random_matrix(DEFAULT_FIELD, 3, 5, seed=10)


@settings(deadline=None, max_examples=60)
@given(
    m=st.integers(1, 5),
    n=st.integers(1, 5),
    p=st.integers(1, 5),
    k=st.integers(1, 5),
    seed=st.integers(0, 2**31),
    small=st.booleans(),
)
def test_mat_mul_associative(m, n, p, k, seed, small):
    spec = SMALL_PRIME if small else DEFAULT_FIELD
    a = random_matrix(spec, m, n, derive_seed(seed, 0))
    b = random_matrix(spec, n, p, derive_seed(seed, 1))
    c = random_matrix(spec, p, k, derive_seed(seed, 2))
    assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


@settings(deadline=None, max_examples=60)
@given(m=st.integers(1, 6), n=st.integers(1, 6), seed=st.integers(0, 2**31))
def test_transpose_reverses_products(m, n, seed):
    a = random_matrix(DEFAULT_FIELD, m, n, derive_seed(seed, 0))
    b = random_matrix(DEFAULT_FIELD, n, m, derive_seed(seed, 1))
    assert mat_mul(a, b).transpose() == mat_mul(b.transpose(), a.transpose())


@settings(deadline=None, max_examples=60)
@given(m=st.integers(1, 6), n=st.integers(1, 6), seed=st.integers(0, 2**31))
def test_rank_bounds_and_transpose_invariance(m, n, seed):
    a = random_matrix(DEFAULT_FIELD, m, n, seed)
    rank = mat_rank(a)
    assert 0 <= rank <= min(m, n)
    assert rank == mat_rank(a.transpose())
    assert compress_product(a, min(m, n)).rank == rank


def test_rank_of_identity_and_zeros():
    assert mat_rank(FieldMatrix(DEFAULT_FIELD, np.eye(4, dtype=np.int64))) == 4
    assert mat_rank(FieldMatrix(DEFAULT_FIELD, np.zeros((3, 5), dtype=np.int64))) == 0


@settings(deadline=None, max_examples=40)
@given(
    s=st.integers(1, 6),
    n=st.integers(1, 6),
    p=st.integers(1, 6),
    seed=st.integers(0, 2**31),
)
def test_solve_columns_round_trip(s, n, p, seed):
    """solve_columns recovers some Q with W1 Q = Y whenever one exists."""
    w1 = random_matrix(DEFAULT_FIELD, s, n, derive_seed(seed, 0))
    q0 = random_matrix(DEFAULT_FIELD, n, p, derive_seed(seed, 1))
    y = mat_mul(w1, q0)
    q = solve_columns(w1, y)
    assert mat_mul(w1, q) == y


def test_solve_columns_rejects_inconsistent_system():
    w1 = FieldMatrix(SMALL_PRIME, np.array([[1, 0], [2, 0]]))
    y = FieldMatrix(SMALL_PRIME, np.array([[0], [1]]))
    with pytest.raises(ValueError):
        solve_columns(w1, y)


def test_full_rank_fraction_monte_carlo():
    """Random square matrices over a 31-bit field are almost surely invertible."""
    full = sum(
        mat_rank(random_matrix(DEFAULT_FIELD, 6, 6, derive_seed(31337, i))) == 6
        for i in range(100)
    )
    assert full >= 88


def test_spanning_column_split_restores_invertibility():
    rows = [[0, 0, 1, 0], [0, 0, 0, 1]]
    w = FieldMatrix(DEFAULT_FIELD, np.array(rows))
    perm, w1, coeffs = spanning_column_splits([w], 2)[0]
    assert perm == (2, 3, 0, 1)
    assert mat_rank(w1) == 2 and w1.data.tolist() == [[1, 0], [0, 1]]
    assert mat_mul(w1, coeffs) == FieldMatrix(w.spec, w.data[:, list(perm[2:])])


def test_spanning_column_split_rejects_a_block_too_narrow_to_span():
    w = FieldMatrix(SMALL_PRIME, np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    with pytest.raises(ValueError, match="column not in span"):
        spanning_column_splits([w], 2)
    with pytest.raises(ValueError, match="exceeds matrix cols"):
        spanning_column_splits([w], 4)


@settings(deadline=None, max_examples=40)
@given(s=st.integers(1, 5), extra=st.integers(0, 4), seed=st.integers(0, 2**31))
def test_spanning_column_split_random_matrices(s, extra, seed):
    w = random_matrix(DEFAULT_FIELD, s, s + extra, seed)
    perm, w1, coeffs = spanning_column_splits([w], s)[0]
    assert sorted(perm) == list(range(s + extra))
    assert w1 == FieldMatrix(w.spec, w.data[:, list(perm[:s])])
    assert mat_rank(w1) == mat_rank(w)
    assert mat_mul(w1, coeffs) == FieldMatrix(w.spec, w.data[:, list(perm[s:])])


def _two_step_split(w: FieldMatrix, s: int) -> tuple[tuple[int, ...], FieldMatrix, FieldMatrix]:
    """The split as two eliminations: the column permutation from the pivots
    of W, then `solve_columns` on the permuted blocks."""
    col_basis = field_mod._rref(w.data, w.spec.q)[1]
    target = min(len(col_basis), s)
    if sum(c < s for c in col_basis) == target:
        perm = list(range(w.cols))
    else:
        perm = col_basis[:target] + [c for c in range(w.cols) if c not in col_basis[:target]]
    w1 = FieldMatrix(w.spec, w.data[:, perm[:s]])
    return tuple(perm), w1, solve_columns(w1, FieldMatrix(w.spec, w.data[:, perm[s:]]))


def _split_cases(q: int):
    """W = L @ R of each rank 0..s, with the leading z columns of R zeroed so
    the natural leading block is singular for z > 0.  For q < 2^31 the
    120 x 240 cases take the blocked elimination; above, where there is no
    blocked path, smaller ones keep the object-dtype loop quick."""
    rng = np.random.default_rng(q % 1009)
    hi = min(q, 1 << 62)
    small = [
        (s, r, rank, z)
        for s, r in ((1, 2), (3, 5), (4, 8), (5, 6))
        for rank in range(s + 1)
        for z in (0, 1, s)
    ]
    n = 120 if q < 1 << 31 else 24
    large = [(n, 2 * n, n, 0), (n, 2 * n, n - 1, n // 4), (n, 2 * n, n // 2, n), (n, 2 * n, 0, 0)]
    for s, r, rank, z in small + large:
        left = rng.integers(0, hi, (s, rank), dtype=np.int64)
        right = rng.integers(0, hi, (rank, r), dtype=np.int64)
        right[:, :z] = 0
        yield s, FieldMatrix(FieldSpec(q), field_mod._matmul_mod(left, right, q))


@pytest.mark.parametrize("q", [2, 3, Q31, Q61])
def test_spanning_column_split_equals_the_two_step_split(q):
    permuted = 0
    for s, w in _split_cases(q):
        perm, w1, coeffs = spanning_column_splits([w], s)[0]
        assert (perm, w1, coeffs) == _two_step_split(w, s)
        permuted += perm != tuple(range(w.cols))
    assert permuted > 0


def _spy_on_eliminations(monkeypatch) -> list[tuple[str, tuple[int, ...]]]:
    """Record the name and input shape of every `_rref` and `_eliminate_stack` call."""
    calls = []
    for name in ("_rref", "_eliminate_stack"):

        def spy(work, *args, name=name, real=getattr(field_mod, name)):
            calls.append((name, work.shape))
            return real(work, *args)

        monkeypatch.setattr(field_mod, name, spy)
    return calls


@pytest.mark.parametrize("q", [2, 3, Q31, Q61])
def test_stacked_splits_equal_the_two_step_split(q, monkeypatch):
    groups: dict[tuple[int, tuple[int, int]], list[FieldMatrix]] = {}
    for s, w in _split_cases(q):
        groups.setdefault((s, w.shape), []).append(w)
    calls = _spy_on_eliminations(monkeypatch)
    splits = {}
    for (s, shape), matrices in groups.items():
        calls.clear()
        splits[s, shape] = spanning_column_splits(matrices, s)
        if shape[1] >= field_mod._BLOCKED_MIN_COLS or len(matrices) < field_mod._STACK_MIN_ITEMS:
            assert calls == [("_rref", shape)] * len(matrices)  # wide or few: one by one
        else:
            assert calls == [("_eliminate_stack", (len(matrices), *shape))]
    monkeypatch.undo()  # the reference below runs on the real kernels
    kinds = set()
    for key, matrices in groups.items():
        s = key[0]
        assert len(splits[key]) == len(matrices)
        for w, (perm, w1, coeffs) in zip(matrices, splits[key]):
            ref_perm, ref_w1, ref_coeffs = _two_step_split(w, s)
            assert perm == ref_perm and all(type(c) is int for c in perm)
            assert w1.shape == ref_w1.shape and w1.data.tobytes() == ref_w1.data.tobytes()
            assert coeffs.shape == ref_coeffs.shape and coeffs.data.dtype == np.int64
            assert coeffs.data.tobytes() == ref_coeffs.data.tobytes()
            rank = mat_rank(w)
            kinds.add("zero" if rank == 0 else "full" if rank == min(w.shape) else "deficient")
            kinds.add("permuted" if perm != tuple(range(w.cols)) else "identity")
    assert kinds == {"zero", "full", "deficient", "permuted", "identity"}
    assert spanning_column_splits([], 3) == []


@pytest.mark.parametrize("q", [2, 3, Q31, Q61])
def test_wide_or_mixed_splits_take_rref_one_by_one(q, monkeypatch):
    spec = FieldSpec(q)
    wide = [random_matrix(spec, 2, field_mod._BLOCKED_MIN_COLS, seed) for seed in range(3)]
    narrow = [random_matrix(spec, 2, 4, seed) for seed in range(2)]
    cases = (wide, [narrow[0], wide[0], narrow[1]], narrow[:1])
    calls = _spy_on_eliminations(monkeypatch)
    splits = []
    for matrices in cases:
        calls.clear()
        splits.append(spanning_column_splits(matrices, 2))
        # One _rref_stack per shape, in the order the shapes first appear.
        shapes = list(dict.fromkeys(w.shape for w in matrices))
        assert calls == [("_rref", shape) for shape in shapes for w in matrices if w.shape == shape]
    monkeypatch.undo()  # the reference below runs on the real kernels
    for matrices, got in zip(cases, splits):
        assert got == [_two_step_split(w, 2) for w in matrices]


@pytest.mark.parametrize("q", [2, 3, Q31, Q61])
def test_splits_stack_from_the_minimum_stack_size(q, monkeypatch):
    """One matrix short of _STACK_MIN_ITEMS each takes _rref; at it they
    share one _eliminate_stack.  The splits are the same either way."""
    spec = FieldSpec(q)
    matrices = [random_matrix(spec, 3, 6, seed) for seed in range(field_mod._STACK_MIN_ITEMS)]
    calls = _spy_on_eliminations(monkeypatch)
    few = spanning_column_splits(matrices[:-1], 3)
    assert calls == [("_rref", (3, 6))] * (len(matrices) - 1)
    calls.clear()
    enough = spanning_column_splits(matrices, 3)
    assert calls == [("_eliminate_stack", (len(matrices), 3, 6))]
    assert enough[:-1] == few
    monkeypatch.undo()
    assert enough == [_two_step_split(w, 3) for w in matrices]


@pytest.mark.parametrize("q", [2, 3, Q31, Q61])
def test_mixed_splits_stack_each_shape_of_enough_matrices(q, monkeypatch):
    """A list of two fields and two shapes, interleaved: the one group of
    _STACK_MIN_ITEMS matrices shares one _eliminate_stack, the others take
    _rref, and every split is the one the matrix gets alone."""
    spec, other = FieldSpec(q), FieldSpec(5)
    stacked = [random_matrix(spec, 3, 6, seed) for seed in range(field_mod._STACK_MIN_ITEMS)]
    short = random_matrix(spec, 2, 6, 9)
    elsewhere = random_matrix(other, 3, 6, 0)
    matrices = [stacked[0], short, *stacked[1:3], elsewhere, *stacked[3:]]
    calls = _spy_on_eliminations(monkeypatch)
    splits = spanning_column_splits(matrices, 3)
    assert calls == [
        ("_eliminate_stack", (len(stacked), 3, 6)), ("_rref", (2, 6)), ("_rref", (3, 6))
    ]
    monkeypatch.undo()
    assert splits == [_two_step_split(w, 3) for w in matrices]


@pytest.mark.parametrize("q", [2, 3, Q31, Q61])
def test_stacked_splits_raise_what_the_first_failing_split_raises(q):
    spec = FieldSpec(q)
    fits = FieldMatrix(spec, np.array([[1, 0, 0], [0, 0, 0], [0, 0, 0]]))
    too_wide = FieldMatrix(spec, np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    stacked = [fits] * field_mod._STACK_MIN_ITEMS + [too_wide]
    for matrices in ([too_wide], [fits, too_wide, fits], [fits, fits, too_wide], stacked):
        with pytest.raises(ValueError, match="rank 3 exceeds block_cols 2: column not in span"):
            spanning_column_splits([too_wide], 2)
        with pytest.raises(ValueError, match="rank 3 exceeds block_cols 2: column not in span"):
            spanning_column_splits(matrices, 2)
    with pytest.raises(ValueError, match="block_cols 4 exceeds matrix cols 3"):
        spanning_column_splits([fits, fits], 4)


# ---------------------------------------------------------------------------
# The elimination kernel against a pure-Python-int oracle


def _oracle_rref(rows: list[list[int]], q: int, ncols: int) -> tuple[list[list[int]], list[int]]:
    """Textbook Gauss-Jordan over Python ints, pivoting on the first ncols columns."""
    work = [[x % q for x in row] for row in rows]
    pivots: list[int] = []
    for col in range(ncols):
        top = len(pivots)
        sel = next((i for i in range(top, len(work)) if work[i][col]), None)
        if sel is None:
            continue
        work[top], work[sel] = work[sel], work[top]
        inv = pow(work[top][col], -1, q)
        work[top] = [x * inv % q for x in work[top]]
        for i, row in enumerate(work):
            if i != top and row[col]:
                work[i] = [(x - row[col] * y) % q for x, y in zip(row, work[top])]
        pivots.append(col)
    return work, pivots


def _oracle_rank(rows: list[list[int]], q: int) -> int:
    return len(_oracle_rref(rows, q, len(rows[0]) if rows else 0)[1])


def _oracle_basis(rows: list[list[int]], q: int) -> list[int]:
    """Greedy: keep each row that raises the rank of the rows kept before it."""
    basis: list[int] = []
    for i, row in enumerate(rows):
        if _oracle_rank([rows[b] for b in basis] + [row], q) > len(basis):
            basis.append(i)
    return basis


def _oracle_solve(w1: list[list[int]], y: list[list[int]], q: int) -> list[list[int]] | None:
    """X with W1 X = Y and free variables 0, or None when Y leaves the column span."""
    n = len(w1[0])
    reduced, pivots = _oracle_rref([a + b for a, b in zip(w1, y)], q, n)
    if any(any(row[n:]) for row in reduced[len(pivots) :]):
        return None
    sol = [[0] * len(y[0]) for _ in range(n)]
    for row, col in zip(reduced, pivots):
        sol[col] = row[n:]
    return sol


def _transpose(rows: list[list[int]]) -> list[list[int]]:
    return [list(col) for col in zip(*rows)]


def _random_rows(rng: random.Random, q: int, m: int, p: int) -> list[list[int]]:
    return [[rng.randrange(q) for _ in range(p)] for _ in range(m)]


def _python_product(left: list[list[int]], right: list[list[int]], q: int, p: int) -> list[list[int]]:
    """left @ right mod q with p output columns (right may have no rows)."""
    return [[sum(a * r[j] for a, r in zip(row, right)) % q for j in range(p)] for row in left]


# (m, k, p): an m x p product with inner dimension k, so rank <= k; k = 0 is the zero matrix.
_ORACLE_SHAPES = [(1, 1, 5), (5, 1, 1), (1, 0, 4), (4, 0, 1), (3, 0, 3), (3, 3, 3), (2, 2, 5)]


@pytest.mark.parametrize("q", [2, 3, 101, 2_147_483_647, (1 << 61) - 1])
def test_elimination_kernel_matches_python_oracle(q):
    spec = FieldSpec(q)
    rng = random.Random(q)
    shapes = _ORACLE_SHAPES + [
        (m, rng.randrange(min(m, p)), p)
        for m, p in ((rng.randint(2, 7), rng.randint(2, 7)) for _ in range(12))
    ]
    for m, k, p in shapes:
        rows = _python_product(_random_rows(rng, q, m, k), _random_rows(rng, q, k, p), q, p)
        a = FieldMatrix(spec, np.array(rows))
        basis = _oracle_basis(rows, q)
        assert mat_rank(a) == _oracle_rank(rows, q) == len(basis)

        consistent = _python_product(rows, _random_rows(rng, q, p, 2), q, 2)
        for y_rows in (consistent, _random_rows(rng, q, m, 2)):
            expected = _oracle_solve(rows, y_rows, q)
            y = FieldMatrix(spec, np.array(y_rows))
            if expected is None:
                with pytest.raises(ValueError, match="column not in span"):
                    solve_columns(a, y)
            else:
                assert solve_columns(a, y).data.tolist() == expected

        cp = compress_product(a, max(k, 1))
        a1 = [rows[i] for i in basis]
        targets = [row for i, row in enumerate(rows) if i not in basis]
        a2 = _transpose(_oracle_solve(_transpose(a1), _transpose(targets), q)) if a1 and targets else []
        assert (cp.rank, cp.basis_row_indices) == (len(basis), tuple(basis))
        assert cp.payload.tolist() == [x for row in a1 + a2 for x in row]

    for m, p in ((0, 3), (3, 0), (0, 0)):
        empty = FieldMatrix(spec, np.zeros((m, p), dtype=np.int64))
        assert mat_rank(empty) == 0


# ---------------------------------------------------------------------------
# The BLAS kernels against the int64/object product and the rank-1 loop



def _object_product(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    return ((a.astype(object) @ b.astype(object)) % q).astype(np.int64)


def _inner_dims() -> list[int]:
    """n = 0, then 2^j - 1, 2^j and 2^j + 1, where bitlen(n) and so the limb width change."""
    dims = {0}
    for j in range(13):
        dims.update((2**j - 1, 2**j, 2**j + 1))
    return sorted(dims)


def _top_limb(x: int, k: int, limbs: int) -> int:
    """The top limb of x once limbs - 1 lower ones are rounded off to the
    nearest multiple of 2^k, ties to even, as np.rint does."""
    for _ in range(limbs - 1):
        x = round(x / (1 << k))  # exact: x < 2^31 and the quotient is a dyadic float
    return x


@pytest.mark.parametrize("q", [2, 3, 65521, Q31])
def test_float64_limb_bound_holds_for_every_inner_dim(q):
    """For every n up to 2^20: each dot product of n signed limbs (at most
    2^(k-1)) with n residues of magnitude beta (q >> 1 when centred, q - 1 when
    not) is at most n*beta*2^(k-1) <= 2^53; k is the widest such limb; the
    limbs cover q - 1, and so every residue; and no n takes more limbs than
    the unsigned limbs of width 53 - bitlen(q-1) - bitlen(n) did."""
    n = np.arange(1, (1 << 20) + 1, dtype=np.int64)
    plan = field_mod._limb_bits.__wrapped__  # a million distinct n would only churn the cache
    plans = chain.from_iterable(map(plan, repeat(q), n.tolist()))
    k, limbs, centred = np.fromiter(plans, dtype=np.int64, count=3 * n.size).reshape(-1, 3).T
    beta = np.where(centred, q >> 1, q - 1)
    assert (k >= 1).all()
    assert (n * beta <= (1 << 53) >> (k - 1)).all()
    assert (n * beta > (1 << 53) >> k).all()
    for width, count in set(zip(k.tolist(), limbs.tolist())):
        assert abs(_top_limb(q - 1, width, count)) <= 1 << (width - 1)
    unsigned = 53 - (q - 1).bit_length() - np.frexp(n.astype(np.float64))[1]
    assert (limbs <= -(-(q - 1).bit_length() // unsigned)).all()
    # q = 2 and 3 centre nothing: their residues fit one limb either way.
    assert centred.any() == (q == Q31)


@pytest.mark.parametrize("q", [2, 3, 65521, Q31])
def test_blas_product_matches_oracle_on_worst_case_operands(q):
    """Every entry q - 1 makes every dot product n*(q-1)^2 = n mod q as large as it gets."""
    rng = np.random.default_rng(q)
    for n in _inner_dims():
        # (16, 16) reaches the BLAS cut-over once n does; (1, 256) and (256, 1)
        # are the 1 x n and n x 1 operand shapes.
        for m, p in ((16, 16), (1, 256), (256, 1), (3, 5)):
            # With q odd, q - 1 is even and so is every sum of its products;
            # q - 2 makes the sums odd, so one that float64 rounds shows.
            for a, b in (
                (np.full((m, n), q - 1), np.full((n, p), q - 1)),
                (np.full((m, n), q - 1), np.full((n, p), max(q - 2, 1))),
                (rng.integers(0, q, (m, n)), rng.integers(0, q, (n, p))),
            ):
                expected = field_mod._matmul_mod_int64(a, b, q)
                assert np.array_equal(field_mod._matmul_mod(a, b, q), expected), (m, n, p)
                if n:
                    fast = field_mod._matmul_mod_float64(a, b, q, *field_mod._limb_bits(q, n))
                    assert np.array_equal(fast, expected), (m, n, p)
        worst = field_mod._matmul_mod(np.full((16, n), q - 1), np.full((n, 16), q - 1), q)
        assert np.all(worst == n % q)
    a, b = rng.integers(0, q, (16, 100)), rng.integers(0, q, (100, 16))
    assert np.array_equal(field_mod._matmul_mod_int64(a, b, q), _object_product(a, b, q))


def test_blas_product_past_the_int64_inner_limit():
    """n = 2^15 + 1 is too long for the int64 split; at q = 2^31 - 1 it takes
    four 8-bit limbs against centred b, where the old unsigned 6-bit limbs
    took six products."""
    n = (1 << 15) + 1
    assert field_mod._limb_bits(Q31, n) == (8, 4, True)
    rng = np.random.default_rng(7)
    for a, b in (
        (np.full((2, n), Q31 - 1), np.full((n, 3), Q31 - 1)),
        (rng.integers(0, Q31, (2, n)), rng.integers(0, Q31, (n, 3))),
    ):
        assert np.array_equal(field_mod._matmul_mod(a, b, Q31), _object_product(a, b, Q31))


def _extreme_entries(q: int, n: int) -> tuple[list[int], list[int]]:
    """Entries of a and b at the extremes of the float64 product with inner
    dimension n.  b: 0, 1, q >> 1 and (q >> 1) + 1 (the centred extremes
    +-(q >> 1)), q - 2 and q - 1.  a: q - 1, q >> 1, (q >> 1) + 1, and every
    residue whose signed k-bit limbs are all +-2^(k-1), where rounding to
    nearest meets a tie at every limb."""
    k, limbs, _ = field_mod._limb_bits(q, n)
    half = 1 << (k - 1)
    a_entries = {q - 1, q >> 1, (q >> 1) + 1}
    for signs in product((1, -1), repeat=limbs):
        value = sum(sign * half << (i * k) for i, sign in enumerate(signs))
        if 0 <= value < q:
            a_entries.add(value)
    return sorted(a_entries), sorted({0, 1, q >> 1, (q >> 1) + 1, max(q - 2, 0), q - 1})


def _odd_limbs(q: int, n: int) -> int:
    """The largest residue whose limbs are all odd: its lower limbs
    2^(k-1) - 1, its top limb odd.  Sums of n equal odd products are odd for
    odd n, so one that float64 rounds shows."""
    k, limbs, _ = field_mod._limb_bits(q, n)
    shift = (limbs - 1) * k
    low = sum(((1 << (k - 1)) - 1) << (i * k) for i in range(limbs - 1))
    top = (q - 1 - low) >> shift
    value = (top - 1 + top % 2 << shift) + low
    assert 0 < value < q
    return value


def _extreme_operands(rng, q, m, n, p, stack=()):
    """a and b filled from _extreme_entries, then a all q - 1 or all
    _odd_limbs against b all q >> 1, (q >> 1) + 1 or q - 2: each dot product
    as large as it gets, centred or not."""
    a_entries, b_entries = _extreme_entries(q, n)
    yield rng.choice(a_entries, stack + (m, n)), rng.choice(b_entries, stack + (n, p))
    for a_entry in {q - 1, _odd_limbs(q, n)}:
        for b_entry in {q >> 1, (q >> 1) + 1, max(q - 2, 0)}:
            yield np.full(stack + (m, n), a_entry), np.full(stack + (n, p), b_entry)


@pytest.mark.parametrize("q", [2, 3, 65521, Q31])
def test_blas_product_is_exact_at_the_centred_extremes(q):
    """The float64 kernel, called directly and through _matmul_mod, matches
    the int64 split for n = 2^j - 1, 2^j and 2^j + 1 up to 2^13; on stacks;
    and on transposed views, the Fortran-ordered operands every W.T caller
    passes."""
    rng = np.random.default_rng(q % 1009)
    for n in [n for n in _inner_dims() if n]:
        plan = field_mod._limb_bits(q, n)
        for a, b in _extreme_operands(rng, q, 16, n, 16):
            expected = field_mod._matmul_mod_int64(a, b, q)
            assert np.array_equal(field_mod._matmul_mod_float64(a, b, q, *plan), expected), n
            assert np.array_equal(field_mod._matmul_mod(a, b, q), expected), n
            left, right = np.ascontiguousarray(a.T).T, np.ascontiguousarray(b.T).T
            assert left.flags.f_contiguous and right.flags.f_contiguous
            assert np.array_equal(field_mod._matmul_mod_float64(left, right, q, *plan), expected), n
        # Stacks with a thin side on the right and on the left.
        for m, p in ((5, 1), (1, 5)):
            for a, b in _extreme_operands(rng, q, m, n, p, stack=(3,)):
                expected = np.stack([field_mod._matmul_mod_int64(a[i], b[i], q) for i in range(3)])
                assert np.array_equal(field_mod._matmul_mod_float64(a, b, q, *plan), expected), n


@pytest.mark.parametrize("q", [2, 3, 65521, Q31])
def test_blas_product_is_exact_at_the_centred_extremes_past_the_int64_limit(q):
    """Past the int64 split's 2^15, against the sum of its products on
    slices of the inner dimension."""
    rng = np.random.default_rng(q % 1013)
    for n in ((1 << 15) + 1, (1 << 16) + 1):
        for a, b in _extreme_operands(rng, q, 2, n, 3):
            parts = [
                field_mod._matmul_mod_int64(a[:, i : i + (1 << 15)], b[i : i + (1 << 15)], q)
                for i in range(0, n, 1 << 15)
            ]
            assert np.array_equal(field_mod._matmul_mod(a, b, q), sum(parts) % q), n


@pytest.mark.parametrize(
    "n, products", [(32, 2), (64, 2), (128, 2), (192, 2), (256, 2), (257, 3), (512, 3)]
)
def test_blas_limb_count_at_q31(n, products, monkeypatch):
    """Centring b and rounding a's limbs to nearest brings every inner
    dimension from 64 to 256 down to two BLAS products at q = 2^31 - 1, from
    three unsigned limbs; 32, 257 and 512 keep their count."""
    gemms = []
    matmul = np.matmul
    monkeypatch.setattr(np, "matmul", lambda x, y: gemms.append(x.dtype) or matmul(x, y))
    rng = np.random.default_rng(n)
    a, b = rng.integers(0, Q31, (32, n)), rng.integers(0, Q31, (n, 32))
    result = field_mod._matmul_mod(a, b, Q31)
    monkeypatch.undo()
    assert gemms == [np.float64] * products
    assert field_mod._limb_bits(Q31, n)[1] == products
    assert np.array_equal(result, field_mod._matmul_mod_int64(a, b, Q31))


def _loop_rref(data: np.ndarray, q: int, ncols: int | None = None) -> tuple[np.ndarray, list[int]]:
    """The rank-1 loop alone: the oracle of the blocked elimination."""
    work = data % q
    return work, field_mod._eliminate(work, q, work.shape[1] if ncols is None else ncols)[0]


def _same_elimination(data: np.ndarray, q: int, ncols: int | None = None) -> None:
    """Blocked and loop RREF agree on every byte a caller reads."""
    reduced, pivots = field_mod._rref(data, q, ncols)
    expected, expected_pivots = _loop_rref(data, q, ncols)
    rank = len(pivots)
    assert pivots == expected_pivots
    width = data.shape[1] if ncols is None else ncols
    residual = bool(reduced[rank:, width:].any())
    assert residual == bool(expected[rank:, width:].any())
    read = width if residual else data.shape[1]
    assert np.array_equal(reduced[:rank, :read], expected[:rank, :read])


def _product_of_rank(rng: np.random.Generator, q: int, m: int, p: int, rank: int) -> np.ndarray:
    left, right = rng.integers(0, q, (m, rank)), rng.integers(0, q, (rank, p))
    return field_mod._matmul_mod_int64(left, right, q)


def _with_pivots(rng: np.random.Generator, q: int, m: int, p: int, pivots: list[int]) -> np.ndarray:
    """An m x p matrix whose column rank profile is `pivots` (m >= len(pivots))."""
    echelon = np.zeros((len(pivots), p), dtype=np.int64)
    for i, col in enumerate(pivots):
        echelon[i, col] = 1
        echelon[i, col + 1 :] = rng.integers(0, q, p - col - 1)
        echelon[i, [c for c in pivots if c > col]] = 0
    # A lower-unitriangular left factor keeps the rows independent.
    left = np.tril(rng.integers(0, q, (m, len(pivots))), -1)
    left[np.arange(len(pivots)), np.arange(len(pivots))] = 1
    return field_mod._matmul_mod_int64(left, echelon, q)


@pytest.fixture
def blocked_spy(monkeypatch):
    calls = []
    real = field_mod._eliminate_blocked

    def spy(work, q, ncols):
        calls.append(work.shape)
        return real(work, q, ncols)

    monkeypatch.setattr(field_mod, "_eliminate_blocked", spy)
    return calls


@pytest.mark.parametrize("q", [2, 3, Q31])
def test_blocked_elimination_matches_loop(q, blocked_spy):
    rng = np.random.default_rng(q)
    b = field_mod._PANEL
    matrices = [
        _product_of_rank(rng, q, 256, 256, 32),
        _product_of_rank(rng, q, 256, 256, 128),
        rng.integers(0, q, (150, 150)),
        np.zeros((256, 256), dtype=np.int64),
        *(_product_of_rank(rng, q, 150, 150, rank) for rank in (b - 1, b, b + 1)),
        _with_pivots(rng, q, 150, 160, [0, b - 1, b, b + 1, 2 * b - 1, 2 * b, 3 * b + 5, 159]),
        _with_pivots(rng, q, 200, 150, list(range(b - 3, 2 * b + 3)) + [149]),
    ]
    for data in matrices:
        _same_elimination(data, q)
        _same_elimination(np.ascontiguousarray(data.T), q)
    assert len(blocked_spy) == 2 * len(matrices)
    straddling = _with_pivots(rng, q, 150, 160, [b - 1, b, 3 * b + 5])
    assert field_mod._rref(straddling, q)[1] == [b - 1, b, 3 * b + 5]


@pytest.mark.parametrize("q", [2, 3, Q31])
def test_blocked_solve_columns_matches_loop(q, blocked_spy, monkeypatch):
    spec = FieldSpec(q)
    rng = np.random.default_rng(q + 1)
    w1 = _product_of_rank(rng, q, 200, 120, 40)
    consistent = field_mod._matmul_mod_int64(w1, rng.integers(0, q, (120, 8)), q)
    inconsistent = consistent.copy()
    inconsistent[:, 3] = rng.integers(0, q, 200)
    for y in (consistent, inconsistent):
        _same_elimination(np.concatenate([w1, y], axis=1), q, ncols=120)
    assert blocked_spy

    def solved(y: np.ndarray) -> np.ndarray:
        return solve_columns(FieldMatrix(spec, w1), FieldMatrix(spec, y)).data

    fast = solved(consistent)
    with pytest.raises(ValueError, match="column not in span"):
        solved(inconsistent)
    monkeypatch.setattr(field_mod, "_BLOCKED_MIN_COLS", 1 << 62)  # the loop alone
    assert np.array_equal(solved(consistent), fast)
    with pytest.raises(ValueError, match="column not in span"):
        solved(inconsistent)


@pytest.mark.parametrize("q", [2, 3, Q31])
def test_blocked_compress_product_bytes_match_loop(q, blocked_spy, monkeypatch):
    """The row scheme compresses 256 x 256 products with inner dimension 32."""
    spec = FieldSpec(q)
    rng = np.random.default_rng(q + 2)
    products = [FieldMatrix(spec, _product_of_rank(rng, q, 256, 256, inner)) for inner in (32, 128)]
    fast = [compress_product(product, inner) for product, inner in zip(products, (32, 128))]
    assert len(blocked_spy) == len(products)
    monkeypatch.setattr(field_mod, "_BLOCKED_MIN_COLS", 1 << 62)
    slow = [compress_product(product, inner) for product, inner in zip(products, (32, 128))]
    for got, expected in zip(fast, slow):
        assert (got.rank, got.basis_row_indices) == (expected.rank, expected.basis_row_indices)
        assert got.payload.tobytes() == expected.payload.tobytes()


@pytest.mark.parametrize("q", [2, 3, Q31])
def test_wide_compress_stack_takes_the_blocked_path_item_by_item(q, blocked_spy, monkeypatch):
    """Stacks of 2 and 5 products of 120 x 120, wider than _BLOCKED_MIN_COLS:
    each item takes the blocked elimination, and the packets and headers
    equal compress_product's and those of the rank-1 loop, stacked or not."""
    rng = np.random.default_rng(q + 3)
    spec = FieldSpec(q)
    for b in (2, 5):
        stack = np.array([_product_of_rank(rng, q, 120, 120, 24 + 8 * i) for i in range(b)])
        blocked_spy.clear()
        packets, headers = compress_stack(stack, 64, q)
        assert blocked_spy == [(120, 120)] * b
        singles = [compress_product(FieldMatrix(spec, item), 64) for item in stack]
        assert packets.tobytes() == b"".join(cp.packet.tobytes() for cp in singles)
        assert headers == [(cp.rank, cp.basis_row_indices) for cp in singles]
        with monkeypatch.context() as patch:
            patch.setattr(field_mod, "_BLOCKED_MIN_COLS", 1 << 62)  # the loop, stacked at b = 5
            loop_packets, loop_headers = compress_stack(stack, 64, q)
        assert packets.tobytes() == loop_packets.tobytes() and headers == loop_headers


@pytest.mark.parametrize("q", [2, 3, Q31])
def test_blocked_elimination_stops_at_the_rank(q, monkeypatch):
    """A 256 x 256 rank-32 product has every pivot in its first panel; the
    seven panels after it hold none and are not eliminated."""
    calls = []
    loop = field_mod._eliminate

    def spy(work, *args):
        calls.append(work.shape)
        return loop(work, *args)

    monkeypatch.setattr(field_mod, "_eliminate", spy)
    rng = np.random.default_rng(q + 3)
    data = _with_pivots(rng, q, 256, 256, list(range(field_mod._PANEL)))
    assert field_mod._rref(data, q)[1] == list(range(field_mod._PANEL))
    # The first panel, then the inverse of its pivot block: 2 calls, not 9.
    assert calls == [(256, field_mod._PANEL), (field_mod._PANEL, 2 * field_mod._PANEL)]
    monkeypatch.undo()
    _same_elimination(data, q)


@pytest.mark.parametrize("q", [2, 3, Q31, Q61])
def test_solve_columns_reads_the_residual_past_the_rank(q):
    """W1 has rank 2 on its first two columns, so the loop stops at column 2;
    the rows below the rank still hold Y's residual past ncols."""
    spec = FieldSpec(q)
    w1 = np.zeros((5, 6), dtype=np.int64)
    w1[:, :2] = [[1, 0], [0, 1], [1, 1], [1, 0], [0, 1]]
    consistent = field_mod._matmul_mod(w1, np.arange(18, dtype=np.int64).reshape(6, 3) % q, q)
    inconsistent = consistent.copy()
    inconsistent[4, 2] = (inconsistent[4, 2] + 1) % q
    reduced, pivots = field_mod._rref(np.concatenate([w1, inconsistent], axis=1), q, ncols=6)
    assert pivots == [0, 1] and reduced[2:, 6:].any()
    with pytest.raises(ValueError, match="column not in span"):
        solve_columns(FieldMatrix(spec, w1), FieldMatrix(spec, inconsistent))
    solved = solve_columns(FieldMatrix(spec, w1), FieldMatrix(spec, consistent))
    assert solved.data.tolist() == _oracle_solve(w1.tolist(), consistent.tolist(), q)
    assert np.array_equal(field_mod._matmul_mod(w1, solved.data, q), consistent)


def test_q61_keeps_the_object_paths(monkeypatch):
    def refuse(*args):
        raise AssertionError("q = 2^61 - 1 must not reach a float64 or blocked kernel")

    monkeypatch.setattr(field_mod, "_matmul_mod_float64", refuse)
    monkeypatch.setattr(field_mod, "_eliminate_blocked", refuse)
    spec = FieldSpec(Q61)
    a = random_matrix(spec, 40, 40, 1)
    assert mat_mul(a, FieldMatrix(spec, np.eye(40, dtype=np.int64))) == a
    data = random_matrix(spec, 120, 120, 2).data
    reduced, pivots = field_mod._rref(data, Q61)
    assert reduced.dtype == object and pivots == list(range(120))


_DIGEST_SCRIPT = """
import hashlib
from matcache.compress import compress_product
from matcache.field import DEFAULT_FIELD, mat_mul, random_matrix
def product(m, n, p, seed):
    left = random_matrix(DEFAULT_FIELD, m, n, seed)
    return mat_mul(left, random_matrix(DEFAULT_FIELD, n, p, seed + 1))
print(hashlib.sha256(product(384, 192, 384, 11).data.tobytes()).hexdigest())
print(hashlib.sha256(compress_product(product(256, 32, 256, 13), 32).payload.tobytes()).hexdigest())
"""


def test_blas_kernels_agree_across_thread_counts():
    """BLAS may sum in any order with any thread count; every partial sum is exact."""
    namespace: dict = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(_DIGEST_SCRIPT, namespace)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    src = str(Path(field_mod.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    single = subprocess.run(
        [sys.executable, "-c", _DIGEST_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert single.stdout.split() == out.getvalue().split()
    assert len(single.stdout.split()) == 2


# ---------------------------------------------------------------------------
# Stacked kernels against the same kernels item by item


@pytest.mark.parametrize("q", [2, 3, Q31, Q61])
def test_stacked_product_matches_items_on_every_path(q, monkeypatch):
    calls = []
    blas = field_mod._matmul_mod_float64
    monkeypatch.setattr(
        field_mod,
        "_matmul_mod_float64",
        lambda a, b, q, *plan: calls.append(a.ndim) or blas(a, b, q, *plan),
    )
    rng = np.random.default_rng(q % 1000)
    hi = min(q, 1 << 62)
    # At q = 2^31 - 1, (2, 3, 4) and (1, 7, 1) take the int64 split, as does
    # (32, 300, 2), whose 2 columns are fewer than its 3 limbs, and
    # (16, 32, 16) float64 BLAS; q = 2 and 3 fit one limb and take BLAS at
    # every size, and q = 2^61 - 1 takes the object product on all of them.
    cases = (
        (5, 2, 3, 4), (4, 1, 7, 1), (3, 16, 32, 16), (2, 32, 300, 2), (0, 2, 3, 4), (3, 2, 0, 4)
    )
    for b, m, n, p in cases:
        left = rng.integers(0, hi, (b, m, n), dtype=np.int64)
        right = rng.integers(0, hi, (b, n, p), dtype=np.int64)
        stacked = field_mod._matmul_mod(left, right, q)
        assert stacked.shape == (b, m, p) and stacked.dtype == np.int64
        for i in range(b):
            assert np.array_equal(stacked[i], field_mod._matmul_mod(left[i], right[i], q))
            assert np.array_equal(stacked[i], _object_product(left[i], right[i], q))
    if q == Q31:
        assert calls == [3, 2, 2, 2]
    elif q == Q61:
        assert calls == []
    else:  # every stack with n > 0, then each of its items
        assert calls == [ndim for b, m, n, p in cases if n for ndim in [3] + [2] * b]


@pytest.mark.parametrize("q", [2, 3, Q31, Q61])
def test_batch_inverse_matches_pow_item_by_item(q):
    rng = np.random.default_rng(q % 991)
    for size in (1, 2, 7, 200):
        values = rng.integers(1, min(q, 1 << 62), size, dtype=np.int64).tolist()
        assert field_mod._batch_inverse(values, q) == [pow(x, -1, q) for x in values]


def _mixed_rank_stack(rng: np.random.Generator, q: int, b: int, m: int, p: int) -> np.ndarray:
    """b products m x p, item i of inner dimension i mod (min(m, p) + 1): zero
    items, rank-deficient ones and full-rank ones side by side."""
    hi = min(q, 1 << 62)
    items = []
    for i in range(b):
        k = i % (min(m, p) + 1)
        left = rng.integers(0, hi, (m, k), dtype=np.int64)
        items.append(field_mod._matmul_mod(left, rng.integers(0, hi, (k, p), dtype=np.int64), q))
    return np.array(items, dtype=np.int64).reshape(b, m, p)


@pytest.mark.parametrize("q", [2, 3, Q31, Q61])
def test_stacked_elimination_matches_loop_item_by_item(q):
    rng = np.random.default_rng(q % 997)
    for b, m, p in ((7, 1, 1), (9, 3, 5), (9, 5, 3), (11, 6, 6), (0, 3, 4), (1, 4, 4)):
        stack = _mixed_rank_stack(rng, q, b, m, p)
        work = stack.astype(object) if q > 1 << 31 else stack.copy()
        pivots = field_mod._eliminate_stack(work, q, p)
        assert pivots.shape == (b, p)
        for i in range(b):
            alone = stack[i].astype(object) if q > 1 << 31 else stack[i].copy()
            expected, _ = field_mod._eliminate(alone, q, p)
            assert np.flatnonzero(pivots[i]).tolist() == expected
            assert np.array_equal(work[i], alone)


@pytest.mark.parametrize("q", [2, 3, Q31, Q61])
def test_rref_stack_matches_rref_item_by_item(q, monkeypatch):
    """_rref_stack against _rref on each item, for stacks on both sides of
    _STACK_MIN_ITEMS and of _BLOCKED_MIN_COLS: the same pivots and
    reduced[:rank], from one _eliminate_stack exactly when there are enough
    items narrower than _BLOCKED_MIN_COLS, else from _rref on each item.
    The stack is left as it was."""
    rng = np.random.default_rng(q % 991)
    wide = field_mod._BLOCKED_MIN_COLS
    calls = _spy_on_eliminations(monkeypatch)
    for b in (0, 1, 4, 5, 13):
        for m, n in ((4, wide - 1), (4, wide), (6, 7)):
            stack = _mixed_rank_stack(rng, q, b, m, n)
            before = stack.copy()
            calls.clear()
            reduced, pivots = field_mod._rref_stack(stack, q, n)
            if b >= field_mod._STACK_MIN_ITEMS and n < wide:
                assert calls == [("_eliminate_stack", (b, m, n))]
            else:
                assert calls == [("_rref", (m, n))] * b
            assert reduced.shape == (b, m, n) and pivots.shape == (b, n) and pivots.dtype == bool
            assert np.array_equal(stack, before)
            for i in range(b):
                expected, columns = field_mod._rref(stack[i], q, n)
                assert np.flatnonzero(pivots[i]).tolist() == columns
                assert np.array_equal(reduced[i, : len(columns)], expected[: len(columns)])


@pytest.mark.parametrize("q", [2, 3, Q31, Q61])
def test_stacked_elimination_of_equal_ranks_matches_loop_item_by_item(q):
    """Stacks whose items all pivot in the same columns: full rank, where
    every column step updates the whole stack, and one rank below full,
    where the elimination stops once no item has a pivot candidate left."""
    rng = np.random.default_rng(q % 983)
    hi = min(q, 1 << 62)
    for b, m, p, k in ((6, 4, 4, 4), (5, 3, 7, 3), (7, 6, 6, 5), (5, 8, 5, 2)):
        left = rng.integers(0, hi, (b, m, k), dtype=np.int64)
        stack = field_mod._matmul_mod(left, rng.integers(0, hi, (b, k, p), dtype=np.int64), q)
        work = stack.astype(object) if q > 1 << 31 else stack.copy()
        pivots = field_mod._eliminate_stack(work, q, p)
        for i in range(b):
            alone = stack[i].astype(object) if q > 1 << 31 else stack[i].copy()
            expected, _ = field_mod._eliminate(alone, q, p)
            assert np.flatnonzero(pivots[i]).tolist() == expected
            assert np.array_equal(work[i], alone)
