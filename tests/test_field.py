"""Prime-field primitives: deterministic sampling, linear algebra round-trips."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matcache.compress import compress_product
from matcache.field import (
    DEFAULT_FIELD,
    FieldMatrix,
    FieldSpec,
    apply_column_permutation,
    derive_seed,
    is_prime,
    leading_block_column_permutation,
    mat_mul,
    mat_rank,
    random_matrix,
    row_basis,
    solve_columns,
    uniform_residues,
)

SMALL_PRIME = FieldSpec(101)

# chi-squared critical value at p = 0.001 for 100 degrees of freedom
CHI2_CRIT_DF100_P001 = 149.449


def test_is_prime_basics():
    assert is_prime(2) and is_prime(3) and is_prime(2_147_483_647)
    assert not is_prime(1) and not is_prime(4) and not is_prime(2_147_483_646)


def test_field_spec_rejects_composite_modulus():
    with pytest.raises(ValueError):
        FieldSpec(100)


def test_inverse_multiplies_to_one():
    for x in (1, 2, 57, 100):
        assert SMALL_PRIME.inv(x) * x % SMALL_PRIME.q == 1
    with pytest.raises(ZeroDivisionError):
        SMALL_PRIME.inv(0)


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
    assert len(row_basis(a)) == rank


def test_rank_of_identity_and_zeros():
    assert mat_rank(FieldMatrix.identity(DEFAULT_FIELD, 4)) == 4
    assert mat_rank(FieldMatrix.zeros(DEFAULT_FIELD, 3, 5)) == 0


def test_row_basis_rows_span_matrix():
    a = FieldMatrix.from_rows(SMALL_PRIME, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    basis = row_basis(a)
    assert basis == [0, 2]
    sub = a.submatrix(basis, slice(None))
    coeffs = solve_columns(sub.transpose(), a.transpose()).transpose()
    assert mat_mul(coeffs, sub) == a


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
    w1 = FieldMatrix.from_rows(SMALL_PRIME, [[1, 0], [2, 0]])
    y = FieldMatrix.from_rows(SMALL_PRIME, [[0], [1]])
    with pytest.raises(ValueError):
        solve_columns(w1, y)


def test_full_rank_fraction_monte_carlo():
    """Random square matrices over a 31-bit field are almost surely invertible."""
    full = sum(
        mat_rank(random_matrix(DEFAULT_FIELD, 6, 6, derive_seed(31337, i))) == 6
        for i in range(100)
    )
    assert full >= 88


def test_leading_block_column_permutation_restores_invertibility():
    rows = [[0, 0, 1, 0], [0, 0, 0, 1]]
    w = FieldMatrix.from_rows(DEFAULT_FIELD, rows)
    perm = leading_block_column_permutation(w, 2)
    assert sorted(perm) == [0, 1, 2, 3]
    shuffled = apply_column_permutation(w, perm)
    assert mat_rank(shuffled.submatrix(slice(None), slice(0, 2))) == 2


@settings(deadline=None, max_examples=40)
@given(s=st.integers(1, 5), extra=st.integers(0, 4), seed=st.integers(0, 2**31))
def test_leading_block_permutation_random_matrices(s, extra, seed):
    w = random_matrix(DEFAULT_FIELD, s, s + extra, seed)
    if mat_rank(w) < s:  # needs full row rank to find s independent columns
        return
    perm = leading_block_column_permutation(w, s)
    shuffled = apply_column_permutation(w, perm)
    assert mat_rank(shuffled.submatrix(slice(None), slice(0, s))) == s


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
        a = FieldMatrix.from_rows(spec, rows)
        basis = _oracle_basis(rows, q)
        assert mat_rank(a) == _oracle_rank(rows, q) == len(basis)
        assert row_basis(a) == basis

        consistent = _python_product(rows, _random_rows(rng, q, p, 2), q, 2)
        for y_rows in (consistent, _random_rows(rng, q, m, 2)):
            expected = _oracle_solve(rows, y_rows, q)
            y = FieldMatrix.from_rows(spec, y_rows)
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
        empty = FieldMatrix.zeros(spec, m, p)
        assert mat_rank(empty) == 0
        assert row_basis(empty) == []
