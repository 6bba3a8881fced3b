"""Kernel probes: direct calls into `matcache.field` and `matcache.compress`
on operands shaped like the workloads' own.  Each probe reports the median
of a few timed repeats, in the unit its name ends with.
"""

from __future__ import annotations

import statistics
import time

from matcache.compress import compress_product, decompress_product
from matcache.field import (
    FieldMatrix,
    FieldSpec,
    derive_seed,
    mat_mul,
    mat_rank,
    random_matrix,
    solve_columns,
)

Q31 = FieldSpec((1 << 31) - 1)
Q61 = FieldSpec((1 << 61) - 1)
CTOR_BATCH = 2000


def _square(spec: FieldSpec, n: int, seed: int) -> FieldMatrix:
    return random_matrix(spec, n, n, seed)


def _product(m: int, n: int, p: int, seed: int) -> FieldMatrix:
    """An m x p product with inner dimension n, so of rank min(m, n, p)."""
    left = random_matrix(Q31, m, n, derive_seed(seed, 0))
    return mat_mul(left, random_matrix(Q31, n, p, derive_seed(seed, 1)))


def _ctor(seed: int):
    reduced = _square(Q31, 8, seed).data.copy()

    def batch() -> None:
        for _ in range(CTOR_BATCH):
            FieldMatrix(Q31, reduced)

    return batch


def _mat_mul(spec: FieldSpec, n: int):
    def factory(seed: int):
        a, b = _square(spec, n, derive_seed(seed, 0)), _square(spec, n, derive_seed(seed, 1))
        return lambda: mat_mul(a, b)

    return factory


def _rank(n: int):
    def factory(seed: int):
        a = _square(Q31, n, seed)
        return lambda: mat_rank(a)

    return factory


def _solve(seed: int):
    w1, y = _square(Q31, 128, derive_seed(seed, 0)), _square(Q31, 128, derive_seed(seed, 1))
    return lambda: solve_columns(w1, y)


def _random_matrix(seed: int):
    return lambda: random_matrix(Q31, 256, 256, seed)


def _compress(m: int, n: int):
    def factory(seed: int):
        product = _product(m, n, m, seed)
        return lambda: compress_product(product, n)

    return factory


def _decompress(seed: int):
    packed = compress_product(_product(512, 256, 512, seed), 256)
    return lambda: decompress_product(packed)


# (metric name, timed repeats, operand factory taking a seed).  The factory
# returns the call to time; the constructor probe's call makes CTOR_BATCH.
PROBES = (
    ("field.matrix_ctor_us", 5, _ctor),
    ("field.mat_mul_n64_ms", 21, _mat_mul(Q31, 64)),
    ("field.mat_mul_n256_ms", 5, _mat_mul(Q31, 256)),
    ("field.mat_mul_n512_ms", 3, _mat_mul(Q31, 512)),
    ("field.mat_mul_n128_q61_ms", 3, _mat_mul(Q61, 128)),
    ("field.rank_n256_ms", 3, _rank(256)),
    ("field.rank_n512_ms", 3, _rank(512)),
    ("field.solve_columns_n128_ms", 3, _solve),
    ("field.random_matrix_n256_ms", 11, _random_matrix),
    ("compress.compress_n8_ms", 101, _compress(8, 4)),
    ("compress.compress_r256_h32_ms", 3, _compress(256, 32)),
    ("compress.compress_n512_rank256_ms", 3, _compress(512, 256)),
    ("compress.decompress_n512_rank256_ms", 3, _decompress),
)


def unit(name: str) -> str:
    return name.rsplit("_", 1)[1]


def run_probes(seed: int) -> dict[str, float]:
    """Every probe's median time, in the unit its name ends with."""
    scale = {"us": 1e6 / CTOR_BATCH, "ms": 1e3}  # only the constructor probe is in us
    values = {}
    for index, (name, reps, factory) in enumerate(PROBES):
        call = factory(derive_seed(seed, index))
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            call()
            times.append(time.perf_counter() - start)
        values[name] = statistics.median(times) * scale[unit(name)]
    return values
