"""Closed-form memory-load tradeoffs: achievable loads of all schemes,
converse (lower) bounds, and exact lower-convex-envelope utilities.

All quantities are exact `fractions.Fraction` values.  Loads are in units of
B = f(r,s,r) = s^2 g(a,a), the symbol cost of one demanded product; memory M
is in matrix units (one unit = s*r symbols).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, floor
from typing import Iterable, Sequence

from .compress import g_ratio

Rational = int | Fraction


def comb0(n: int, k: int) -> int:
    """Binomial coefficient with the convention C(n,k)=0 outside 0<=k<=n."""
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)


@dataclass(frozen=True)
class LoadPoint:
    """One (memory, load) corner."""

    M: Fraction
    R: Fraction


class Envelope:
    """Lower convex envelope of (M, R) corner points, evaluated exactly."""

    def __init__(self, points: Iterable[LoadPoint]):
        best: dict[Fraction, Fraction] = {}
        for p in points:
            m, r = Fraction(p.M), Fraction(p.R)
            if m not in best or r < best[m]:
                best[m] = r
        if not best:
            raise ValueError("envelope needs at least one point")
        hull: list[tuple[Fraction, Fraction]] = []
        for m, r in sorted(best.items()):
            while len(hull) >= 2:
                (m1, r1), (m2, r2) = hull[-2], hull[-1]
                # pop hull[-1] when it lies on or above the chord (m1,r1)-(m,r)
                if (m2 - m1) * (r - r1) - (r2 - r1) * (m - m1) <= 0:
                    hull.pop()
                else:
                    break
            hull.append((m, r))
        self.vertices: tuple[LoadPoint, ...] = tuple(LoadPoint(m, r) for m, r in hull)
        self._ms = [v.M for v in self.vertices]

    def evaluate(self, M: Rational, clamp_right: bool = False) -> Fraction:
        """Envelope value at memory M.

        Raises ValueError outside the corner range; with clamp_right=True,
        memories beyond the largest corner return the last corner's load
        (the curve is flat there because load cannot increase with memory).
        """
        m = Fraction(M)
        if m < self._ms[0]:
            raise ValueError(f"memory {m} below smallest corner {self._ms[0]}")
        if m > self._ms[-1]:
            if clamp_right:
                return self.vertices[-1].R
            raise ValueError(f"memory {m} above largest corner {self._ms[-1]}")
        idx = bisect_right(self._ms, m)
        if idx == len(self._ms):
            return self.vertices[-1].R
        lo, hi = self.vertices[idx - 1], self.vertices[idx]
        if m == lo.M:
            return lo.R
        return lo.R + (hi.R - lo.R) * (m - lo.M) / (hi.M - lo.M)


def lower_convex_envelope(points: Iterable[LoadPoint]) -> Envelope:
    """Exact lower convex envelope of the given memory-load corners."""
    return Envelope(points)


def _check_kna(K: int, N: int, a: Rational) -> Fraction:
    if K < 1 or N < 1:
        raise ValueError(f"need K >= 1 and N >= 1, got K={K} N={N}")
    af = Fraction(a)
    if af <= 0:
        raise ValueError(f"aspect ratio must be positive, got {af}")
    return af


# ---------------------------------------------------------------------------
# Achievable loads


def load_sa_corners(K: int, N: int, a: Rational) -> list[LoadPoint]:
    """Corners of the structure-agnostic scheme: treat the N(N+1)/2 distinct
    products as independent files of B symbols each and cache/deliver them
    with the classic subset-sum multicast scheme."""
    af = _check_kna(K, N, a)
    g = g_ratio(af, af)
    files = Fraction(N * (N + 1), 2)
    return [
        LoadPoint(files * g / af * Fraction(t, K), Fraction(K - t, t + 1))
        for t in range(K + 1)
    ]


def load_sa(K: int, N: int, a: Rational, M: Rational) -> Fraction:
    """Structure-agnostic envelope load at memory M (flat at zero once every
    product fits in the cache)."""
    return Envelope(load_sa_corners(K, N, a)).evaluate(M, clamp_right=True)


def load_R1(K: int, N: int, a: Rational, M: Rational) -> Fraction:
    """Uncoded-caching baseline: cache the first M*r/N columns of every
    matrix, unicast the remaining product entries."""
    af = _check_kna(K, N, a)
    m = Fraction(M)
    if not 0 <= m <= N:
        raise ValueError(f"memory {m} outside [0, N]")
    return K * (1 - m * m / (N * N)) * af * af / g_ratio(af, af)


def load_R2_corners(K: int, N: int, a: Rational) -> list[LoadPoint]:
    """Corners of the multi-request baseline: recover both demanded matrices
    via two subset-sum multicast rounds, then multiply locally."""
    af = _check_kna(K, N, a)
    g = g_ratio(af, af)
    return [
        LoadPoint(Fraction(N * t, K), 2 * Fraction(K - t, t + 1) * af / g)
        for t in range(K + 1)
    ]


def load_R2(K: int, N: int, a: Rational, M: Rational) -> Fraction:
    """Multi-request baseline envelope load at memory M."""
    return Envelope(load_R2_corners(K, N, a)).evaluate(M)


def _split_params(units: int, M: Rational, N: int) -> tuple[int, Fraction]:
    """(t, alpha) for a two-tier split: t = floor(units*M/N) copies on a
    fraction alpha of each matrix, t+1 copies on the rest."""
    ratio = Fraction(units) * Fraction(M) / N
    t = floor(ratio)
    return t, t + 1 - ratio


@lru_cache(maxsize=1024)  # a closed form: every run of a cell asks for the same value
def row_partition_load(K: int, N: int, a: Rational, M: Rational, ell: int) -> Fraction:
    """Load of the row-partition scheme with ell placement classes."""
    af = _check_kna(K, N, a)
    if not 1 <= ell <= K:
        raise ValueError(f"ell={ell} outside [1, K={K}]")
    m = Fraction(M)
    if not 0 <= m <= N:
        raise ValueError(f"memory {m} outside [0, N]")
    t, alpha = _split_params(ell, m, N)
    groups = -(-K // ell)
    total = Fraction(0)
    c_t = comb0(ell, t)
    c_t1 = comb0(ell, t + 1)
    c_t2 = comb0(ell, t + 2)
    if alpha > 0 and c_t1 > 0:
        arg = af * c_t / alpha
        total += c_t1 * g_ratio(arg, arg) * (alpha / c_t) ** 2
    if alpha < 1 and c_t2 > 0:
        arg = af * c_t1 / (1 - alpha)
        total += c_t2 * g_ratio(arg, arg) * ((1 - alpha) / c_t1) ** 2
    return groups * total / g_ratio(af, af)


def load_Rrow(K: int, N: int, a: Rational, M: Rational) -> tuple[Fraction, int]:
    """Best row-partition load and its class count: min over ell in [1..K],
    ties resolved toward the smaller ell."""
    best_load: Fraction | None = None
    best_ell = 1
    for ell in range(1, K + 1):
        load = row_partition_load(K, N, a, M, ell)
        if best_load is None or load < best_load:
            best_load, best_ell = load, ell
    assert best_load is not None
    return best_load, best_ell


def f_group_fraction(K: int, t: int, alpha: Rational, i: int) -> Fraction:
    """Per-user coded-symbol group length at overlap size i for the
    column-partition scheme, as a fraction of (a*s)^2.

    Counts ordered column-block pairs (T1, T2) with |T1 cap T2| = i over the
    two-tier subset partition (fraction alpha split over t-subsets, the rest
    over (t+1)-subsets), weighted by the product of the block widths.
    """
    al = Fraction(alpha)
    if not 0 <= al <= 1:
        raise ValueError(f"alpha={al} outside [0, 1]")
    c_t = comb0(K, t)
    c_t1 = comb0(K, t + 1)
    total = Fraction(0)
    if al > 0 and c_t > 0:
        total += (al / c_t) ** 2 * comb0(K - i, t - i) * comb0(K - t, t - i)
    if al < 1 and c_t1 > 0:
        total += ((1 - al) / c_t1) ** 2 * comb0(K - i, t + 1 - i) * comb0(K - t - 1, t + 1 - i)
    if 0 < al < 1 and c_t > 0 and c_t1 > 0:
        total += 2 * al * (1 - al) / (c_t * c_t1) * comb0(K - i, t - i) * comb0(K - t, t + 1 - i)
    return total


def col_y(K: int, t: int, alpha: Rational) -> Fraction:
    """Aggregate group-length sum y = sum_i C(K,i+1) f_i driving the
    column-partition load."""
    return sum(
        (comb0(K, i + 1) * f_group_fraction(K, t, alpha, i) for i in range(t + 2)),
        Fraction(0),
    )


@lru_cache(maxsize=1024)  # a closed form: every run of a cell asks for the same value
def load_Rcol(K: int, N: int, a: Rational, M: Rational) -> Fraction:
    """Column-partition scheme load at memory M."""
    af = _check_kna(K, N, a)
    m = Fraction(M)
    if not 0 <= m <= N:
        raise ValueError(f"memory {m} outside [0, N]")
    t, alpha = _split_params(K, m, N)
    y = col_y(K, t, alpha)
    if af <= 1:
        return y
    extra = 2 * (af - 1) * (
        alpha * Fraction(K - t, t + 1) + (1 - alpha) * Fraction(K - t - 1, t + 2)
    )
    return (y + extra) / (2 * af - 1)


# ---------------------------------------------------------------------------
# Converse (lower) bounds


def cutset_bound(K: int, N: int, a: Rational, M: Rational) -> Fraction:
    """Cut-set lower bound on the optimal load: serve b users with disjoint
    demanded products drawn from floor(N/2) disjoint index pairs."""
    af = _check_kna(K, N, a)
    n_pairs = N // 2
    if n_pairs < 1:
        raise ValueError("cut-set bound needs N >= 2")
    m = Fraction(M)
    ratio = m / n_pairs * af / g_ratio(af, af)
    best = max(b - b * b * ratio for b in range(1, min(n_pairs, K) + 1))
    return max(best, Fraction(0))


def genie_converse_corners(K: int, N: int, a: Rational) -> list[LoadPoint]:
    """Corners of the genie-aided lower bound for uncoded placement.

    Valid only for a >= 1 and N >= 2K (a genie hands each user one of its two
    demanded matrices, reducing delivery to single-item retrieval).
    """
    af = _check_kna(K, N, a)
    if af < 1 or N < 2 * K:
        raise ValueError(f"genie bound requires a >= 1 and N >= 2K, got a={af} N={N} K={K}")
    return [
        LoadPoint(Fraction(N * t, K), Fraction(K - t, t + 1) * af / (2 * af - 1))
        for t in range(K + 1)
    ]


def genie_converse(K: int, N: int, a: Rational, M: Rational) -> Fraction:
    """Genie-aided envelope lower bound at memory M (a >= 1, N >= 2K only)."""
    return Envelope(genie_converse_corners(K, N, a)).evaluate(M)


def trivial_bounds(K: int, N: int, a: Rational) -> tuple[Fraction, Fraction]:
    """(M_zero, R_cap): memory beyond which zero load is trivially achievable
    (cache the whole library or every distinct product), and the load ceiling
    at any memory (unicast every distinct demanded product, or broadcast the
    raw library)."""
    af = _check_kna(K, N, a)
    g = g_ratio(af, af)
    products = Fraction(N * (N + 1), 2)
    m_zero = min(Fraction(N), products * g / af)
    r_cap = min(Fraction(K), products, N * af / g)
    return m_zero, r_cap
