"""Output check made apart from the program under test.

Each run of `harness.run_cell` is checked against values computed here
without `matcache.field`, `matcache.compress` or `matcache.bounds`:

- every user's decoded matrix against W_{d1}^T W_{d2} from the run's own
  library, in Python-int arithmetic (numpy object arrays), directly for small
  operands and by Freivalds' test with enough random vectors that a wrong
  product passes with probability below 2^-40;
- every user's cache, recounted, against floor(M*s*r);
- the load, recounted as payload symbols / f(r, s, r);
- the load against the closed forms of `agnostic`, `uncoded` and `multireq`,
  and against the paper's worked example for `row` and `col`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import ceil, log2

import numpy as np

# Below this many multiply-adds (r*s*r) a user's product is recomputed in full.
DIRECT_LIMIT = 20_000
MISS_BITS = 40

# Loads of the paper's worked example (K=4, N=20, M=10, a=1/2), keyed by
# (scheme, ell); the loads are in units of B and hold at every scale of (s, r).
PAPER_POINT = (4, 20, Fraction(10), Fraction(1, 2))
PAPER_LOADS = {
    ("row", 1): Fraction(4),
    ("row", 2): Fraction(2),
    ("row", 3): Fraction(40, 9),
    ("row", 4): Fraction(20, 9),
    ("col", None): Fraction(16, 9),
}


def f_len(m: int, n: int, p: int) -> int:
    """Symbols of an m x p product with inner dimension n (the paper's f)."""
    if min(m, p) >= n:
        return (m + p - n) * n
    return m * p


def closed_form_load(scheme: str, K: int, N: int, s: int, r: int, M: Fraction, t: int | None):
    """Restated closed-form load in units of B, or None for row and col."""
    B = f_len(r, s, r)
    if scheme == "agnostic":
        return Fraction(K - t, t + 1)
    if scheme == "uncoded":
        c = M * r / N
        return K * (r * r - c * c) / B
    if scheme == "multireq":
        return 2 * Fraction(K - t, t + 1) * s * r / B
    return None


def freivalds_vectors(q: int) -> int:
    """Vectors needed so a wrong product passes with probability < 2^-40:
    each uniform vector misses a nonzero difference with probability <= 1/q."""
    return ceil(MISS_BITS / log2(q))


def product_matches(w1: np.ndarray, w2: np.ndarray, decoded: np.ndarray, q: int, rng: random.Random) -> bool:
    """Whether decoded == w1^T w2 over GF(q)."""
    r1, r2 = w1.shape[1], w2.shape[1]
    if decoded.shape != (r1, r2):
        return False
    w1, w2, decoded = w1.astype(object), w2.astype(object), decoded.astype(object)  # Python ints
    if r1 * w1.shape[0] * r2 <= DIRECT_LIMIT:
        return bool(np.array_equal(w1.T.dot(w2) % q, decoded % q))
    x = np.array([[rng.randrange(q) for _ in range(freivalds_vectors(q))] for _ in range(r2)], dtype=object)
    return bool(np.array_equal(w1.T.dot(w2.dot(x) % q) % q, decoded.dot(x) % q))


def check_run(report: dict, result, rng: random.Random) -> tuple[list[str], dict[str, int]]:
    """Problems found in one run (empty when it is right) and its counts."""
    inst = result.instance
    K, N, s, r, q, M = inst.K, inst.N, inst.s, inst.r, inst.field.q, inst.M
    problems = []

    if len(result.library) != N or any(w.data.shape != (s, r) for w in result.library):
        problems.append("library shape")
    if len(result.decoded) != K:
        problems.append(f"{len(result.decoded)} decoded matrices for {K} users")
    else:
        for k, ((d1, d2), out) in enumerate(zip(result.demands.pairs, result.decoded), start=1):
            w1, w2 = result.library[d1 - 1].data, result.library[d2 - 1].data
            if not product_matches(w1, w2, out.data, q, rng):
                problems.append(f"user {k}: decoded W{d1}^T W{d2} is wrong")

    budget = M.numerator * s * r // M.denominator
    cache_symbols = [sum(seg.size for seg in user.segments.values()) for user in result.cache.users]
    for k, total in enumerate(cache_symbols, start=1):
        if total > budget:
            problems.append(f"user {k}: cache {total} symbols > floor(M*s*r) = {budget}")

    payload = sum(m.payload.size for m in result.transcript.messages)
    load = Fraction(payload, f_len(r, s, r))
    if load != result.report.load or Fraction(report["load"]) != load:
        problems.append(f"load {report['load']} != recount {load}")
    if Fraction(report["formula_load"]) != load:
        problems.append(f"formula_load {report['formula_load']} != recount {load}")
    config = report["config"]
    expected = closed_form_load(report["scheme"], K, N, s, r, M, config.get("t"))
    if expected is not None and expected != load:
        problems.append(f"load {load} != closed form {expected}")
    if (K, N, M, Fraction(r, s)) == PAPER_POINT:
        want = PAPER_LOADS.get((report["scheme"], config.get("ell")))
        if want is not None and want != load:
            problems.append(f"load {load} != paper value {want}")
    if report["verified"] is not True or report["payload_symbols"] != payload:
        problems.append("report disagrees with the run")

    counts = {
        "users_decoded": len(result.decoded),
        "messages": len(result.transcript.messages),
        "payload_symbols": payload,
        "header_bytes": result.transcript.total_header_bytes,
        "cache_symbols": sum(cache_symbols),
        "library_symbols": sum(w.data.size for w in result.library),
    }
    return problems, counts
