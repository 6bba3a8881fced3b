"""Structure-agnostic scheme: treat every distinct product as an opaque file.

The N(N+1)/2 non-isomorphic products W_i^T W_j (i <= j) are each compressed
to exactly B symbols and handled as independent files: each file is split
into C(K,t) equal subfiles cached by t-subsets of users, and delivery sends
one subset-sum per (t+1)-subset of users.  Nothing about the algebraic
structure of the products is exploited beyond the initial compression.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb
from typing import Mapping, Sequence

import numpy as np

from ..compress import (
    CompressedProduct,
    DimTriple,
    compress_product,
    decompress_product,
    packet_symbols,
)
from ..field import FieldMatrix, mat_mul
from ..model import (
    CacheContents,
    DeliveryTranscript,
    DemandVector,
    Message,
    ProblemInstance,
    Scheme,
    UserCache,
)
from .common import cancel, subset_sum, subsets_of


@dataclass(frozen=True)
class AgnosticConfig:
    """Cache parameter t: each product subfile is replicated at t users."""

    t: int


def product_pairs(N: int) -> list[tuple[int, int]]:
    """All non-isomorphic product index pairs (i, j), i <= j, in lex order."""
    return [(i, j) for i in range(1, N + 1) for j in range(i, N + 1)]


def _product_packet(
    instance: ProblemInstance, library: Sequence[FieldMatrix], pair: tuple[int, int]
) -> tuple[CompressedProduct, np.ndarray]:
    i, j = pair
    product = mat_mul(library[i - 1].transpose(), library[j - 1])
    cp = compress_product(product, instance.s)
    return cp, packet_symbols(cp)


def corner_memory(instance: ProblemInstance, t: int) -> Fraction:
    """Memory (matrix units) the scheme occupies at parameter t: caching a
    t/K share of all N(N+1)/2 compressed products of B symbols each."""
    pairs = instance.N * (instance.N + 1) // 2
    return Fraction(pairs * instance.B * t, instance.K * instance.s * instance.r)


def validate(instance: ProblemInstance, config: AgnosticConfig) -> list[str]:
    problems: list[str] = []
    t, K = config.t, instance.K
    if not isinstance(t, int) or not 0 <= t <= K:
        return [f"t={t} outside [0, K={K}]"]
    splits = comb(K, t)
    if instance.B % splits != 0:
        problems.append(f"product length B={instance.B} not divisible by C(K,t)={splits}")
    corner = corner_memory(instance, t)
    if instance.M != corner:
        problems.append(
            f"memory M={instance.M} is not the t={t} corner; this scheme only "
            f"simulates corner memories (t={t} needs M={corner})"
        )
    return problems


def place(
    instance: ProblemInstance, config: AgnosticConfig, library: Sequence[FieldMatrix]
) -> CacheContents:
    t, K = config.t, instance.K
    users = [UserCache({}, {}) for _ in range(K)]
    if t == 0:
        return CacheContents(tuple(users))
    chunk = instance.B // comb(K, t)
    headers: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}
    for pair in product_pairs(instance.N):
        cp, packet = _product_packet(instance, library, pair)
        headers[pair] = (cp.rank, cp.basis_row_indices)
        for idx, subset in enumerate(subsets_of(K, t)):
            segment = packet[idx * chunk : (idx + 1) * chunk]
            for k in subset:
                users[k - 1].segments[("product-subfile", pair, subset)] = segment
    for cache in users:
        cache.metadata["product-headers"] = headers
    return CacheContents(tuple(users))


def deliver(
    instance: ProblemInstance,
    config: AgnosticConfig,
    library: Sequence[FieldMatrix],
    demands: DemandVector,
) -> DeliveryTranscript:
    t, K, q = config.t, instance.K, instance.field.q

    @cache  # users demanding the same product share one compression
    def packet_for(pair: tuple[int, int]) -> tuple[CompressedProduct, np.ndarray]:
        return _product_packet(instance, library, pair)

    chunk = instance.B // comb(K, t)
    t_subsets = {subset: idx for idx, subset in enumerate(subsets_of(K, t))}

    def segment(k: int, rest: tuple[int, ...]) -> np.ndarray:
        idx = t_subsets[rest]
        return packet_for(demands.pair(k))[1][idx * chunk : (idx + 1) * chunk]

    messages = []
    for s_set in subsets_of(K, t + 1):
        headers = ()
        if t == 0:  # no cache holds the product headers, so they travel with the packet
            cp, _ = packet_for(demands.pair(s_set[0]))
            headers = ((s_set[0], ((cp.rank, cp.basis_row_indices),)),)
        payload = subset_sum(q, chunk, s_set, segment)
        messages.append(Message(("agnostic", s_set), payload, headers))
    return DeliveryTranscript(tuple(messages))


def decode(
    instance: ProblemInstance,
    config: AgnosticConfig,
    k: int,
    cache: UserCache,
    transcript: DeliveryTranscript,
    demands: DemandVector,
) -> FieldMatrix:
    t, K, q = config.t, instance.K, instance.field.q
    pair = demands.pair(k)
    dims = DimTriple(instance.r, instance.s, instance.r)
    if t == 0:
        rank, basis = transcript.find(("agnostic", (k,))).headers_for(k)[0]
    else:
        rank, basis = cache.metadata["product-headers"][pair]
    chunk = instance.B // comb(K, t)

    def cached(user: int, subset: tuple[int, ...]) -> np.ndarray:
        return cache.get(("product-subfile", demands.pair(user), subset))

    packet = np.zeros(instance.B, dtype=np.int64)
    for idx, subset in enumerate(subsets_of(K, t)):
        if k in subset:
            segment = cached(k, subset)
        else:
            s_set = tuple(sorted(subset + (k,)))
            segment = cancel(q, transcript.find(("agnostic", s_set)).payload, k, s_set, cached)
        packet[idx * chunk : (idx + 1) * chunk] = segment
    cp = CompressedProduct.from_packet(instance.field, dims, rank, basis, packet)
    return decompress_product(cp)


def formula_load(instance: ProblemInstance, config: AgnosticConfig) -> Fraction:
    return Fraction(instance.K - config.t, config.t + 1)


def constraints(instance: ProblemInstance, config: AgnosticConfig) -> Mapping[str, Fraction]:
    return {"B/C(K,t)": Fraction(instance.B, comb(instance.K, config.t))}


SCHEME = Scheme("agnostic", AgnosticConfig, validate, place, deliver, decode, formula_load, constraints)
