"""Structure-agnostic scheme: treat every distinct product as an opaque file.

The N(N+1)/2 non-isomorphic products W_i^T W_j (i <= j) are each compressed
to exactly B symbols and handled as independent files: each file gets the MAN
split at replication t (C(K,t) equal subfiles cached by t-subsets of users),
and delivery sends one subset-sum per (t+1)-subset of users.  Nothing about
the algebraic structure of the products is exploited beyond the initial
compression.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb
from typing import Sequence

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
    product_pairs,
)
from .common import man_split, recover, subset_sum


@dataclass(frozen=True)
class AgnosticConfig:
    """Cache parameter t: each product subfile is replicated at t users."""

    t: int


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
    split = man_split(K, t, instance.B)
    headers: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}
    for pair in product_pairs(instance.N):
        cp, packet = _product_packet(instance, library, pair)
        headers[pair] = (cp.rank, cp.basis_row_indices)
        for block in split.blocks:
            for k in block.subset:
                users[k - 1].segments[("product-subfile", pair, block.subset)] = packet[block.span]
    for cache in users:
        cache.metadata["product-headers"] = headers
    return CacheContents(tuple(users))


def deliver(
    instance: ProblemInstance,
    config: AgnosticConfig,
    library: Sequence[FieldMatrix],
    demands: DemandVector,
) -> DeliveryTranscript:
    t, q = config.t, instance.field.q

    @cache  # users demanding the same product share one compression
    def packet_for(pair: tuple[int, int]) -> tuple[CompressedProduct, np.ndarray]:
        return _product_packet(instance, library, pair)

    split = man_split(instance.K, t, instance.B)

    def segment(k: int, rest: tuple[int, ...]) -> np.ndarray:
        return packet_for(demands.pair(k))[1][split.by_subset[rest].span]

    messages = []
    for s_set, width in split.multicasts():
        headers = ()
        if t == 0:  # no cache holds the product headers, so they travel with the packet
            cp, _ = packet_for(demands.pair(s_set[0]))
            headers = ((s_set[0], ((cp.rank, cp.basis_row_indices),)),)
        payload = subset_sum(q, width, s_set, segment)
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
    t, q = config.t, instance.field.q
    pair = demands.pair(k)
    dims = DimTriple(instance.r, instance.s, instance.r)
    if t == 0:
        rank, basis = transcript.find(("agnostic", (k,))).headers_for(k)[0]
    else:
        rank, basis = cache.metadata["product-headers"][pair]
    split = man_split(instance.K, t, instance.B)

    def cached(user: int, subset: tuple[int, ...]) -> np.ndarray:
        return cache.get(("product-subfile", demands.pair(user), subset))

    def payload_for(s_set: tuple[int, ...]) -> np.ndarray:
        return transcript.find(("agnostic", s_set)).payload

    packet = np.zeros(instance.B, dtype=np.int64)
    for block, part in zip(split.blocks, recover(q, k, split.by_subset, payload_for, cached)):
        packet[block.span] = cached(k, block.subset) if part is None else part
    cp = CompressedProduct.from_packet(instance.field, dims, rank, basis, packet)
    return decompress_product(cp)


def formula_load(instance: ProblemInstance, config: AgnosticConfig) -> Fraction:
    return Fraction(instance.K - config.t, config.t + 1)


SCHEME = Scheme("agnostic", AgnosticConfig, validate, place, deliver, decode, formula_load)
