"""Structure-agnostic scheme: treat every distinct product as an opaque file.

The N(N+1)/2 non-isomorphic products W_i^T W_j (i <= j) are each compressed
to exactly B symbols and handled as independent files: each file gets the MAN
split at replication t (C(K,t) equal subfiles cached by t-subsets of users),
and delivery sends one subset-sum per (t+1)-subset of users.  Nothing about
the algebraic structure of the products is exploited beyond the initial
compression.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache
from math import comb
from typing import Sequence

import numpy as np

from ..bounds import load_sa_corners
from ..compress import CompressedProduct, DimTriple, PacketHeader, compress_product, decompress_product
from ..field import FieldMatrix, mat_mul
from ..model import (
    CacheContents,
    DeliveryTranscript,
    DemandVector,
    ProblemInstance,
    Scheme,
    SchemeParameterError,
    UserCache,
    product_pairs,
)
from .common import cache_file, decode_file, man_split, multicast_file


@dataclass(frozen=True)
class AgnosticConfig:
    """Cache parameter t: each product subfile is replicated at t users."""

    t: int


def _product_packet(
    instance: ProblemInstance, library: Sequence[FieldMatrix], pair: tuple[int, int]
) -> tuple[PacketHeader, np.ndarray]:
    """The header (rank, basis rows) and the B-symbol packet of product `pair`."""
    i, j = pair
    product = mat_mul(library[i - 1].transpose(), library[j - 1])
    cp = compress_product(product, instance.s)
    return (cp.rank, cp.basis_row_indices), cp.packet


def corner_memory(instance: ProblemInstance, t: int) -> Fraction:
    """Memory (matrix units) the scheme occupies at parameter t: caching a
    t/K share of all N(N+1)/2 compressed products of B symbols each."""
    pairs = instance.N * (instance.N + 1) // 2
    return Fraction(pairs * instance.B * t, instance.K * instance.s * instance.r)


def configure(instance: ProblemInstance, t: int | None, ell: int | None) -> AgnosticConfig:
    """t as given, else the t whose corner memory is M."""
    if t is None:
        matches = [u for u in range(instance.K + 1) if corner_memory(instance, u) == instance.M]
        if not matches:
            raise SchemeParameterError(
                [
                    f"memory M={instance.M} is not an agnostic corner; pass t explicitly "
                    "or use a corner memory"
                ]
            )
        t = matches[0]
    return AgnosticConfig(t=t)


def corners(K: int, N: int, a: Fraction) -> list[tuple[Fraction, int, None]]:
    return [(c.M, t, None) for t, c in enumerate(load_sa_corners(K, N, a)) if c.M <= N]


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
    if t == 0:  # no user caches a block, so compress nothing
        return CacheContents(tuple(UserCache({}, {}) for _ in range(K)))
    headers: dict[tuple[int, int], PacketHeader] = {}
    users = [UserCache({}, {"product-headers": headers}) for _ in range(K)]
    split = man_split(K, t, instance.B)
    for pair in product_pairs(instance.N):
        headers[pair], packet = _product_packet(instance, library, pair)
        cache_file(users, split, ("product-subfile", pair), packet)
    return CacheContents(tuple(users))


def deliver(
    instance: ProblemInstance,
    config: AgnosticConfig,
    library: Sequence[FieldMatrix],
    demands: DemandVector,
) -> DeliveryTranscript:
    t, q = config.t, instance.field.q

    @cache  # users demanding the same product share one compression
    def packet_for(pair: tuple[int, int]) -> tuple[PacketHeader, np.ndarray]:
        return _product_packet(instance, library, pair)

    split = man_split(instance.K, t, instance.B)
    messages = multicast_file(q, split, ("agnostic",), lambda k: packet_for(demands.pair(k))[1])
    if t == 0:  # no cache holds the product headers, so they travel with the packet
        for i, (k,) in enumerate(message.tag[1] for message in messages):
            header = packet_for(demands.pair(k))[0]
            messages[i] = replace(messages[i], headers=((k, (header,)),))
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
    dims = DimTriple(instance.r, instance.s, instance.r)
    if t == 0:
        rank, basis = transcript.find(("agnostic", (k,))).headers_for(k)[0]
    else:
        rank, basis = cache.metadata["product-headers"][demands.pair(k)]
    split = man_split(instance.K, t, instance.B)

    def cached(user: int, subset: tuple[int, ...]) -> np.ndarray:
        return cache.get(("product-subfile", demands.pair(user), subset))

    packet = decode_file(q, k, split, ("agnostic",), transcript, cached, (instance.B,))
    packet.flags.writeable = False  # so CompressedProduct keeps it without a copy
    return decompress_product(CompressedProduct(instance.field, dims, rank, basis, packet))


def formula_load(instance: ProblemInstance, config: AgnosticConfig) -> Fraction:
    return Fraction(instance.K - config.t, config.t + 1)


SCHEME = Scheme("agnostic", configure, corners, validate, place, deliver, decode, formula_load)
