"""Baseline structure-aware schemes.

Uncoded baseline: every user caches the first c = M*r/N columns of every
library matrix, so it can form the top-left c x c corner of any demanded
product locally; the server unicasts the remaining r^2 - c^2 raw product
entries to each user.

Multi-request baseline: each matrix is treated as a flat file of s*r symbols
placed by the MAN split at replication t (one equal chunk per t-subset of
users); delivery runs one subset-sum per (t+1)-subset for each of the two
demanded matrices, and users multiply the recovered matrices themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import comb
from typing import Sequence

import numpy as np

from ..bounds import load_R1, load_R2_corners
from ..compress import g_ratio
from ..field import FieldMatrix, _matmul_mod
from ..model import (
    CacheContents,
    DeliveryTranscript,
    DemandVector,
    Message,
    ProblemInstance,
    Scheme,
    UserCache,
)
from .common import cache_file, decode_file, man_split, multicast_file, split_widths


@dataclass(frozen=True)
class UncodedConfig:
    """No free parameters: the column count c = M*r/N is fixed by memory."""


def _cached_columns(instance: ProblemInstance) -> Fraction:
    return Fraction(instance.M * instance.r, instance.N)


def uncoded_validate(instance: ProblemInstance, config: UncodedConfig) -> list[str]:
    c = _cached_columns(instance)
    if c.denominator != 1:
        return [f"cached column count M*r/N = {c} is not an integer"]
    return []


def uncoded_place(
    instance: ProblemInstance, config: UncodedConfig, library: Sequence[FieldMatrix]
) -> CacheContents:
    c = int(_cached_columns(instance))
    segments = {("raw-cols", i, ()): w.data[:, :c] for i, w in enumerate(library, start=1) if c}
    return CacheContents(tuple(UserCache(dict(segments), {}) for _ in range(instance.K)))


def uncoded_deliver(
    instance: ProblemInstance,
    config: UncodedConfig,
    library: Sequence[FieldMatrix],
    demands: DemandVector,
) -> DeliveryTranscript:
    c, r = int(_cached_columns(instance)), instance.r
    if c >= r:
        return DeliveryTranscript(())  # every user forms its whole product from its cache
    sent = np.ones((r, r), dtype=bool)
    sent[:c, :c] = False  # row by row: the tail of each of the first c rows, then the later rows
    payloads: dict[tuple[int, int], np.ndarray] = {}  # one product per distinct demanded pair
    messages = []
    for k in range(1, instance.K + 1):
        pair = demands.pair(k)
        if pair not in payloads:
            d1, d2 = pair
            product = _matmul_mod(library[d1 - 1].data.T, library[d2 - 1].data, instance.field.q)
            payloads[pair] = product[sent]
            payloads[pair].flags.writeable = False  # so Message keeps it without a copy
        messages.append(Message(("uncoded", k), payloads[pair]))
    return DeliveryTranscript(tuple(messages))


def uncoded_decode(
    instance: ProblemInstance,
    config: UncodedConfig,
    k: int,
    cache: UserCache,
    transcript: DeliveryTranscript,
    demands: DemandVector,
) -> FieldMatrix:
    c = int(_cached_columns(instance))
    r, q = instance.r, instance.field.q
    d1, d2 = demands.pair(k)
    out = np.zeros((r, r), dtype=np.int64)
    if c > 0:
        left = cache.get(("raw-cols", d1, ()))
        right = cache.get(("raw-cols", d2, ()))
        out[:c, :c] = _matmul_mod(left.T, right, q)
    if c < r:
        sent = np.ones((r, r), dtype=bool)
        sent[:c, :c] = False
        out[sent] = transcript.find(("uncoded", k)).payload
    return FieldMatrix(instance.field, out)


def uncoded_formula_load(instance: ProblemInstance, config: UncodedConfig) -> Fraction:
    return load_R1(instance.K, instance.N, instance.a, instance.M)


@dataclass(frozen=True)
class MultiRequestConfig:
    """Replication parameter t; requires M = N*t/K exactly."""

    t: int


def multireq_configure(
    instance: ProblemInstance, t: int | None, ell: int | None
) -> MultiRequestConfig:
    """t as given, else floor(K*M/N)."""
    if t is None:
        t = int(Fraction(instance.K) * instance.M / instance.N)
    return MultiRequestConfig(t=t)


def multireq_corners(K: int, N: int, a: Fraction) -> list[tuple[Fraction, int, None]]:
    return [(c.M, t, None) for t, c in enumerate(load_R2_corners(K, N, a))]


def multireq_validate(instance: ProblemInstance, config: MultiRequestConfig) -> list[str]:
    t, K = config.t, instance.K
    if not isinstance(t, int) or not 0 <= t <= K:
        return [f"t={t} outside [0, K={K}]"]
    problems = []
    if instance.M != Fraction(instance.N * t, K):
        problems.append(f"memory M={instance.M} != N*t/K = {Fraction(instance.N * t, K)}")
    if split_widths(K, t, instance.s * instance.r)[2].denominator != 1:
        problems.append(
            f"matrix length s*r={instance.s * instance.r} not divisible by C(K,t)={comb(K, t)}"
        )
    return problems


def multireq_place(
    instance: ProblemInstance, config: MultiRequestConfig, library: Sequence[FieldMatrix]
) -> CacheContents:
    users = [UserCache({}, {}) for _ in range(instance.K)]
    split = man_split(instance.K, config.t, instance.s * instance.r)
    for i, w in enumerate(library, start=1):
        cache_file(users, split, ("raw-rows", i), w.data.reshape(-1))
    return CacheContents(tuple(users))


def multireq_deliver(
    instance: ProblemInstance,
    config: MultiRequestConfig,
    library: Sequence[FieldMatrix],
    demands: DemandVector,
) -> DeliveryTranscript:
    q = instance.field.q
    split = man_split(instance.K, config.t, instance.s * instance.r)

    def flat(slot: int, k: int) -> np.ndarray:
        return library[demands.pair(k)[slot - 1] - 1].data.reshape(-1)

    slots = [multicast_file(q, split, ("multireq", slot), partial(flat, slot)) for slot in (1, 2)]
    # Each multicast set gets slot 1's message, then slot 2's.
    return DeliveryTranscript(tuple(m for pair in zip(*slots) for m in pair))


def multireq_decode(
    instance: ProblemInstance,
    config: MultiRequestConfig,
    k: int,
    cache: UserCache,
    transcript: DeliveryTranscript,
    demands: DemandVector,
) -> FieldMatrix:
    q, s, r = instance.field.q, instance.s, instance.r
    split = man_split(instance.K, config.t, s * r)

    def cached(slot: int, user: int, subset: tuple[int, ...]) -> np.ndarray:
        return cache.get(("raw-rows", demands.pair(user)[slot - 1], subset))

    w1, w2 = (
        decode_file(q, k, split, ("multireq", slot), transcript, partial(cached, slot), (s * r,))
        for slot in (1, 2)
    )
    product = _matmul_mod(w1.reshape(s, r).T, w2.reshape(s, r), q)
    return FieldMatrix._trusted(instance.field, product)


def multireq_formula_load(instance: ProblemInstance, config: MultiRequestConfig) -> Fraction:
    a = instance.a
    return 2 * Fraction(instance.K - config.t, config.t + 1) * a / g_ratio(a, a)


UNCODED = Scheme(
    "uncoded",
    lambda instance, t, ell: UncodedConfig(),
    lambda K, N, a: [(M, None, None) for M in (Fraction(0), Fraction(N, 2), Fraction(N))],
    uncoded_validate,
    uncoded_place,
    uncoded_deliver,
    uncoded_decode,
    uncoded_formula_load,
)

MULTIREQ = Scheme(
    "multireq",
    multireq_configure,
    multireq_corners,
    multireq_validate,
    multireq_place,
    multireq_deliver,
    multireq_decode,
    multireq_formula_load,
)
