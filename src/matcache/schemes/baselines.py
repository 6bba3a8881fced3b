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
from typing import Mapping, Sequence

import numpy as np

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
from .common import man_split, recover, split_widths, subset_sum


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
    users = []
    for _ in range(instance.K):
        segments = {}
        if c > 0:
            for i, w in enumerate(library, start=1):
                segments[("raw-cols", i, ())] = w.data[:, :c]
        users.append(UserCache(segments, {}))
    return CacheContents(tuple(users))


def _uncoded_entries(product: np.ndarray, c: int) -> np.ndarray:
    """Product entries outside the locally-computable c x c corner, in row
    order: the tail of each of the first c rows, then the full later rows."""
    parts = [product[i, c:] for i in range(c)] + [product[i, :] for i in range(c, product.shape[0])]
    if not parts:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(parts)


def uncoded_deliver(
    instance: ProblemInstance,
    config: UncodedConfig,
    library: Sequence[FieldMatrix],
    demands: DemandVector,
) -> DeliveryTranscript:
    c = int(_cached_columns(instance))
    messages = []
    for k in range(1, instance.K + 1):
        d1, d2 = demands.pair(k)
        product = _matmul_mod(library[d1 - 1].data.T, library[d2 - 1].data, instance.field.q)
        payload = _uncoded_entries(product, c)
        if payload.size:
            messages.append(Message(("uncoded", k), payload))
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
        payload = transcript.find(("uncoded", k)).payload
        pos = 0
        for i in range(c):
            out[i, c:] = payload[pos : pos + r - c]
            pos += r - c
        for i in range(c, r):
            out[i, :] = payload[pos : pos + r]
            pos += r
    return FieldMatrix(instance.field, out)


def uncoded_formula_load(instance: ProblemInstance, config: UncodedConfig) -> Fraction:
    from ..bounds import load_R1

    return load_R1(instance.K, instance.N, instance.a, instance.M)


def uncoded_constraints(
    instance: ProblemInstance, config: UncodedConfig
) -> Mapping[str, Fraction]:
    return {"M*r/N": _cached_columns(instance)}


@dataclass(frozen=True)
class MultiRequestConfig:
    """Replication parameter t; requires M = N*t/K exactly."""

    t: int


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
        flat = w.data.reshape(-1)
        for block in split.blocks:
            for k in block.subset:
                users[k - 1].segments[("raw-rows", i, block.subset)] = flat[block.span]
    return CacheContents(tuple(users))


def multireq_deliver(
    instance: ProblemInstance,
    config: MultiRequestConfig,
    library: Sequence[FieldMatrix],
    demands: DemandVector,
) -> DeliveryTranscript:
    q = instance.field.q
    split = man_split(instance.K, config.t, instance.s * instance.r)

    def segment(slot: int, k: int, rest: tuple[int, ...]) -> np.ndarray:
        flat = library[demands.pair(k)[slot - 1] - 1].data.reshape(-1)
        return flat[split.by_subset[rest].span]

    messages = []
    for s_set, width in split.multicasts():
        for slot in (1, 2):
            payload = subset_sum(q, width, s_set, partial(segment, slot))
            messages.append(Message(("multireq", slot, s_set), payload))
    return DeliveryTranscript(tuple(messages))


def multireq_decode(
    instance: ProblemInstance,
    config: MultiRequestConfig,
    k: int,
    cache: UserCache,
    transcript: DeliveryTranscript,
    demands: DemandVector,
) -> FieldMatrix:
    q = instance.field.q
    split = man_split(instance.K, config.t, instance.s * instance.r)

    def cached(slot: int, user: int, subset: tuple[int, ...]) -> np.ndarray:
        return cache.get(("raw-rows", demands.pair(user)[slot - 1], subset))

    def payload_for(slot: int, s_set: tuple[int, ...]) -> np.ndarray:
        return transcript.find(("multireq", slot, s_set)).payload

    flats = np.zeros((2, instance.s * instance.r), dtype=np.int64)
    for slot, flat in zip((1, 2), flats):
        parts = recover(q, k, split.by_subset, partial(payload_for, slot), partial(cached, slot))
        for block, part in zip(split.blocks, parts):
            flat[block.span] = cached(slot, k, block.subset) if part is None else part
    w1, w2 = flats.reshape(2, instance.s, instance.r)
    return FieldMatrix._trusted(instance.field, _matmul_mod(w1.T, w2, q))


def multireq_formula_load(instance: ProblemInstance, config: MultiRequestConfig) -> Fraction:
    from ..compress import g_ratio

    a = instance.a
    return 2 * Fraction(instance.K - config.t, config.t + 1) * a / g_ratio(a, a)


def multireq_constraints(
    instance: ProblemInstance, config: MultiRequestConfig
) -> Mapping[str, Fraction]:
    return {
        "K*M/N": Fraction(instance.K * instance.M, instance.N),
        "s*r/C(K,t)": split_widths(instance.K, config.t, instance.s * instance.r)[2],
    }


UNCODED = Scheme(
    "uncoded",
    UncodedConfig,
    uncoded_validate,
    uncoded_place,
    uncoded_deliver,
    uncoded_decode,
    uncoded_formula_load,
    uncoded_constraints,
)

MULTIREQ = Scheme(
    "multireq",
    MultiRequestConfig,
    multireq_validate,
    multireq_place,
    multireq_deliver,
    multireq_decode,
    multireq_formula_load,
    multireq_constraints,
)
