"""Row-partition structure-aware scheme.

The rows of every matrix get the MAN split over ell placement classes at
replication x = ell*M/N; user k belongs to class (k - 1) mod ell + 1 and
caches the blocks whose class subset contains it.  A demanded product
decomposes as the sum over row blocks of block-transpose-times-block, so
delivery multicasts, per transmission group of ell consecutive users, one
coded sum of compressed block products for every (t+1)-subset (tall tier)
and (t+2)-subset (short tier) of classes.
Messages are always emitted at the full padded packet length, with absent
users contributing zeros, so the broadcast cost depends only on (K, N, a, M,
ell) and not on which group slots are occupied.

A block product has rank at most its height h, so the server and every
decoder compress it with `compress_factors`, which never forms a thin block
product (h at most r/4, r at least 64) as an r x r matrix, and stacks small
ones by shape.  The server compresses every segment of every multicast in
one call, and each decoder the segments of its peers that it cancels in
another; inside the run's memo the decoders find all of them.  A decoder's
output is the sum over blocks of L_i Pb_i: a cached block gives
L_i = rows1^T and Pb_i = rows2, a received one the r x rank expansion of its
header and coefficients and its basis rows (`CompressedProduct.factors`).
So every user decodes with one product of the side-by-side L blocks and the
stacked Pb blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from ..bounds import load_Rrow, row_partition_load
from ..compress import CompressedProduct, DimTriple, compress_factors, f_len
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
from .common import ManSplit, man_split, recover, split_widths, subset_sum, takes_none, without


@dataclass(frozen=True)
class RowConfig:
    """Number of placement classes ell in [1, K]."""

    ell: int


def _split(instance: ProblemInstance, ell: int) -> ManSplit:
    """The MAN split of the s rows over the ell classes at x = ell*M/N."""
    return man_split(ell, Fraction(ell) * instance.M / instance.N, instance.s)


def configure(instance: ProblemInstance, t: int | None, ell: int | None) -> RowConfig:
    """ell as given, else the class count of the best row load; no t."""
    takes_none("row", t=t)
    if ell is None:
        _, ell = load_Rrow(instance.K, instance.N, instance.a, instance.M)
    return RowConfig(ell=ell)


def corners(K: int, N: int, a: Fraction) -> list[tuple[Fraction, None, int]]:
    return [(Fraction(N * t, ell), None, ell) for ell in range(1, K + 1) for t in range(ell + 1)]


def validate(instance: ProblemInstance, config: RowConfig) -> list[str]:
    ell = config.ell
    if not isinstance(ell, int) or not 1 <= ell <= instance.K:
        return [f"ell={ell} outside [1, K={instance.K}]"]
    _, _, tall, short = split_widths(ell, Fraction(ell) * instance.M / instance.N, instance.s)
    # The short height is 0, an integer, when there is no short tier.
    heights = (("tall", "alpha*s/C(ell,t)", tall), ("short", "(1-alpha)*s/C(ell,t+1)", short))
    return [
        f"{tier}-tier block height {name} = {height} is not a positive integer"
        for tier, name, height in heights
        if height.denominator != 1
    ]


def place(
    instance: ProblemInstance, config: RowConfig, library: Sequence[FieldMatrix]
) -> CacheContents:
    split = _split(instance, config.ell)
    users = []
    for k in range(1, instance.K + 1):
        u = (k - 1) % config.ell + 1
        segments = {}
        for i, w in enumerate(library, start=1):
            for block in split.blocks:
                if u in block.subset:
                    segments[("raw-rows", i, block.subset)] = w.data[block.span, :]
        users.append(UserCache(segments, {}))
    return CacheContents(tuple(users))


def _segments(
    instance: ProblemInstance,
    demands: DemandVector,
    wanted: Sequence[tuple[int, tuple[int, ...]]],
    rows: Callable[[int, tuple[int, ...]], np.ndarray],
) -> dict[tuple[int, tuple[int, ...]], CompressedProduct]:
    """Each segment (k, subset) in `wanted`: user k's demanded block product
    over the rows of `subset`, which rows(i, subset) reads of matrix i, all
    compressed in one call."""
    factors = []
    for k, subset in wanted:
        d1, d2 = demands.pair(k)
        factors.append((rows(d1, subset), rows(d2, subset)))
    return dict(zip(wanted, compress_factors(instance.field, factors)))


def deliver(
    instance: ProblemInstance,
    config: RowConfig,
    library: Sequence[FieldMatrix],
    demands: DemandVector,
) -> DeliveryTranscript:
    ell = config.ell
    split = _split(instance, ell)
    q, r = instance.field.q, instance.r
    groups = -(-instance.K // ell)
    wanted = [
        (k, block.subset)
        for k in range(1, instance.K + 1)
        for block in split.blocks
        if (k - 1) % ell + 1 not in block.subset
    ]
    segments = _segments(
        instance, demands, wanted, lambda i, subset: library[i - 1].data[split.by_subset[subset].span]
    )
    messages = []
    for j in range(1, groups + 1):
        for s_set, h in split.multicasts():
            headers = []

            def segment(u: int, subset: tuple[int, ...]) -> np.ndarray | None:
                k = (j - 1) * ell + u
                if k > instance.K:  # absent users of the last group send zeros
                    return None
                cp = segments[k, subset]
                headers.append((k, ((cp.rank, cp.basis_row_indices),)))
                return cp.packet

            payload = subset_sum(q, f_len(DimTriple(r, h, r)), s_set, segment)
            tier = len(s_set) - split.t
            messages.append(Message(("row", j, s_set, tier), payload, tuple(headers)))
    return DeliveryTranscript(tuple(messages))


def decode(
    instance: ProblemInstance,
    config: RowConfig,
    k: int,
    cache: UserCache,
    transcript: DeliveryTranscript,
    demands: DemandVector,
) -> FieldMatrix:
    ell = config.ell
    split = _split(instance, ell)
    q, r = instance.field.q, instance.r
    u = (k - 1) % ell + 1
    j = (k - 1) // ell + 1
    first = (j - 1) * ell  # user p of group j is user first + p

    def rows(i: int, subset: tuple[int, ...]) -> np.ndarray:
        return cache.get(("raw-rows", i, subset))

    def message(s_set: tuple[int, ...]) -> Message:
        return transcript.find(("row", j, s_set, len(s_set) - split.t))

    # The segments of k's present peers in each multicast k receives, which
    # k regenerates from its own cache.
    wanted = []
    for block in split.blocks:
        if u not in block.subset:
            s_set = tuple(sorted(block.subset + (u,)))
            for index, p in enumerate(s_set):
                if p != u and first + p <= instance.K:
                    wanted.append((first + p, without(s_set, index)))
    segments = _segments(instance, demands, wanted, rows)

    def peer_segment(p: int, subset: tuple[int, ...]) -> np.ndarray | None:
        cp = segments.get((first + p, subset))
        return None if cp is None else cp.packet

    d1, d2 = demands.pair(k)
    lefts, rights = [], []
    packets = recover(q, u, split.by_subset, lambda s_set: message(s_set).payload, peer_segment)
    for block, packet in zip(split.blocks, packets):
        if packet is None:
            left, right = rows(d1, block.subset).T, rows(d2, block.subset)
        else:
            rank, basis = message(tuple(sorted(block.subset + (u,)))).headers_for(k)[0]
            packet.flags.writeable = False  # so CompressedProduct keeps it without a copy
            cp = CompressedProduct(instance.field, DimTriple(r, block.width, r), rank, basis, packet)
            left, right = cp.factors()
        lefts.append(left)
        rights.append(right)
    out = _matmul_mod(np.concatenate(lefts, axis=1), np.concatenate(rights), q)
    return FieldMatrix._trusted(instance.field, out)


def formula_load(instance: ProblemInstance, config: RowConfig) -> Fraction:
    return row_partition_load(instance.K, instance.N, instance.a, instance.M, config.ell)


SCHEME = Scheme("row", configure, corners, validate, place, deliver, decode, formula_load)
