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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from ..bounds import load_Rrow, row_partition_load
from ..compress import CompressedProduct, DimTriple, compress_product, decompress_product, f_len
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
from .common import ManSplit, man_split, recover, split_widths, subset_sum


@dataclass(frozen=True)
class RowConfig:
    """Number of placement classes ell in [1, K]."""

    ell: int


def _split(instance: ProblemInstance, ell: int) -> ManSplit:
    """The MAN split of the s rows over the ell classes at x = ell*M/N."""
    return man_split(ell, Fraction(ell) * instance.M / instance.N, instance.s)


def configure(instance: ProblemInstance, t: int | None, ell: int | None) -> RowConfig:
    """ell as given, else the class count of the best row load."""
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


def _block_product(
    instance: ProblemInstance, h: int, rows1: np.ndarray, rows2: np.ndarray
) -> CompressedProduct:
    """Compressed rows1^T rows2 for two row blocks of height h."""
    prod = _matmul_mod(rows1.T, rows2, instance.field.q)
    return compress_product(FieldMatrix._trusted(instance.field, prod), h)


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
    messages = []
    for j in range(1, groups + 1):
        for s_set, h in split.multicasts():
            headers = []

            def segment(u: int, subset: tuple[int, ...]) -> np.ndarray | None:
                k = (j - 1) * ell + u
                if k > instance.K:  # absent users of the last group send zeros
                    return None
                d1, d2 = demands.pair(k)
                span = split.by_subset[subset].span
                w1, w2 = library[d1 - 1].data[span], library[d2 - 1].data[span]
                cp = _block_product(instance, h, w1, w2)
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

    def rows(i: int, subset: tuple[int, ...]) -> np.ndarray:
        return cache.get(("raw-rows", i, subset))

    def message(s_set: tuple[int, ...]) -> Message:
        return transcript.find(("row", j, s_set, len(s_set) - split.t))

    def peer_segment(peer_u: int, subset: tuple[int, ...]) -> np.ndarray | None:
        peer_k = (j - 1) * ell + peer_u
        if peer_k > instance.K:
            return None
        e1, e2 = demands.pair(peer_k)
        h = split.by_subset[subset].width
        return _block_product(instance, h, rows(e1, subset), rows(e2, subset)).packet

    d1, d2 = demands.pair(k)
    out = np.zeros((r, r), dtype=np.int64)
    packets = recover(q, u, split.by_subset, lambda s_set: message(s_set).payload, peer_segment)
    for block, packet in zip(split.blocks, packets):
        if packet is None:
            contrib = _matmul_mod(rows(d1, block.subset).T, rows(d2, block.subset), q)
        else:
            rank, basis = message(tuple(sorted(block.subset + (u,)))).headers_for(k)[0]
            packet.flags.writeable = False  # so CompressedProduct keeps it without a copy
            cp = CompressedProduct(instance.field, DimTriple(r, block.width, r), rank, basis, packet)
            contrib = decompress_product(cp).data
        out = (out + contrib) % q
    return FieldMatrix._trusted(instance.field, out)


def formula_load(instance: ProblemInstance, config: RowConfig) -> Fraction:
    return row_partition_load(instance.K, instance.N, instance.a, instance.M, config.ell)


SCHEME = Scheme("row", configure, corners, validate, place, deliver, decode, formula_load)
