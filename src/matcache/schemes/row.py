"""Row-partition structure-aware scheme.

Matrices are split into horizontal blocks over ell placement classes; user k
belongs to class mod_index(k, ell) and caches the blocks whose class subset
contains it.  A demanded product decomposes as the sum over row blocks of
block-transpose-times-block, so delivery multicasts, per transmission group
of ell consecutive users, one coded sum of compressed block products for
every (t+1)-subset (tall tier) and (t+2)-subset (short tier) of classes.
Messages are always emitted at the full padded packet length, with absent
users contributing zeros, so the broadcast cost depends only on (K, N, a, M,
ell) and not on which group slots are occupied.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, floor
from typing import Mapping, Sequence

import numpy as np

from ..compress import CompressedProduct, DimTriple, compress_product, decompress_product, f_len, packet_symbols
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
from .common import cancel, mod_index, subset_sum, subsets_of


@dataclass(frozen=True)
class RowConfig:
    """Number of placement classes ell in [1, K]."""

    ell: int


@dataclass(frozen=True)
class RowParams:
    """Derived split: t = floor(ell*M/N), alpha = t + 1 - ell*M/N in (0, 1].

    The tall tier holds the first alpha*s rows in C(ell, t) blocks of height
    h1; the short tier holds the rest in C(ell, t+1) blocks of height h2
    (absent when alpha = 1).
    """

    ell: int
    t: int
    alpha: Fraction
    h1: Fraction
    h2: Fraction


def row_params(instance: ProblemInstance, ell: int) -> RowParams:
    x = Fraction(ell) * instance.M / instance.N
    t = floor(x)
    alpha = t + 1 - x
    h1 = alpha * instance.s / comb(ell, t)
    h2 = (1 - alpha) * instance.s / comb(ell, t + 1) if alpha < 1 else Fraction(0)
    return RowParams(ell, t, alpha, h1, h2)


def validate(instance: ProblemInstance, config: RowConfig) -> list[str]:
    ell = config.ell
    if not isinstance(ell, int) or not 1 <= ell <= instance.K:
        return [f"ell={ell} outside [1, K={instance.K}]"]
    problems = []
    for name, height in constraints(instance, config).items():
        tier = "tall" if name.startswith("alpha") else "short"
        if height.denominator != 1 or height <= 0:
            problems.append(f"{tier}-tier block height {name} = {height} is not a positive integer")
    return problems


def _block_rows(p: RowParams) -> dict[tuple[int, tuple[int, ...]], slice]:
    """Row slice of every (tier, class-subset) block; tall tier first."""
    rows: dict[tuple[int, tuple[int, ...]], slice] = {}
    offset = 0
    for tier, h, size in _tiers(p):
        for subset in subsets_of(p.ell, size - 1):
            rows[(tier, subset)] = slice(offset, offset + h)
            offset += h
    return rows


def place(
    instance: ProblemInstance, config: RowConfig, library: Sequence[FieldMatrix]
) -> CacheContents:
    p = row_params(instance, config.ell)
    rows = _block_rows(p)
    users = []
    for k in range(1, instance.K + 1):
        u = mod_index(k, p.ell)
        segments = {}
        for i, w in enumerate(library, start=1):
            for (tier, subset), row_slice in rows.items():
                if u in subset:
                    segments[("raw-rows", i, (tier, subset))] = w.data[row_slice, :]
        users.append(UserCache(segments, {}))
    return CacheContents(tuple(users))


def _tiers(p: RowParams) -> list[tuple[int, int, int]]:
    """(tier, block height, multicast subset size) for each active tier."""
    tiers = [(1, int(p.h1), p.t + 1)]
    if p.alpha < 1:
        tiers.append((2, int(p.h2), p.t + 2))
    return tiers


def _block_product(
    instance: ProblemInstance, h: int, rows1: np.ndarray, rows2: np.ndarray
) -> CompressedProduct:
    """Compressed rows1^T rows2 for two row blocks of height h."""
    prod = _matmul_mod(rows1.T, rows2, instance.field.q)
    return compress_product(FieldMatrix(instance.field, prod), h)


def deliver(
    instance: ProblemInstance,
    config: RowConfig,
    library: Sequence[FieldMatrix],
    demands: DemandVector,
) -> DeliveryTranscript:
    p = row_params(instance, config.ell)
    rows = _block_rows(p)
    q, r = instance.field.q, instance.r
    groups = -(-instance.K // p.ell)
    messages = []
    for j in range(1, groups + 1):
        for tier, h, size in _tiers(p):
            plen = f_len(DimTriple(r, h, r))
            for s_set in subsets_of(p.ell, size):
                headers = []

                def segment(u: int, block: tuple[int, ...]) -> np.ndarray | None:
                    k = (j - 1) * p.ell + u
                    if k > instance.K:  # absent users of the last group send zeros
                        return None
                    d1, d2 = demands.pair(k)
                    row_slice = rows[(tier, block)]
                    w1, w2 = library[d1 - 1].data[row_slice, :], library[d2 - 1].data[row_slice, :]
                    cp = _block_product(instance, h, w1, w2)
                    headers.append((k, ((cp.rank, cp.basis_row_indices),)))
                    return packet_symbols(cp)

                payload = subset_sum(q, plen, s_set, segment)
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
    p = row_params(instance, config.ell)
    q, r = instance.field.q, instance.r
    u = mod_index(k, p.ell)
    j = (k - 1) // p.ell + 1
    d1, d2 = demands.pair(k)
    out = np.zeros((r, r), dtype=np.int64)
    for tier, h, size in _tiers(p):
        dims = DimTriple(r, h, r)

        def peer_segment(peer_u: int, peer_block: tuple[int, ...]) -> np.ndarray | None:
            peer_k = (j - 1) * p.ell + peer_u
            if peer_k > instance.K:
                return None
            e1, e2 = demands.pair(peer_k)
            c1 = cache.get(("raw-rows", e1, (tier, peer_block)))
            c2 = cache.get(("raw-rows", e2, (tier, peer_block)))
            return packet_symbols(_block_product(instance, h, c1, c2))

        for block in subsets_of(p.ell, size - 1):
            if u in block:
                b1 = cache.get(("raw-rows", d1, (tier, block)))
                b2 = cache.get(("raw-rows", d2, (tier, block)))
                contrib = _matmul_mod(b1.T, b2, q)
            else:
                s_set = tuple(sorted(block + (u,)))
                msg = transcript.find(("row", j, s_set, tier))
                packet = cancel(q, msg.payload, u, s_set, peer_segment)
                rank, basis = msg.headers_for(k)[0]
                cp = CompressedProduct.from_packet(instance.field, dims, rank, tuple(basis), packet)
                contrib = decompress_product(cp).data
            out = (out + contrib) % q
    return FieldMatrix(instance.field, out)


def formula_load(instance: ProblemInstance, config: RowConfig) -> Fraction:
    from ..bounds import row_partition_load

    return row_partition_load(instance.K, instance.N, instance.a, instance.M, config.ell)


def constraints(instance: ProblemInstance, config: RowConfig) -> Mapping[str, Fraction]:
    p = row_params(instance, config.ell)
    out = {"alpha*s/C(ell,t)": p.h1}
    if p.alpha < 1:
        out["(1-alpha)*s/C(ell,t+1)"] = p.h2
    return out


SCHEME = Scheme("row", RowConfig, validate, place, deliver, decode, formula_load, constraints)
