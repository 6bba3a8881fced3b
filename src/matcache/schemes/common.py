"""The placement and the coded multicast every scheme is built from.

Placement is the split of Maddah-Ali and Niesen (MAN).  A replication x in
[0, n] over n users, with t = floor(x) and alpha = t + 1 - x in (0, 1], cuts
`total` positions (rows, columns or symbols) into a tall tier of C(n, t)
blocks of width alpha*total/C(n, t), one per t-subset of users, and, when
alpha < 1, a short tier of C(n, t+1) blocks of width
(1-alpha)*total/C(n, t+1), one per (t+1)-subset.  The users of a block's
subset cache it.

Delivery is the subset-sum multicast: each user subset S receives the sum over
k in S of the segment user k wants that every other member of S already
caches, segment(k, S \\ {k}).  User k decodes by cancelling its peers'
segments, which it regenerates from its own cache.  `segment(k, rest)` names a
segment by the user wanting it and the subset caching it.

A split depends only on (n, x, total), and place, deliver and every user's
decode ask for the same one, so `man_split` keeps the splits it built last;
a `ManSplit` is immutable, as every caller shares it.

When every segment is a slice of one file per user, the whole scheme is
`cache_file`, `multicast_file` and `decode_file`.  A file is an array whose
last axis the split cuts: `agnostic`'s compressed product packet, `multireq`'s
flattened matrix, and `col`'s s x (r - s) coefficient matrix.  `row` calls
`subset_sum` and `recover` directly: its segments are compressed products
of cached blocks, not slices of one file.  `col`'s cross-product grid runs
the same multicast as array code over plans of its own (see `col`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, floor
from numbers import Rational
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..model import DeliveryTranscript, Message, UnusedParameterError, UserCache

Segment = Callable[[int, tuple[int, ...]], np.ndarray | None]


def subsets_of(n: int, size: int) -> list[tuple[int, ...]]:
    """Size-subsets of {1, .., n} in lexicographic order (empty list when the
    size is out of range)."""
    if size < 0 or size > n:
        return []
    return list(combinations(range(1, n + 1), size))


@dataclass(frozen=True)
class Block:
    """The positions [offset, offset + width) cached by the users in `subset`."""

    subset: tuple[int, ...]
    offset: int
    width: int

    @property
    def span(self) -> slice:
        return slice(self.offset, self.offset + self.width)


def split_widths(n: int, x: Rational, total: int) -> tuple[int, Fraction, Fraction, Fraction]:
    """(t, alpha, tall width, short width) of the MAN split of `total`
    positions at replication x over n users; the short width is 0 when
    alpha = 1.  Either width may be fractional: the caller validates."""
    x = Fraction(x)
    t = floor(x)
    alpha = t + 1 - x
    tall = alpha * total / comb(n, t)
    short = (1 - alpha) * total / comb(n, t + 1) if alpha < 1 else Fraction(0)
    return t, alpha, tall, short


@dataclass(frozen=True)
class ManSplit:
    """Blocks covering [0, total) in order: the tall tier, then the short
    tier, each in lexicographic subset order, of the given `widths`.
    `by_subset`, a read-only mapping, finds a block by its user subset and
    iterates the subsets in block order.  (n, t, total, widths) fix the
    blocks, so splits compare and hash by those four alone: a split is a
    cheap cache key."""

    n: int
    t: int
    total: int
    widths: tuple[int, ...]
    blocks: tuple[Block, ...] = field(compare=False)
    by_subset: Mapping[tuple[int, ...], Block] = field(compare=False)

    def multicasts(self) -> Iterator[tuple[tuple[int, ...], int]]:
        """(multicast set, segment width) tier by tier: every (t+1)-subset of
        users, then every (t+2)-subset when there is a short tier."""
        widths = {len(block.subset): block.width for block in self.blocks}
        for size, width in widths.items():
            for s_set in subsets_of(self.n, size + 1):
                yield s_set, width


@lru_cache(maxsize=512)
def man_split(n: int, x: Rational, total: int) -> ManSplit:
    """The MAN split of `total` positions at replication x over n users; the
    widths must be integers.  Callers share the result."""
    t, alpha, tall, short = split_widths(n, x, total)
    if tall.denominator != 1 or short.denominator != 1:
        raise ValueError(f"split of {total} positions at x={x} over {n} users is not integral")
    tiers = [(t, int(tall))] + ([(t + 1, int(short))] if alpha < 1 else [])
    blocks, offset = [], 0
    for size, width in tiers:
        for subset in subsets_of(n, size):
            blocks.append(Block(subset, offset, width))
            offset += width
    by_subset = MappingProxyType({block.subset: block for block in blocks})
    return ManSplit(n, t, total, tuple(width for _, width in tiers), tuple(blocks), by_subset)


def takes_none(scheme: str, **given: int | None) -> None:
    """Raise UnusedParameterError for each of `given` that is set: `scheme`
    takes none of these parameters, and dropping one unread would hide a
    mistaken cell."""
    problems = [
        f"scheme {scheme} takes no parameter {name} (got {name}={value})"
        for name, value in given.items()
        if value is not None
    ]
    if problems:
        raise UnusedParameterError(problems)


def without(members: tuple[int, ...], j: int) -> tuple[int, ...]:
    """members with its j-th entry removed, order kept."""
    return members[:j] + members[j + 1 :]


def subset_sum(q: int, length: int, s_set: tuple[int, ...], segment: Segment) -> np.ndarray:
    """Multicast payload for s_set: the sum over k in s_set of
    segment(k, s_set \\ {k}) mod q.  A segment of None (an absent user)
    contributes zeros.  Reducing after every addition keeps the sum of two
    residues below 2^63 for every q up to 2^62."""
    payload = np.zeros(length, dtype=np.int64)
    for j, k in enumerate(s_set):
        part = segment(k, without(s_set, j))
        if part is not None:
            payload = (payload + part) % q
    return payload


def recover(
    q: int,
    k: int,
    keys: Iterable[tuple[int, ...]],
    payload_for: Callable[[tuple[int, ...]], np.ndarray],
    segment: Segment,
) -> Iterator[np.ndarray | None]:
    """User k's segment for each key V, in order: None when k is in V (user k
    caches it and reads it locally), else the multicast for V + {k}, whose
    payload `payload_for` returns, minus segment(p, S \\ {p}) for every peer
    p in S = V + {k}, mod q.  Here `segment` reads user k's cache."""
    for v_set in keys:
        if k in v_set:
            yield None
            continue
        s_set = tuple(sorted(v_set + (k,)))
        payload = payload_for(s_set)
        for j, p in enumerate(s_set):
            if p != k:
                part = segment(p, without(s_set, j))
                if part is not None:
                    payload = (payload - part) % q
        yield payload


def cache_file(users: Sequence[UserCache], split: ManSplit, label: tuple, file: np.ndarray) -> None:
    """Each user in a block's subset caches file[..., block.span] as label + (subset,)."""
    for block in split.blocks:
        part = file[..., block.span]
        for k in block.subset:
            users[k - 1].segments[label + (block.subset,)] = part


def multicast_file(
    q: int, split: ManSplit, tag: tuple, file_of: Callable[[int], np.ndarray]
) -> list[Message]:
    """One message per multicast set S, in split order, tagged tag + (S,): the
    subset sum over k in S of file_of(k)[..., span(S \\ {k})], flattened."""

    def segment(k: int, rest: tuple[int, ...]) -> np.ndarray:
        return file_of(k)[..., split.by_subset[rest].span].ravel()

    messages = []
    for s_set, width in split.multicasts():
        length = file_of(s_set[0]).size // split.total * width
        messages.append(Message(tag + (s_set,), subset_sum(q, length, s_set, segment)))
    return messages


def decode_file(
    q: int,
    k: int,
    split: ManSplit,
    tag: tuple,
    transcript: DeliveryTranscript,
    cached: Segment,
    shape: tuple[int, ...],
) -> np.ndarray:
    """User k's file of `shape`: each block it caches read from
    cached(k, subset), each other block recovered from the multicast tagged
    tag + (S,).  `cached(p, subset)` reads user p's block from k's cache."""

    def payload_for(s_set: tuple[int, ...]) -> np.ndarray:
        return transcript.find(tag + (s_set,)).payload.reshape(*shape[:-1], -1)

    out = np.zeros(shape, dtype=np.int64)
    for block, part in zip(split.blocks, recover(q, k, split.by_subset, payload_for, cached)):
        out[..., block.span] = cached(k, block.subset) if part is None else part
    return out
