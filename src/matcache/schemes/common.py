"""Helpers shared by the caching schemes, chief among them the coded
multicast every scheme delivers through.

The subset-sum multicast of Maddah-Ali and Niesen sends, to each user subset
S, the sum over k in S of the segment user k wants that every other member of
S already caches: segment(k, S \\ {k}).  User k decodes by cancelling its
peers' segments, which it regenerates from its own cache.  `segment(k, rest)`
names a segment by the user wanting it and the subset caching it.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable

import numpy as np

Segment = Callable[[int, tuple[int, ...]], np.ndarray | None]


def subsets_of(n: int, size: int) -> list[tuple[int, ...]]:
    """Size-subsets of {1, .., n} in lexicographic order (empty list when the
    size is out of range)."""
    if size < 0 or size > n:
        return []
    return list(combinations(range(1, n + 1), size))


def mod_index(k: int, ell: int) -> int:
    """1-based residue of k modulo ell: values in [1, ell], with multiples of
    ell mapping to ell."""
    m = k % ell
    return ell if m == 0 else m


def without(s_set: tuple[int, ...], k: int) -> tuple[int, ...]:
    """s_set with k removed, order kept."""
    return tuple(u for u in s_set if u != k)


def subset_sum(q: int, length: int, s_set: tuple[int, ...], segment: Segment) -> np.ndarray:
    """Multicast payload for s_set: the sum over k in s_set of
    segment(k, s_set \\ {k}) mod q.  A segment of None (an absent user)
    contributes zeros.  Reducing after every addition keeps the sum of two
    residues below 2^63 for every q up to 2^62."""
    payload = np.zeros(length, dtype=np.int64)
    for k in s_set:
        part = segment(k, without(s_set, k))
        if part is not None:
            payload = (payload + part) % q
    return payload


def cancel(
    q: int, payload: np.ndarray, k: int, s_set: tuple[int, ...], segment: Segment
) -> np.ndarray:
    """User k's own segment out of the multicast for s_set: the payload minus
    segment(p, s_set \\ {p}) for every peer p, mod q.  Here `segment` reads
    user k's cache."""
    for p in s_set:
        if p != k:
            part = segment(p, without(s_set, p))
            if part is not None:
                payload = (payload - part) % q
    return payload
