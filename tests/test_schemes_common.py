"""The MAN split every scheme places and delivers through."""

from __future__ import annotations

import dataclasses
from fractions import Fraction as F
from itertools import combinations
from math import comb, lcm

import numpy as np
import pytest

from matcache.bounds import _split_params
from matcache.model import DeliveryTranscript, UserCache
from matcache.schemes.col import _layout
from matcache.schemes.common import cache_file, decode_file, man_split, multicast_file, split_widths


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_man_split_blocks_and_multicasts(n):
    users = range(1, n + 1)
    for j in range(4 * n + 1):
        x = F(j, 4)
        t, alpha, tall, short = split_widths(n, x, 1)
        assert (t, alpha) == _split_params(n, x, n)
        total = 4 * lcm(comb(n, t), max(comb(n, t + 1), 1))
        split = man_split(n, x, total)
        assert split.t == t
        assert split_widths(n, x, total)[2:] == (tall * total, short * total)

        # The blocks tile [0, total) once, in order.
        ends = [0] + [b.offset + b.width for b in split.blocks]
        assert [b.offset for b in split.blocks] == ends[:-1]
        assert ends[-1] == total
        assert all(b.span == slice(b.offset, b.offset + b.width) for b in split.blocks)

        # Tall tier: the t-subsets in lexicographic order; short tier (alpha < 1): the (t+1)-subsets.
        sizes = [t] + ([t + 1] if alpha < 1 else [])
        want = [subset for size in sizes for subset in combinations(users, size)]
        assert [b.subset for b in split.blocks] == want
        assert [b.width for b in split.blocks] == [
            tall * total if len(b.subset) == t else short * total for b in split.blocks
        ]
        assert list(split.by_subset) == want

        # Multicast sets tier by tier: the (t+1)-subsets, then the (t+2)-subsets.
        casts = list(split.multicasts())
        want_casts = [
            (s_set, split.by_subset[s_set[1:]].width)
            for size in sizes
            for s_set in combinations(users, size + 1)
        ]
        assert casts == want_casts


def test_man_split_rejects_fractional_widths():
    with pytest.raises(ValueError, match="not integral"):
        man_split(3, F(1, 2), 5)


def test_a_shared_split_and_its_groups_are_read_only():
    """man_split and col's grid layout, which holds the groups, are memoized,
    so every caller holds the same objects: none of them may change."""
    split = man_split(3, F(3, 2), 12)
    assert man_split(3, F(3, 2), 12) is split
    with pytest.raises(TypeError):
        split.by_subset[(9,)] = split.blocks[0]
    with pytest.raises(TypeError):
        del split.by_subset[split.blocks[0].subset]
    with pytest.raises(dataclasses.FrozenInstanceError):
        split.blocks = ()
    layout = _layout(split, 4)
    assert _layout(man_split(3, F(3, 2), 12), 4) is layout
    for mapping in (layout.symbols, layout.pairs, layout.shapes):
        with pytest.raises(TypeError):
            mapping[(9,)] = slice(0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        layout.size = 0
    for cells in layout.shapes.values():
        for array in (cells.index, cells.offset, cells.row, cells.col, cells.holders):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1


@pytest.mark.parametrize("q", [2, 2**61 - 1])
@pytest.mark.parametrize("rows", [None, 3], ids=["1-D", "2-D"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_file_engine_decodes_every_split_exactly(n, rows, q):
    """Every MAN split over n <= 4 users, both tiers: each user caches exactly
    its blocks, one message goes to each multicast set, and every user decodes
    its demanded file from its cache and the messages."""
    rng = np.random.default_rng(n * 7 + (rows or 0))
    demand = {k: (k * 2) % (n + 1) for k in range(1, n + 1)}  # user k wants file demand[k]
    if n > 1:
        demand[n] = demand[1]  # two users want the same file
    for x in [F(t) for t in range(n + 1)] + [F(2 * t + 1, 2) for t in range(n)]:
        t = int(x)
        total = 2 * lcm(comb(n, t), max(comb(n, t + 1), 1))
        split = man_split(n, x, total)
        shape = (total,) if rows is None else (rows, total)
        files = [rng.integers(0, q, size=shape, dtype=np.int64) for _ in range(n + 1)]
        users = [UserCache({}, {}) for _ in range(n)]
        for i, file in enumerate(files):
            cache_file(users, split, ("file", i), file)
        for k, user in enumerate(users, start=1):
            mine = [b for b in split.blocks if k in b.subset]
            assert set(user.segments) == {("file", i, b.subset) for i in range(n + 1) for b in mine}
            for (_, i, subset), part in user.segments.items():
                assert np.array_equal(part, files[i][..., split.by_subset[subset].span])

        messages = multicast_file(q, split, ("m",), lambda k: files[demand[k]])
        casts = list(split.multicasts())
        assert [m.tag for m in messages] == [("m", s_set) for s_set, _ in casts]
        assert [m.payload.size for m in messages] == [(rows or 1) * w for _, w in casts]
        transcript = DeliveryTranscript(tuple(messages))
        for k, user in enumerate(users, start=1):

            def cached(p, subset, user=user):
                return user.get(("file", demand[p], subset))

            out = decode_file(q, k, split, ("m",), transcript, cached, shape)
            assert np.array_equal(out, files[demand[k]]), (n, x, k)


def test_splits_compare_and_hash_by_their_widths():
    """A split is keyed by (n, t, total, widths), which fix its blocks: a
    split rebuilt after the cache is cleared equals the first and finds the
    same col layout, and splits of another replication differ."""
    split = man_split(4, F(3, 2), 24)
    assert split.widths == (3, 2) and man_split(4, F(1), 24).widths == (6,)
    man_split.cache_clear()
    again = man_split(4, F(3, 2), 24)
    assert again is not split and again == split and hash(again) == hash(split)
    assert again.blocks == split.blocks
    assert _layout(again, 3) is _layout(split, 3)
    others = [man_split(4, F(1), 24), man_split(4, F(2), 24), man_split(5, F(3, 2), 40)]
    assert all(other != split for other in others)
