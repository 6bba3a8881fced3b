"""The MAN split every scheme places and delivers through."""

from __future__ import annotations

import dataclasses
from fractions import Fraction as F
from itertools import combinations
from math import comb, lcm

import pytest

from matcache.bounds import _split_params
from matcache.schemes.col import _layout
from matcache.schemes.common import man_split, split_widths


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
