"""Column-partition structure-aware scheme.

The columns of every matrix get the MAN split over the K users at
replication x = K*M/N: vertical blocks indexed by t-subsets (wide tier) and
(t+1)-subsets (narrow tier) of users, where t = floor(K*M/N); user k caches
the blocks whose subset contains it.  A demanded product decomposes into the
grid of cross-block products block(d1, T1)^T block(d2, T2), and delivery runs
in rounds: in round i every (i+1)-subset S receives the sum over k in S of
user k's group of compressed cross products whose block subsets intersect
exactly in S \\ {k}.  Group lengths depend only on i, so the summed packets
align; zero-length groups produce no message.

The cross products run in stacks, one per block shape (w1, w2), not one
block pair at a time.  The server cuts each user's cross products out of
one product of the user's demanded columns and compresses each shape's
cells, across all K users, with one `compress_stack`.  A decoder
regenerates its K - 1 peers' groups the same way from the products of its
own cached columns, one stack per shape across all peers, and rebuilds the
groups it receives with one `decompress_stack` per shape.  Both are
byte-equal to `compress_product` and `decompress_product` item by item, so
stacking parties together changes no packet.

For wide matrices (r > s) each matrix is first column-permuted so its
leading s columns span it; those columns get the treatment above, while the
remaining r - s columns are represented by cached coefficient blocks Q with
W1 @ Q = W2, placed by their own MAN split, delivered by its plain coded
multicasts and combined locally.  One elimination of the matrix gives both
the permutation and Q.  Matrices with r <= s have no coefficient
split.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from ..compress import DimTriple, compress_stack, decompress_stack, f_len
from ..field import FieldMatrix, _matmul_mod, spanning_column_split
from ..model import (
    CacheContents,
    DeliveryTranscript,
    DemandVector,
    Message,
    PacketHeader,
    ProblemInstance,
    Scheme,
    UserCache,
)
from .common import (
    Block,
    ManSplit,
    man_split,
    recover,
    split_widths,
    subset_sum,
    subsets_of,
    without,
)

BlockGetter = Callable[[int, tuple[int, ...]], np.ndarray]
Groups = Mapping[tuple[int, ...], tuple[tuple[Block, Block], ...]]


@dataclass(frozen=True)
class ColConfig:
    """No free parameters: t = floor(K*M/N) and the tier split are derived."""


def _column_ranges(instance: ProblemInstance) -> list[tuple[str, int]]:
    """(name, column count) of each range split into blocks on its own: all r
    columns when a <= 1, else the leading s columns and the remaining r - s."""
    if instance.a <= 1:
        return [("r", instance.r)]
    return [("s", instance.s), ("(r-s)", instance.r - instance.s)]


def _splits(instance: ProblemInstance) -> tuple[ManSplit, ManSplit | None]:
    """The MAN split at x = K*M/N of the lead columns, and of the coefficient
    columns (None when r <= s, where there are none)."""
    x = Fraction(instance.K) * instance.M / instance.N
    splits = [man_split(instance.K, x, total) for _, total in _column_ranges(instance)]
    return splits[0], (splits[1] if len(splits) > 1 else None)


def intersection_groups(split: ManSplit) -> Groups:
    """Intersection set V -> the ordered block pairs whose subsets intersect
    exactly in V, row-major in split order (the canonical group ordering on
    both ends of the link).  Read-only: callers share it."""
    return _intersection_groups(split.blocks)


@lru_cache(maxsize=256)
def _intersection_groups(blocks: tuple[Block, ...]) -> Groups:
    groups: dict[tuple[int, ...], list[tuple[Block, Block]]] = {}
    for b1 in blocks:
        for b2 in blocks:
            v_set = tuple(u for u in b1.subset if u in b2.subset)
            groups.setdefault(v_set, []).append((b1, b2))
    return MappingProxyType({v_set: tuple(pairs) for v_set, pairs in groups.items()})


def _block_getter(split: ManSplit, matrices: Mapping[int, np.ndarray]) -> BlockGetter:
    """Block (matrix index, user subset) -> columns of that matrix."""
    return lambda i, subset: matrices[i][:, split.by_subset[subset].span]


@dataclass(frozen=True)
class _Plan:
    """The block pairs of some groups, laid end to end in group order: group
    V's packet is symbols[V] of one flat packet and its headers are pairs[V]
    of one flat header list.  Each cross-product shape (w1, w2) has one
    bucket: the flat index of each of its pairs, the symbols of each pair's
    packet in the flat packet (one row per pair), and the pairs themselves."""

    symbols: dict[tuple[int, ...], slice]
    pairs: dict[tuple[int, ...], slice]
    buckets: dict[tuple[int, int], tuple[list[int], np.ndarray, list[tuple[Block, Block]]]]
    size: int
    count: int


# A party's (plan, demanded product, where each block starts in the product).
Job = tuple[_Plan, np.ndarray, Mapping[tuple[int, ...], int]]


def _plan(groups: Groups, keys: Sequence[tuple[int, ...]], s: int) -> _Plan:
    """The plan of the groups in `keys`, in that order."""
    symbols, pairs, buckets, lengths = {}, {}, {}, {}
    size = count = 0
    for v_set in keys:
        start, first = size, count
        for b1, b2 in groups[v_set]:
            shape = (b1.width, b2.width)
            if shape not in buckets:
                buckets[shape] = ([], [], [])
                lengths[shape] = f_len(DimTriple(b1.width, s, b2.width))
            index, offsets, block_pairs = buckets[shape]
            index.append(count)
            offsets.append(size)
            block_pairs.append((b1, b2))
            size += lengths[shape]
            count += 1
        symbols[v_set] = slice(start, size)
        pairs[v_set] = slice(first, count)
    buckets = {
        shape: (index, np.array(offsets)[:, None] + np.arange(lengths[shape]), block_pairs)
        for shape, (index, offsets, block_pairs) in buckets.items()
    }
    return _Plan(symbols, pairs, buckets, size, count)


def _cells(
    block_pairs: Sequence[tuple[Block, Block]], at: Mapping[tuple[int, ...], int]
) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays selecting the (w1, w2) cross product of each pair, all of
    one shape, from a product whose rows and columns hold block b from
    at[b.subset] on."""
    w1, w2 = block_pairs[0][0].width, block_pairs[0][1].width
    rows = np.array([at[b1.subset] for b1, _ in block_pairs])[:, None, None]
    cols = np.array([at[b2.subset] for _, b2 in block_pairs])[:, None, None]
    return rows + np.arange(w1)[:, None], cols + np.arange(w2)


def _group_packets(
    instance: ProblemInstance, jobs: Sequence[Job]
) -> list[dict[tuple[int, ...], tuple[np.ndarray, tuple[PacketHeader, ...]]]]:
    """Each job's packet and headers for each group of its plan: the
    compressed cross products of its block pairs, in group order.  A job is
    (plan, product, at), where `product` is a user's demanded product with
    block b from at[b.subset] on.  Each cross-product shape takes one stacked
    compression over the cells of every job."""
    flats = [np.zeros(plan.size, dtype=np.int64) for plan, _, _ in jobs]
    headers: list[list[PacketHeader]] = [[()] * plan.count for plan, _, _ in jobs]
    stacks: dict[tuple[int, int], list] = {}  # shape -> (job, index, symbols, pairs)
    for j, (plan, _, _) in enumerate(jobs):
        for shape, (index, symbols, block_pairs) in plan.buckets.items():
            stacks.setdefault(shape, []).append((j, index, symbols, block_pairs))
    for shape, parts in stacks.items():
        # One shape's cells at a time are cut into one array and compressed.
        spans, start = [], 0
        for _, index, _, _ in parts:
            spans.append(slice(start, start + len(index)))
            start += len(index)
        cells = np.empty((start, *shape), dtype=np.int64)
        for (j, _, _, block_pairs), span in zip(parts, spans):
            _, product, at = jobs[j]
            cells[span] = product[_cells(block_pairs, at)]
        packets, heads = compress_stack(cells, instance.s, instance.field.q)
        for (j, index, symbols, _), span in zip(parts, spans):
            flats[j][symbols] = packets[span]
            for i, head in zip(index, heads[span]):
                headers[j][i] = head
    return [
        {v: (flat[span], tuple(heads[plan.pairs[v]])) for v, span in plan.symbols.items()}
        for (plan, _, _), flat, heads in zip(jobs, flats, headers)
    ]


def _round_messages(
    instance: ProblemInstance,
    split: ManSplit,
    demands: DemandVector,
    leads: Mapping[int, np.ndarray],
) -> list[Message]:
    """Round i sends, to every (i+1)-subset S, the subset sum of each member's
    group for the intersection set S minus that member."""
    q, K = instance.field.q, instance.K
    groups = intersection_groups(split)
    at = {block.subset: block.offset for block in split.blocks}
    products = {}
    for d1, d2 in set(demands.normalized):
        products[d1, d2] = _matmul_mod(leads[d1].T, leads[d2], q)
    users = range(1, K + 1)
    plans = [_plan(groups, [v for v in groups if k not in v], instance.s) for k in users]
    jobs = [(plan, products[demands.pair(k)], at) for k, plan in zip(users, plans)]
    own = dict(zip(users, _group_packets(instance, jobs)))
    empty = (np.zeros(0, dtype=np.int64), ())
    messages = []
    for i in range(1 + max(len(v_set) for v_set in groups)):
        for s_set in subsets_of(K, i + 1):
            packets = {k: own[k].get(without(s_set, k), empty) for k in s_set}
            lengths = {packet.size for packet, _ in packets.values()}
            if len(lengths) != 1:
                raise AssertionError(f"group lengths differ across users: {lengths}")
            (length,) = lengths
            if length == 0:
                continue
            payload = subset_sum(q, length, s_set, lambda k, _: packets[k][0])
            headers = tuple((k, packets[k][1]) for k in s_set)
            messages.append(Message(("col", i, s_set), payload, headers))
    return messages


def _decode_grid(
    instance: ProblemInstance,
    split: ManSplit,
    k: int,
    cache_block: BlockGetter,
    transcript: DeliveryTranscript,
    demands: DemandVector,
) -> np.ndarray:
    """Reassemble user k's full cross-product grid.  User k caches both
    blocks of a pair exactly when k is in their intersection V, so those
    groups are cut from the product of its cached columns; every other group
    is cancelled out of the round message for V + {k}, from the groups of
    each peer p for the sets holding k but not p, which user k regenerates
    from its cache, and decompressed one stack per block shape."""
    q, s = instance.field.q, instance.s
    groups = intersection_groups(split)
    cached = [v_set for v_set in groups if k in v_set]
    missing = [v_set for v_set in groups if k not in v_set]
    mine = [block for block in split.blocks if k in block.subset]
    # Where each cached block starts among user k's cached columns.
    local = dict(zip((b.subset for b in mine), accumulate((b.width for b in mine), initial=0)))
    # The demanded products over user k's cached columns only.
    products = {}
    if mine:
        columns = {
            i: np.concatenate([cache_block(i, b.subset) for b in mine], axis=1)
            for i in {d for pair in demands.normalized for d in pair}
        }
        for d1, d2 in set(demands.normalized):
            products[d1, d2] = _matmul_mod(columns[d1].T, columns[d2], q)
    others = [p for p in range(1, instance.K + 1) if p != k] if mine else []
    jobs = [
        (_plan(groups, [v for v in cached if p not in v], s), products[demands.pair(p)], local)
        for p in others
    ]
    peers = dict(zip(others, _group_packets(instance, jobs)))

    def message(s_set: tuple[int, ...]) -> Message:
        return transcript.find(("col", len(s_set) - 1, s_set))

    plan = _plan(groups, missing, s)
    received = recover(
        q, k, missing, lambda s_set: message(s_set).payload, lambda p, rest: peers[p][rest][0]
    )
    flat = np.zeros(plan.size, dtype=np.int64)
    headers: list[PacketHeader] = []
    for v_set, packet in zip(missing, received):
        span, group = plan.symbols[v_set], plan.pairs[v_set]
        heads = message(tuple(sorted(v_set + (k,)))).headers_for(k)
        if packet.size != span.stop - span.start or len(heads) != group.stop - group.start:
            raise AssertionError("group payload or header count mismatch")
        flat[span] = packet
        headers.extend(heads)
    at = {block.subset: block.offset for block in split.blocks}
    grid = np.zeros((split.total, split.total), dtype=np.int64)
    for (w1, w2), (index, symbols, block_pairs) in plan.buckets.items():
        heads = [headers[i] for i in index]
        blocks = decompress_stack(flat[symbols], heads, DimTriple(w1, s, w2), q)
        grid[_cells(block_pairs, at)] = blocks
    for _, _, block_pairs in _plan(groups, cached, s).buckets.values():
        grid[_cells(block_pairs, at)] = products[demands.pair(k)][_cells(block_pairs, local)]
    return grid


def validate(instance: ProblemInstance, config: ColConfig) -> list[str]:
    problems = []
    for name, width in constraints(instance, config).items():
        tier = "wide" if name.startswith("alpha") else "narrow"
        if width.denominator != 1 or width <= 0:
            problems.append(f"{tier} block width {name} = {width} is not a positive integer")
    return problems


def place(
    instance: ProblemInstance, config: ColConfig, library: Sequence[FieldMatrix]
) -> CacheContents:
    lead, coeff = _splits(instance)
    users = [UserCache({}, {}) for _ in range(instance.K)]

    def store(kind: str, i: int, matrix: np.ndarray, split: ManSplit) -> None:
        for block in split.blocks:
            for k in block.subset:
                users[k - 1].segments[(kind, i, block.subset)] = matrix[:, block.span]

    perms = {}
    for i, w in enumerate(library, start=1):
        if coeff is None:
            store("raw-cols", i, w.data, lead)
            continue
        perms[i], lead_cols, coeffs = spanning_column_split(w, instance.s)
        store("raw-cols", i, lead_cols.data, lead)
        store("coded-Q", i, coeffs.data, coeff)
    if coeff is not None:
        for user in users:
            user.metadata["column-permutations"] = perms
    return CacheContents(tuple(users))


def deliver(
    instance: ProblemInstance,
    config: ColConfig,
    library: Sequence[FieldMatrix],
    demands: DemandVector,
) -> DeliveryTranscript:
    q, s = instance.field.q, instance.s
    lead, coeff = _splits(instance)
    demanded = sorted({d for pair in demands.normalized for d in pair})
    leads = {i: library[i - 1].data for i in demanded}
    coeffs: dict[int, np.ndarray] = {}
    if coeff is not None:
        for i in demanded:
            _, lead_cols, coeff_cols = spanning_column_split(library[i - 1], s)
            leads[i], coeffs[i] = lead_cols.data, coeff_cols.data
    messages = _round_messages(instance, lead, demands, leads)
    if coeff is None:
        return DeliveryTranscript(tuple(messages))
    get_coeff = _block_getter(coeff, coeffs)

    def coeff_segment(slot: int, k: int, rest: tuple[int, ...]) -> np.ndarray:
        return get_coeff(demands.pair(k)[slot - 1], rest).ravel()

    # Steps 2 and 3 send the coefficient blocks of each user's second, then
    # first, demanded matrix by plain coded multicasts.
    for step, slot in (("step2", 2), ("step3", 1)):
        for s_set, width in coeff.multicasts():
            payload = subset_sum(q, s * width, s_set, partial(coeff_segment, slot))
            messages.append(Message(("col", step, s_set), payload))
    return DeliveryTranscript(tuple(messages))


def _assemble_coeff(
    instance: ProblemInstance,
    split: ManSplit,
    k: int,
    cache: UserCache,
    transcript: DeliveryTranscript,
    demands: DemandVector,
    step: str,
    slot: int,
) -> np.ndarray:
    """Rebuild the full coefficient matrix of user k's demanded matrix for the
    given slot from cached blocks plus the step's multicasts."""
    q, s = instance.field.q, instance.s

    def cached(user: int, subset: tuple[int, ...]) -> np.ndarray:
        return cache.get(("coded-Q", demands.pair(user)[slot - 1], subset)).ravel()

    def payload_for(s_set: tuple[int, ...]) -> np.ndarray:
        return transcript.find(("col", step, s_set)).payload

    out = np.zeros((s, split.total), dtype=np.int64)
    for block, flat in zip(split.blocks, recover(q, k, split.by_subset, payload_for, cached)):
        flat = cached(k, block.subset) if flat is None else flat
        out[:, block.span] = flat.reshape(s, block.width)
    return out


def decode(
    instance: ProblemInstance,
    config: ColConfig,
    k: int,
    cache: UserCache,
    transcript: DeliveryTranscript,
    demands: DemandVector,
) -> FieldMatrix:
    q, r = instance.field.q, instance.r
    d1, d2 = demands.pair(k)
    lead, coeff = _splits(instance)

    def cache_block(i: int, subset: tuple[int, ...]) -> np.ndarray:
        return cache.get(("raw-cols", i, subset))

    t11 = _decode_grid(instance, lead, k, cache_block, transcript, demands)
    if coeff is None:
        return FieldMatrix(instance.field, t11)
    q2 = _assemble_coeff(instance, coeff, k, cache, transcript, demands, "step2", 2)
    t12 = _matmul_mod(t11, q2, q)
    q1 = _assemble_coeff(instance, coeff, k, cache, transcript, demands, "step3", 1)
    top = np.concatenate([t11, t12], axis=1)
    bottom = _matmul_mod(q1.T, top, q)
    shuffled = np.concatenate([top, bottom], axis=0)
    perms = cache.metadata["column-permutations"]
    perm1, perm2 = list(perms[d1]), list(perms[d2])
    out = np.zeros((r, r), dtype=np.int64)
    out[np.ix_(perm1, perm2)] = shuffled
    return FieldMatrix(instance.field, out)


def formula_load(instance: ProblemInstance, config: ColConfig) -> Fraction:
    from ..bounds import load_Rcol

    return load_Rcol(instance.K, instance.N, instance.a, instance.M)


def constraints(instance: ProblemInstance, config: ColConfig) -> Mapping[str, Fraction]:
    x = Fraction(instance.K) * instance.M / instance.N
    out: dict[str, Fraction] = {}
    for name, total in _column_ranges(instance):
        _, alpha, w1, w2 = split_widths(instance.K, x, total)
        out[f"alpha*{name}/C(K,t)"] = w1
        if alpha < 1:
            out[f"(1-alpha)*{name}/C(K,t+1)"] = w2
    return out


SCHEME = Scheme("col", ColConfig, validate, place, deliver, decode, formula_load, constraints)
