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

Every group's layout depends only on the split and s, so one read-only
layout of the whole grid per split serves the server and every decoder.
Compression runs once per distinct demanded product, one `compress_stack`
per block shape (w1, w2) over the cells of every product.  The server
compresses the products of the demanded columns.  A decoder multiplies the
demanded blocks it caches only, c_k x s x c_k for its c_k cached columns,
places the products in a grid that is zero elsewhere, compresses the cells
that hold every group its peers' groups need, and rebuilds the groups it
receives with one `decompress_stack` per shape.  Both are byte-equal to
`compress_product` and `decompress_product` item by item, so stacking
changes no packet.

The rounds run as array code over one plan per split kept beside the
layout: `_rounds` places every round payload in one array, to which each
user adds all its groups with one scatter, and holds each user's `_Lacks`,
by which decoder k takes its lacked groups' payloads end to end and
subtracts each peer's groups, read from the peer's regenerated flat packet
with one gather.  Both reduce mod q after every step, so the sums stay
exact for every q up to 2^62.

For wide matrices (r > s) each matrix is first column-permuted so its
leading s columns span it; those columns get the treatment above, while the
remaining r - s columns are represented by cached coefficient blocks Q with
W1 @ Q = W2, placed by their own MAN split, delivered by its plain coded
multicasts and combined locally.  One elimination of the matrix gives both
the permutation and Q.  `place` splits the whole library in one call, so
matrices of fewer than 112 columns share one stacked elimination, and
keeps the splits in the run's `compression_memo`; `deliver` reads the
demanded matrices' splits from there, and splits them in one call of its
own only outside a memo.  Matrices with r <= s have no coefficient split.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from ..bounds import load_Rcol
from ..compress import (
    DimTriple,
    PacketHeader,
    column_splits,
    compress_stack,
    decompress_stack,
    f_len,
)
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
from .common import (
    Block,
    ManSplit,
    cache_file,
    decode_file,
    man_split,
    multicast_file,
    split_widths,
    subsets_of,
    takes_none,
    without,
)


@dataclass(frozen=True)
class ColConfig:
    """No free parameters: t = floor(K*M/N) and the tier split are derived."""


def configure(instance: ProblemInstance, t: int | None, ell: int | None) -> ColConfig:
    takes_none("col", t=t, ell=ell)
    return ColConfig()


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


@dataclass(frozen=True)
class _Cells:
    """The cells of one block shape (w1, w2), in layout order: each cell's
    index in the flat header list, the first symbol of its packet in the flat
    packet, its row and column offsets in the grid, and which users hold its
    intersection set V (holders[cell, u] is True when u is in V)."""

    w1: int
    w2: int
    length: int  # f(w1, s, w2), the symbols of each cell's packet
    index: np.ndarray
    offset: np.ndarray
    row: np.ndarray
    col: np.ndarray
    holders: np.ndarray

    def select(self, keep: np.ndarray | slice) -> tuple[np.ndarray, tuple, np.ndarray]:
        """For the cells in `keep`: their flat header indices, the index
        arrays cutting them from a grid as a (cells, w1, w2) stack, and the
        symbols of their packets in the flat packet, one row per cell."""
        rows = self.row[keep][:, None, None] + np.arange(self.w1)[:, None]
        cols = self.col[keep][:, None, None] + np.arange(self.w2)
        symbols = self.offset[keep][:, None] + np.arange(self.length)
        return self.index[keep], (rows, cols), symbols


@dataclass(frozen=True)
class _Layout:
    """The whole cross-product grid of a split, laid end to end: group V,
    the block pairs whose subsets intersect exactly in V, is symbols[V] of
    one flat packet and pairs[V] of one flat header list.  Groups come in
    order of their first pair in row-major block order, and each group's
    pairs in row-major order: the group ordering on both ends of the link.
    Read-only: callers share it."""

    symbols: Mapping[tuple[int, ...], slice]
    pairs: Mapping[tuple[int, ...], slice]
    shapes: Mapping[tuple[int, int], _Cells]
    size: int
    count: int


@lru_cache(maxsize=256)
def _layout(split: ManSplit, s: int) -> _Layout:
    """The layout of the grid of `split` at inner dimension s."""
    K, blocks = split.n, split.blocks
    groups: dict[tuple[int, ...], list[tuple[Block, Block]]] = {}
    for b1 in blocks:
        for b2 in blocks:
            v_set = tuple(u for u in b1.subset if u in b2.subset)
            groups.setdefault(v_set, []).append((b1, b2))
    symbols, pairs, cells = {}, {}, {}
    size = count = 0
    for v_set, group in groups.items():
        start, first = size, count
        for b1, b2 in group:
            cell = (count, size, b1.offset, b2.offset, v_set)
            cells.setdefault((b1.width, b2.width), []).append(cell)
            size += f_len(DimTriple(b1.width, s, b2.width))
            count += 1
        symbols[v_set], pairs[v_set] = slice(start, size), slice(first, count)
    shapes = {}
    for (w1, w2), rows in cells.items():
        *offsets, v_sets = zip(*rows)
        holders = np.zeros((len(rows), K + 1), dtype=bool)
        for cell, v_set in enumerate(v_sets):
            holders[cell, list(v_set)] = True
        arrays = [np.array(column, dtype=np.int64) for column in offsets] + [holders]
        for array in arrays:
            array.flags.writeable = False
        shapes[w1, w2] = _Cells(w1, w2, f_len(DimTriple(w1, s, w2)), *arrays)
    return _Layout(
        MappingProxyType(symbols), MappingProxyType(pairs), MappingProxyType(shapes), size, count
    )


def _compress_cells(
    instance: ProblemInstance,
    layout: _Layout,
    products: Mapping[tuple[int, int], np.ndarray],
    user: int | None = None,
) -> dict[tuple[int, int], tuple[np.ndarray, list[PacketHeader]]]:
    """Each product's flat packet and flat header list: the compressed cells
    of its grid in layout order.  Each block shape takes one stacked
    compression over the cells of every product.  With `user`, only the cells
    whose V holds that user are compressed; the other cells stay zero."""
    q, n = instance.field.q, len(products)
    flats = {pair: np.zeros(layout.size, dtype=np.int64) for pair in products}
    headers: dict[tuple[int, int], list[PacketHeader]] = {
        pair: [()] * layout.count for pair in products
    }
    for shape, cells in layout.shapes.items():
        index, grid, symbols = cells.select(slice(None) if user is None else cells.holders[:, user])
        b = index.size
        if not b or not n:
            continue
        # One shape's cells of every product are cut into one array and compressed.
        stack = np.empty((n * b, *shape), dtype=np.int64)
        for j, product in enumerate(products.values()):
            stack[j * b : (j + 1) * b] = product[grid]
        packets, heads = compress_stack(stack, instance.s, q)
        for j, pair in enumerate(products):
            flats[pair][symbols] = packets[j * b : (j + 1) * b]
            for i, head in zip(index.tolist(), heads[j * b : (j + 1) * b]):
                headers[pair][i] = head
    return {pair: (flats[pair], headers[pair]) for pair in products}


def _spans(starts: Sequence[int], lengths: Sequence[int]) -> np.ndarray:
    """The positions of the spans [start, start + length), end to end, as
    int32: the plans below hold many of them."""
    parts = [np.arange(a, a + n, dtype=np.int32) for a, n in zip(starts, lengths)]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int32)


@dataclass(frozen=True)
class _Lacks:
    """What user k lacks of a split's grid and how it reads it back.  Its
    cached blocks (`subsets`) hold the grid columns whose cells `cut`
    indexes.  `groups` lists, in layout order, each group V that k lacks:
    the multicast set V + {k} that carries it, its symbols and its header
    slice.  `lacked` marks their symbols in the flat packet; k receives
    their round payloads end to end.  For each peer p, `peers` holds the
    positions there of the groups whose set holds p, and the symbols of
    p's group in that set, V + {k} - {p}, in p's flat packet.  Read-only:
    `_Rounds` holds one per user, and callers share it."""

    subsets: tuple[tuple[int, ...], ...]
    cut: tuple[np.ndarray, np.ndarray]
    groups: tuple[tuple[tuple[int, ...], slice, slice], ...]
    lacked: np.ndarray
    peers: tuple[tuple[int, np.ndarray, np.ndarray], ...]


def _lacks(layout: _Layout, blocks: tuple[Block, ...], k: int) -> _Lacks:
    cached = [block for block in blocks if k in block.subset]
    columns = _spans([block.offset for block in cached], [block.width for block in cached])
    groups, lacked = [], np.zeros(layout.size, dtype=bool)
    dst: dict[int, list[int]] = {}  # per peer: where its groups start in what k receives,
    src: dict[int, list[int]] = {}  # where they start in its flat packet,
    lengths: dict[int, list[int]] = {}  # and how long they are
    at = 0
    for v_set, span in layout.symbols.items():
        if k in v_set:
            continue
        length = span.stop - span.start
        groups.append((tuple(sorted(v_set + (k,))), span, layout.pairs[v_set]))
        lacked[span] = True
        for j, p in enumerate(v_set):
            group = layout.symbols[tuple(sorted(without(v_set, j) + (k,)))]
            if group.stop - group.start != length:
                raise AssertionError(f"group lengths differ across users: {length}")
            dst.setdefault(p, []).append(at)
            src.setdefault(p, []).append(group.start)
            lengths.setdefault(p, []).append(length)
        at += length
    peers = [(p, _spans(dst[p], lengths[p]), _spans(src[p], lengths[p])) for p in sorted(dst)]
    for array in [columns, lacked] + [array for _, *pair in peers for array in pair]:
        array.flags.writeable = False
    subsets = tuple(block.subset for block in cached)
    return _Lacks(subsets, (columns[:, None], columns), tuple(groups), lacked, tuple(peers))


@dataclass(frozen=True)
class _Rounds:
    """The messages of a split's grid in send order: round by round, each
    round's multicast sets S in lexicographic order, and no message for a
    set whose groups are empty.  Message j is symbols starts[j]:starts[j+1]
    of the rounds' payloads laid end to end, and members[j] pairs each k in
    S with the header slice of its group S - {k}.  lacks[k - 1] is user
    k's plan, and sends[k - 1] holds the positions there of user k's lacked
    groups, in layout order.  Read-only: callers share it."""

    sets: tuple[tuple[int, ...], ...]
    starts: tuple[int, ...]
    members: tuple[tuple[tuple[int, slice], ...], ...]
    lacks: tuple[_Lacks, ...]
    sends: tuple[np.ndarray, ...]


@lru_cache(maxsize=32)
def _rounds(split: ManSplit, s: int) -> _Rounds:
    K, layout = split.n, _layout(split, s)
    sets, starts, members, at = [], [0], [], {}
    for size in sorted({len(v_set) + 1 for v_set in layout.symbols}):
        for s_set in subsets_of(K, size):
            rests = [without(s_set, j) for j in range(size)]
            spans = [layout.symbols.get(rest, slice(0)) for rest in rests]
            lengths = {span.stop - span.start for span in spans}
            if len(lengths) != 1:
                raise AssertionError(f"group lengths differ across users: {lengths}")
            (length,) = lengths
            if length == 0:
                continue
            at[s_set] = starts[-1]
            sets.append(s_set)
            starts.append(starts[-1] + length)
            members.append(tuple((k, layout.pairs[rest]) for k, rest in zip(s_set, rests)))
    lacks = tuple(_lacks(layout, split.blocks, k) for k in range(1, K + 1))
    sends = []
    for plan in lacks:
        starts_k = [at[s_set] for s_set, _, _ in plan.groups]
        sends.append(_spans(starts_k, [span.stop - span.start for _, span, _ in plan.groups]))
        sends[-1].flags.writeable = False
    return _Rounds(tuple(sets), tuple(starts), tuple(members), lacks, tuple(sends))


def _round_messages(
    instance: ProblemInstance,
    split: ManSplit,
    demands: DemandVector,
    leads: Mapping[int, np.ndarray],
) -> list[Message]:
    """Round i sends, to every (i+1)-subset S, the subset sum of each member's
    group for the intersection set S minus that member.  Every round's
    payloads sit in one array, and each user adds all its groups there in
    one scatter, mod q: reducing after every addition keeps the sum of two
    residues below 2^63 for every q up to 2^62."""
    q, K, s = instance.field.q, instance.K, instance.s
    layout = _layout(split, s)
    rounds = _rounds(split, s)
    products = {}
    for d1, d2 in set(demands.normalized):
        products[d1, d2] = _matmul_mod(leads[d1].T, leads[d2], q)
    own = _compress_cells(instance, layout, products)
    payloads = np.zeros(rounds.starts[-1], dtype=np.int64)
    for k, (lacks, at) in enumerate(zip(rounds.lacks, rounds.sends), start=1):
        flat = own[demands.pair(k)][0]
        payloads[at] = (payloads[at] + flat[lacks.lacked]) % q
    payloads.flags.writeable = False
    messages = []
    for s_set, start, stop, members in zip(
        rounds.sets, rounds.starts, rounds.starts[1:], rounds.members
    ):
        headers = tuple((k, tuple(own[demands.pair(k)][1][group])) for k, group in members)
        messages.append(Message(("col", len(s_set) - 1, s_set), payloads[start:stop], headers))
    return messages


def _cached_products(
    instance: ProblemInstance, total: int, lacks: _Lacks, cache: UserCache, demands: DemandVector
) -> dict[tuple[int, int], np.ndarray]:
    """Each distinct demanded product over the columns a user caches alone,
    c_k x s x c_k, placed in a total x total grid that is zero elsewhere."""
    q, s = instance.field.q, instance.s
    parts = {}
    for i in {d for pair in demands.normalized for d in pair}:
        blocks = [cache.get(("raw-cols", i, subset)) for subset in lacks.subsets]
        parts[i] = np.concatenate(blocks, axis=1) if blocks else np.zeros((s, 0), dtype=np.int64)
    products = {}
    for d1, d2 in set(demands.normalized):
        products[d1, d2] = np.zeros((total, total), dtype=np.int64)
        products[d1, d2][lacks.cut] = _matmul_mod(parts[d1].T, parts[d2], q)
    return products


def _receive(
    q: int,
    k: int,
    layout: _Layout,
    lacks: _Lacks,
    transcript: DeliveryTranscript,
    peer_flats: Mapping[int, np.ndarray],
) -> tuple[np.ndarray, list[PacketHeader]]:
    """User k's flat packet and header list, holding every group k lacks:
    its round payload minus each peer p's group there, read from p's flat
    packet peer_flats[p] with one gather per peer and reduced mod q after
    each, so the difference stays exact for every q up to 2^62.  The other
    groups stay zero."""
    headers: list[PacketHeader] = [()] * layout.count
    payloads = []
    for s_set, span, group in lacks.groups:
        message = transcript.find(("col", len(s_set) - 1, s_set))
        heads = message.headers_for(k)
        if message.payload.size != span.stop - span.start or len(heads) != group.stop - group.start:
            raise AssertionError("group payload or header count mismatch")
        payloads.append(message.payload)
        headers[group] = heads
    received = np.concatenate(payloads) if payloads else np.zeros(0, dtype=np.int64)
    for p, at, symbols in lacks.peers:
        received[at] = (received[at] - peer_flats[p][symbols]) % q
    flat = np.zeros(layout.size, dtype=np.int64)
    flat[lacks.lacked] = received
    return flat, headers


def _decode_grid(
    instance: ProblemInstance,
    split: ManSplit,
    k: int,
    cache: UserCache,
    transcript: DeliveryTranscript,
    demands: DemandVector,
) -> np.ndarray:
    """Reassemble user k's full cross-product grid.  Cell (b1, b2) depends
    only on the columns of blocks b1 and b2, so the demanded products of k's
    cached columns alone hold every cell whose V holds k: k's own such
    cells, and its peers' groups, which it regenerates from them.  Every
    other group is received and decompressed one stack per block shape."""
    q, s = instance.field.q, instance.s
    layout = _layout(split, s)
    lacks = _rounds(split, s).lacks[k - 1]
    products = _cached_products(instance, split.total, lacks, cache, demands)
    peer_pairs = {demands.pair(p) for p in range(1, instance.K + 1) if p != k}
    peers = _compress_cells(instance, layout, {pair: products[pair] for pair in peer_pairs}, k)
    peer_flats = {p: peers[demands.pair(p)][0] for p, _, _ in lacks.peers}
    flat, headers = _receive(q, k, layout, lacks, transcript, peer_flats)
    grid = products[demands.pair(k)]
    for cells in layout.shapes.values():
        lacked = ~cells.holders[:, k]
        if lacked.any():
            index, cut, symbols = cells.select(lacked)
            heads = [headers[i] for i in index.tolist()]
            dims = DimTriple(cells.w1, s, cells.w2)
            grid[cut] = decompress_stack(flat[symbols], heads, dims, q)
    return grid


def validate(instance: ProblemInstance, config: ColConfig) -> list[str]:
    x = Fraction(instance.K) * instance.M / instance.N
    problems = []
    for name, total in _column_ranges(instance):
        # The narrow width is 0, an integer, when there is no narrow tier.
        _, _, wide, narrow = split_widths(instance.K, x, total)
        widths = (
            ("wide", f"alpha*{name}/C(K,t)", wide),
            ("narrow", f"(1-alpha)*{name}/C(K,t+1)", narrow),
        )
        for tier, label, width in widths:
            if width.denominator != 1:
                problems.append(f"{tier} block width {label} = {width} is not a positive integer")
    return problems


def place(
    instance: ProblemInstance, config: ColConfig, library: Sequence[FieldMatrix]
) -> CacheContents:
    lead, coeff = _splits(instance)
    perms: dict[int, tuple[int, ...]] = {}
    metadata = {} if coeff is None else {"column-permutations": perms}
    users = [UserCache({}, dict(metadata)) for _ in range(instance.K)]
    if coeff is None:
        for i, w in enumerate(library, start=1):
            cache_file(users, lead, ("raw-cols", i), w.data)
        return CacheContents(tuple(users))
    for i, split in enumerate(column_splits(library, instance.s), start=1):
        perms[i], lead_cols, coeffs = split
        cache_file(users, lead, ("raw-cols", i), lead_cols.data)
        cache_file(users, coeff, ("coded-Q", i), coeffs.data)
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
        splits = column_splits([library[i - 1] for i in demanded], s)
        for i, (_, lead_cols, coeff_cols) in zip(demanded, splits):
            leads[i], coeffs[i] = lead_cols.data, coeff_cols.data
    messages = _round_messages(instance, lead, demands, leads)
    if coeff is None:
        return DeliveryTranscript(tuple(messages))

    def coeff_file(slot: int, k: int) -> np.ndarray:
        return coeffs[demands.pair(k)[slot - 1]]

    # Steps 2 and 3 send the coefficient blocks of each user's second, then
    # first, demanded matrix by plain coded multicasts.
    for step, slot in (("step2", 2), ("step3", 1)):
        messages += multicast_file(q, coeff, ("col", step), partial(coeff_file, slot))
    return DeliveryTranscript(tuple(messages))


def decode(
    instance: ProblemInstance,
    config: ColConfig,
    k: int,
    cache: UserCache,
    transcript: DeliveryTranscript,
    demands: DemandVector,
) -> FieldMatrix:
    q, s, r = instance.field.q, instance.s, instance.r
    d1, d2 = demands.pair(k)
    lead, coeff = _splits(instance)

    t11 = _decode_grid(instance, lead, k, cache, transcript, demands)
    if coeff is None:
        return FieldMatrix(instance.field, t11)

    def coeff_matrix(step: str, slot: int) -> np.ndarray:
        def cached(user: int, subset: tuple[int, ...]) -> np.ndarray:
            return cache.get(("coded-Q", demands.pair(user)[slot - 1], subset))

        return decode_file(q, k, coeff, ("col", step), transcript, cached, (s, coeff.total))

    t12 = _matmul_mod(t11, coeff_matrix("step2", 2), q)
    q1 = coeff_matrix("step3", 1)
    top = np.concatenate([t11, t12], axis=1)
    bottom = _matmul_mod(q1.T, top, q)
    shuffled = np.concatenate([top, bottom], axis=0)
    perms = cache.metadata["column-permutations"]
    out = np.zeros((r, r), dtype=np.int64)
    out[np.ix_(perms[d1], perms[d2])] = shuffled
    return FieldMatrix(instance.field, out)


def formula_load(instance: ProblemInstance, config: ColConfig) -> Fraction:
    return load_Rcol(instance.K, instance.N, instance.a, instance.M)


SCHEME = Scheme(
    "col",
    configure,
    lambda K, N, a: [(Fraction(N * t, K), None, None) for t in range(K + 1)],
    validate,
    place,
    deliver,
    decode,
    formula_load,
)
