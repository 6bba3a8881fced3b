"""Column-partition structure-aware scheme.

Matrices are split into vertical blocks indexed by t-subsets (wide tier) and
(t+1)-subsets (narrow tier) of users, where t = floor(K*M/N); user k caches
the blocks whose subset contains it.  A demanded product decomposes into the
grid of cross-block products block(d1, T1)^T block(d2, T2), and delivery runs
in rounds: in round i every (i+1)-subset S receives the sum over k in S of
user k's group of compressed cross products whose block subsets intersect
exactly in S \\ {k}.  Group lengths depend only on i, so the summed packets
align; zero-length groups produce no message.

For wide matrices (r > s) each matrix is first column-permuted so its
leading s columns span it; those columns get the treatment above, while the
remaining columns are represented by cached coefficient blocks Q with
W1 @ Q = W2, delivered by plain coded multicasts and combined locally.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, floor
from typing import Callable, Mapping, Sequence

import numpy as np

from ..compress import CompressedProduct, DimTriple, compress_product, decompress_product, f_len, packet_symbols
from ..field import (
    FieldMatrix,
    _matmul_mod,
    apply_column_permutation,
    leading_block_column_permutation,
    solve_columns,
)
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
from .common import cancel, subset_sum, subsets_of, without

BlockGetter = Callable[[int, tuple[int, ...]], np.ndarray]


@dataclass(frozen=True)
class ColConfig:
    """No free parameters: t = floor(K*M/N) and the tier split are derived."""


@dataclass(frozen=True)
class ColParams:
    """t = floor(K*M/N), alpha = t + 1 - K*M/N in (0, 1]."""

    t: int
    alpha: Fraction


def col_params(instance: ProblemInstance) -> ColParams:
    x = Fraction(instance.K) * instance.M / instance.N
    t = floor(x)
    return ColParams(t, t + 1 - x)


@dataclass(frozen=True)
class BlockEntry:
    """One vertical block: user subset, column offset, and width."""

    subset: tuple[int, ...]
    offset: int
    width: int

    @property
    def cols(self) -> slice:
        return slice(self.offset, self.offset + self.width)


@dataclass(frozen=True)
class ColLayout:
    """Ordered block list covering `total` columns: wide tier then narrow tier,
    each in lexicographic subset order.

    `blocks` finds a block by its user subset.  `groups` maps each
    intersection set V to the ordered block pairs whose subsets intersect
    exactly in V, row-major in layout order (the canonical group ordering on
    both ends of the link).
    """

    entries: tuple[BlockEntry, ...]
    total: int
    blocks: dict[tuple[int, ...], BlockEntry]
    groups: dict[tuple[int, ...], list[tuple[BlockEntry, BlockEntry]]]


def tier_widths(params: ColParams, K: int, total: int) -> tuple[Fraction, Fraction]:
    """(wide width, narrow width) of the split of `total` columns."""
    w1 = params.alpha * total / comb(K, params.t)
    w2 = (1 - params.alpha) * total / comb(K, params.t + 1) if params.alpha < 1 else Fraction(0)
    return w1, w2


def build_layout(params: ColParams, K: int, total: int) -> ColLayout:
    w1, w2 = tier_widths(params, K, total)
    entries = []
    offset = 0
    for subset in subsets_of(K, params.t):
        entries.append(BlockEntry(subset, offset, int(w1)))
        offset += int(w1)
    if params.alpha < 1:
        for subset in subsets_of(K, params.t + 1):
            entries.append(BlockEntry(subset, offset, int(w2)))
            offset += int(w2)
    if offset != total:
        raise AssertionError(f"layout covers {offset} of {total} columns")
    groups: dict[tuple[int, ...], list[tuple[BlockEntry, BlockEntry]]] = {}
    for e1 in entries:
        for e2 in entries:
            v_set = tuple(u for u in e1.subset if u in e2.subset)
            groups.setdefault(v_set, []).append((e1, e2))
    return ColLayout(tuple(entries), total, {e.subset: e for e in entries}, groups)


def _block_getter(layout: ColLayout, matrices: Mapping[int, np.ndarray]) -> BlockGetter:
    """Block (matrix index, user subset) -> columns of that matrix."""
    return lambda i, subset: matrices[i][:, layout.blocks[subset].cols]


def _group_packet(
    instance: ProblemInstance,
    layout: ColLayout,
    pair: tuple[int, int],
    v_set: tuple[int, ...],
    get_block: BlockGetter,
) -> tuple[np.ndarray, tuple[PacketHeader, ...]]:
    """One user's group for the demanded pair: the compressed cross products
    over every block pair intersecting exactly in v_set, concatenated, and
    their rank/basis headers."""
    q = instance.field.q
    d1, d2 = pair
    packets, headers = [], []
    for e1, e2 in layout.groups.get(v_set, ()):
        prod = _matmul_mod(get_block(d1, e1.subset).T, get_block(d2, e2.subset), q)
        cp = compress_product(FieldMatrix(instance.field, prod), instance.s)
        packets.append(packet_symbols(cp))
        headers.append((cp.rank, cp.basis_row_indices))
    packet = np.concatenate(packets) if packets else np.zeros(0, dtype=np.int64)
    return packet, tuple(headers)


def _round_messages(
    instance: ProblemInstance,
    layout: ColLayout,
    demands: DemandVector,
    get_block: BlockGetter,
) -> list[Message]:
    """Round i sends, to every (i+1)-subset S, the subset sum of each member's
    group for the intersection set S minus that member."""
    q, K = instance.field.q, instance.K
    messages = []
    for i in range(1 + max(len(v_set) for v_set in layout.groups)):
        for s_set in subsets_of(K, i + 1):
            groups = {
                k: _group_packet(instance, layout, demands.pair(k), without(s_set, k), get_block)
                for k in s_set
            }
            lengths = {packet.size for packet, _ in groups.values()}
            if len(lengths) != 1:
                raise AssertionError(f"group lengths differ across users: {lengths}")
            (length,) = lengths
            if length == 0:
                continue
            payload = subset_sum(q, length, s_set, lambda k, _: groups[k][0])
            headers = tuple((k, groups[k][1]) for k in s_set)
            messages.append(Message(("col", i, s_set), payload, headers))
    return messages


def _decode_grid(
    instance: ProblemInstance,
    layout: ColLayout,
    k: int,
    cache_block: BlockGetter,
    transcript: DeliveryTranscript,
    demands: DemandVector,
) -> np.ndarray:
    """Reassemble user k's full cross-product grid group by group.  User k
    caches both blocks of a pair exactly when k is in their intersection V,
    so those groups are computed locally; every other group is cancelled out
    of the round message for V + {k}."""
    q = instance.field.q
    d1, d2 = demands.pair(k)

    def peer_packet(p: int, rest: tuple[int, ...]) -> np.ndarray:
        return _group_packet(instance, layout, demands.pair(p), rest, cache_block)[0]

    grid = np.zeros((layout.total, layout.total), dtype=np.int64)
    for v_set, pairs in layout.groups.items():
        if k in v_set:
            for e1, e2 in pairs:
                block = _matmul_mod(cache_block(d1, e1.subset).T, cache_block(d2, e2.subset), q)
                grid[e1.cols, e2.cols] = block
            continue
        s_set = tuple(sorted(v_set + (k,)))
        msg = transcript.find(("col", len(v_set), s_set))
        packet = cancel(q, msg.payload, k, s_set, peer_packet)
        pos = 0
        for (e1, e2), (rank, basis) in zip(pairs, msg.headers_for(k), strict=True):
            dims = DimTriple(e1.width, instance.s, e2.width)
            step = f_len(dims)
            cp = CompressedProduct.from_packet(
                instance.field, dims, rank, tuple(basis), packet[pos : pos + step]
            )
            grid[e1.cols, e2.cols] = decompress_product(cp).data
            pos += step
        if pos != packet.size:
            raise AssertionError("group payload length mismatch")
    return grid


def _column_ranges(instance: ProblemInstance) -> list[tuple[str, int]]:
    """(name, column count) of each range split into blocks on its own: all r
    columns when a <= 1, else the leading s columns and the remaining r - s."""
    if instance.a <= 1:
        return [("r", instance.r)]
    return [("s", instance.s), ("(r-s)", instance.r - instance.s)]


def _layouts(instance: ProblemInstance) -> list[ColLayout]:
    p = col_params(instance)
    return [build_layout(p, instance.K, total) for _, total in _column_ranges(instance)]


def validate(instance: ProblemInstance, config: ColConfig) -> list[str]:
    problems = []
    for name, width in constraints(instance, config).items():
        tier = "wide" if name.startswith("alpha") else "narrow"
        if width.denominator != 1 or width <= 0:
            problems.append(f"{tier} block width {name} = {width} is not a positive integer")
    return problems


def _wide_split(w: FieldMatrix, s: int) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """Column permutation putting s spanning columns first, the permuted
    matrix's leading s columns W1, and the coefficients Q with W1 @ Q equal
    to its remaining columns."""
    perm = leading_block_column_permutation(w, s)
    shuffled = apply_column_permutation(w, perm)
    w1 = shuffled.submatrix(slice(None), slice(0, s))
    w2 = shuffled.submatrix(slice(None), slice(s, w.cols))
    return tuple(perm), w1.data, solve_columns(w1, w2).data


def place(
    instance: ProblemInstance, config: ColConfig, library: Sequence[FieldMatrix]
) -> CacheContents:
    users = [UserCache({}, {}) for _ in range(instance.K)]

    def store(kind: str, i: int, matrix: np.ndarray, layout: ColLayout) -> None:
        for e in layout.entries:
            block = matrix[:, e.cols]
            for k in e.subset:
                users[k - 1].segments[(kind, i, e.subset)] = block

    if instance.a <= 1:
        (layout,) = _layouts(instance)
        for i, w in enumerate(library, start=1):
            store("raw-cols", i, w.data, layout)
        return CacheContents(tuple(users))
    lead_layout, coeff_layout = _layouts(instance)
    perms = {}
    for i, w in enumerate(library, start=1):
        perms[i], lead, coeff = _wide_split(w, instance.s)
        store("raw-cols", i, lead, lead_layout)
        store("coded-Q", i, coeff, coeff_layout)
    for user in users:
        user.metadata["column-permutations"] = perms
    return CacheContents(tuple(users))


def _coeff_multicasts(
    instance: ProblemInstance,
    coeff_layout: ColLayout,
    demands: DemandVector,
    coeffs: Mapping[int, np.ndarray],
    step: str,
    slot: int,
) -> list[Message]:
    """Plain coded multicasts of the cached coefficient blocks each user in the
    subset is missing (slot picks which demanded matrix's coefficients): one
    per (|block subset| + 1)-subset, wide tier first."""
    q, s = instance.field.q, instance.s
    get_block = _block_getter(coeff_layout, coeffs)

    def segment(k: int, rest: tuple[int, ...]) -> np.ndarray:
        return get_block(demands.pair(k)[slot - 1], rest).ravel()

    widths = {len(e.subset): e.width for e in coeff_layout.entries}
    messages = []
    for size, width in widths.items():
        for s_set in subsets_of(instance.K, size + 1):
            messages.append(Message(("col", step, s_set), subset_sum(q, s * width, s_set, segment)))
    return messages


def deliver(
    instance: ProblemInstance,
    config: ColConfig,
    library: Sequence[FieldMatrix],
    demands: DemandVector,
) -> DeliveryTranscript:
    if instance.a <= 1:
        (layout,) = _layouts(instance)
        get_block = _block_getter(layout, {i: w.data for i, w in enumerate(library, start=1)})
        return DeliveryTranscript(tuple(_round_messages(instance, layout, demands, get_block)))
    lead_layout, coeff_layout = _layouts(instance)
    leads: dict[int, np.ndarray] = {}
    coeffs: dict[int, np.ndarray] = {}
    for i in sorted({d for pair in demands.normalized for d in pair}):
        _, leads[i], coeffs[i] = _wide_split(library[i - 1], instance.s)
    messages = _round_messages(instance, lead_layout, demands, _block_getter(lead_layout, leads))
    messages.extend(_coeff_multicasts(instance, coeff_layout, demands, coeffs, "step2", 2))
    messages.extend(_coeff_multicasts(instance, coeff_layout, demands, coeffs, "step3", 1))
    return DeliveryTranscript(tuple(messages))


def _assemble_coeff(
    instance: ProblemInstance,
    coeff_layout: ColLayout,
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

    out = np.zeros((s, coeff_layout.total), dtype=np.int64)
    for e in coeff_layout.entries:
        if k in e.subset:
            flat = cached(k, e.subset)
        else:
            s_set = tuple(sorted(e.subset + (k,)))
            flat = cancel(q, transcript.find(("col", step, s_set)).payload, k, s_set, cached)
        out[:, e.cols] = flat.reshape(s, e.width)
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

    def cache_block(i: int, subset: tuple[int, ...]) -> np.ndarray:
        return cache.get(("raw-cols", i, subset))

    if instance.a <= 1:
        (layout,) = _layouts(instance)
        grid = _decode_grid(instance, layout, k, cache_block, transcript, demands)
        return FieldMatrix(instance.field, grid)
    lead_layout, coeff_layout = _layouts(instance)
    t11 = _decode_grid(instance, lead_layout, k, cache_block, transcript, demands)
    q2 = _assemble_coeff(instance, coeff_layout, k, cache, transcript, demands, "step2", 2)
    t12 = _matmul_mod(t11, q2, q)
    q1 = _assemble_coeff(instance, coeff_layout, k, cache, transcript, demands, "step3", 1)
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
    p = col_params(instance)
    out: dict[str, Fraction] = {}
    for name, total in _column_ranges(instance):
        w1, w2 = tier_widths(p, instance.K, total)
        out[f"alpha*{name}/C(K,t)"] = w1
        if p.alpha < 1:
            out[f"(1-alpha)*{name}/C(K,t+1)"] = w2
    return out


SCHEME = Scheme("col", ColConfig, validate, place, deliver, decode, formula_load, constraints)
