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

For wide matrices (r > s) each matrix is first column-permuted so its
leading s columns span it; those columns get the treatment above, while the
remaining r - s columns are represented by cached coefficient blocks Q with
W1 @ Q = W2, placed by their own MAN split, delivered by its plain coded
multicasts and combined locally.  Matrices with r <= s have no coefficient
split.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
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
Groups = dict[tuple[int, ...], list[tuple[Block, Block]]]


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
    both ends of the link)."""
    groups: Groups = {}
    for b1 in split.blocks:
        for b2 in split.blocks:
            v_set = tuple(u for u in b1.subset if u in b2.subset)
            groups.setdefault(v_set, []).append((b1, b2))
    return groups


def _block_getter(split: ManSplit, matrices: Mapping[int, np.ndarray]) -> BlockGetter:
    """Block (matrix index, user subset) -> columns of that matrix."""
    return lambda i, subset: matrices[i][:, split.by_subset[subset].span]


def _group_packet(
    instance: ProblemInstance,
    groups: Groups,
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
    for b1, b2 in groups.get(v_set, ()):
        prod = _matmul_mod(get_block(d1, b1.subset).T, get_block(d2, b2.subset), q)
        cp = compress_product(FieldMatrix(instance.field, prod), instance.s)
        packets.append(packet_symbols(cp))
        headers.append((cp.rank, cp.basis_row_indices))
    packet = np.concatenate(packets) if packets else np.zeros(0, dtype=np.int64)
    return packet, tuple(headers)


def _round_messages(
    instance: ProblemInstance,
    split: ManSplit,
    demands: DemandVector,
    get_block: BlockGetter,
) -> list[Message]:
    """Round i sends, to every (i+1)-subset S, the subset sum of each member's
    group for the intersection set S minus that member."""
    q, K = instance.field.q, instance.K
    groups = intersection_groups(split)
    messages = []
    for i in range(1 + max(len(v_set) for v_set in groups)):
        for s_set in subsets_of(K, i + 1):
            packets = {
                k: _group_packet(instance, groups, demands.pair(k), without(s_set, k), get_block)
                for k in s_set
            }
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
    """Reassemble user k's full cross-product grid group by group.  User k
    caches both blocks of a pair exactly when k is in their intersection V,
    so those groups are computed locally; every other group is cancelled out
    of the round message for V + {k}."""
    q = instance.field.q
    d1, d2 = demands.pair(k)
    groups = intersection_groups(split)

    def peer_packet(p: int, rest: tuple[int, ...]) -> np.ndarray:
        return _group_packet(instance, groups, demands.pair(p), rest, cache_block)[0]

    def message(s_set: tuple[int, ...]) -> Message:
        return transcript.find(("col", len(s_set) - 1, s_set))

    grid = np.zeros((split.total, split.total), dtype=np.int64)
    packets = recover(q, k, groups, lambda s_set: message(s_set).payload, peer_packet)
    for (v_set, pairs), packet in zip(groups.items(), packets):
        if packet is None:
            for b1, b2 in pairs:
                block = _matmul_mod(cache_block(d1, b1.subset).T, cache_block(d2, b2.subset), q)
                grid[b1.span, b2.span] = block
            continue
        headers = message(tuple(sorted(v_set + (k,)))).headers_for(k)
        pos = 0
        for (b1, b2), (rank, basis) in zip(pairs, headers, strict=True):
            dims = DimTriple(b1.width, instance.s, b2.width)
            step = f_len(dims)
            cp = CompressedProduct.from_packet(
                instance.field, dims, rank, tuple(basis), packet[pos : pos + step]
            )
            grid[b1.span, b2.span] = decompress_product(cp).data
            pos += step
        if pos != packet.size:
            raise AssertionError("group payload length mismatch")
    return grid


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
        perms[i], lead_cols, coeffs = _wide_split(w, instance.s)
        store("raw-cols", i, lead_cols, lead)
        store("coded-Q", i, coeffs, coeff)
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
            _, leads[i], coeffs[i] = _wide_split(library[i - 1], s)
    messages = _round_messages(instance, lead, demands, _block_getter(lead, leads))
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
