"""Shared-link problem instances, demands, caches, transcripts, and the
place/deliver/decode pipeline with exact load accounting.

A problem instance is (K users, N library matrices of shape s x r over
GF(q), cache size M in matrix units).  User k requests the product
W_{d1}^T W_{d2}; the broadcast cost unit is B = f(r, s, r), the symbol cost
of one such product.  Schemes plug in through the Scheme contract; the
pipeline enforces the cache budget, decodes each user strictly from its own
cache plus the broadcast, and verifies retrieval against direct
multiplication.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import ceil, floor
from typing import Any, Callable, Sequence

import numpy as np

from .compress import DimTriple, PacketHeader, compression_memo, f_len
from .field import (
    DEFAULT_FIELD,
    FieldMatrix,
    FieldSpec,
    derive_seed,
    mat_mul,
    random_matrices,
    uniform_residues,
)

# Sub-seed index reserved for random demand vectors (library matrices use 0..N-1).
_DEMAND_SEED_INDEX = 1 << 32

Label = tuple  # (kind, matrix key, subset) — kind in {raw-rows, raw-cols, coded-Q, product-subfile}


@dataclass(frozen=True)
class ProblemInstance:
    """K users, N matrices of shape s x r over GF(q), cache size M (matrix units)."""

    K: int
    N: int
    s: int
    r: int
    field: FieldSpec = DEFAULT_FIELD
    M: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        if self.K < 1 or self.N < 2 or self.s < 1 or self.r < 1:
            raise ValueError(f"invalid instance dimensions K={self.K} N={self.N} s={self.s} r={self.r}")
        m = Fraction(self.M)
        if not 0 <= m <= self.N:
            raise ValueError(f"cache size M={m} outside [0, N]")
        object.__setattr__(self, "M", m)

    @property
    def a(self) -> Fraction:
        """Column/row aspect ratio a = r/s."""
        return Fraction(self.r, self.s)

    @property
    def B(self) -> int:
        """Symbol cost of one r x r product with inner dimension s: f(r,s,r) = s^2 g(a,a)."""
        return f_len(DimTriple(self.r, self.s, self.r))

    @property
    def cache_budget(self) -> int:
        """Per-user cache capacity in field symbols: floor(M*s*r)."""
        return floor(self.M * self.s * self.r)


def normalize_demand(i: int, j: int) -> tuple[tuple[int, int], bool]:
    """Map a demand to its canonical representative: (i,j) with i<=j plus a
    transpose flag, using W_i^T W_j = (W_j^T W_i)^T."""
    if i <= j:
        return (i, j), False
    return (j, i), True


@dataclass(frozen=True)
class DemandVector:
    """Per-user demanded pairs (1-based matrix indices) with normalization."""

    pairs: tuple[tuple[int, int], ...]
    worst_case_certified: bool = True
    normalized: tuple[tuple[int, int], ...] = field(default=(), repr=False)
    flags: tuple[bool, ...] = field(default=(), repr=False)

    def __post_init__(self) -> None:
        norm, flags = [], []
        for i, j in self.pairs:
            (lo, hi), fl = normalize_demand(i, j)
            norm.append((lo, hi))
            flags.append(fl)
        object.__setattr__(self, "normalized", tuple(norm))
        object.__setattr__(self, "flags", tuple(flags))

    @property
    def K(self) -> int:
        return len(self.pairs)

    def pair(self, k: int) -> tuple[int, int]:
        """Normalized demand of user k (1-based)."""
        return self.normalized[k - 1]

    def transposed(self, k: int) -> bool:
        return self.flags[k - 1]


def product_pairs(N: int) -> list[tuple[int, int]]:
    """All non-isomorphic product index pairs (i, j), i <= j, in lex order."""
    return [(i, j) for i in range(1, N + 1) for j in range(i, N + 1)]


def worst_case_demands(instance: ProblemInstance) -> DemandVector:
    """Demand vector with 2K distinct matrix indices: user k requests (2k-1, 2k).

    When N < 2K that assignment is impossible; users then get distinct
    non-isomorphic products round-robin (disjoint-index pairs first, then
    lexicographically smallest unused pairs) and the vector is flagged
    not worst-case certified.
    """
    k_users, n = instance.K, instance.N
    if n >= 2 * k_users:
        return DemandVector(tuple((2 * k - 1, 2 * k) for k in range(1, k_users + 1)))
    base = [(2 * k - 1, 2 * k) for k in range(1, n // 2 + 1)]
    used = set(base)
    base.extend(p for p in product_pairs(n) if p not in used)
    pairs = tuple(base[k % len(base)] for k in range(k_users))
    return DemandVector(pairs, worst_case_certified=False)


def random_demands(instance: ProblemInstance, seed: int) -> DemandVector:
    """Seeded uniform demand vector over [N]^2 (deterministic)."""
    draws = uniform_residues(derive_seed(seed, _DEMAND_SEED_INDEX), 2 * instance.K, instance.N)
    pairs = tuple((int(draws[2 * i]) + 1, int(draws[2 * i + 1]) + 1) for i in range(instance.K))
    return DemandVector(pairs, worst_case_certified=False)


def build_library(instance: ProblemInstance, seed: int) -> list[FieldMatrix]:
    """The N library matrices; matrix i uses sub-seed derive_seed(seed, i).
    They are drawn together (`random_matrices`) and are read-only."""
    seeds = [derive_seed(seed, i) for i in range(instance.N)]
    return random_matrices(instance.field, instance.s, instance.r, seeds)


@dataclass
class UserCache:
    """One user's cache: labeled symbol segments plus uncounted metadata."""

    segments: dict[Label, np.ndarray]
    metadata: dict[str, Any]

    def total_symbols(self) -> int:
        return sum(seg.size for seg in self.segments.values())

    def get(self, label: Label) -> np.ndarray:
        if label not in self.segments:
            raise KeyError(f"cache segment {label} not present")
        return self.segments[label]


@dataclass
class CacheContents:
    """Caches of all K users (index 0 = user 1)."""

    users: tuple[UserCache, ...]

    def for_user(self, k: int) -> UserCache:
        return self.users[k - 1]

    def totals(self) -> list[int]:
        return [u.total_symbols() for u in self.users]


@dataclass(frozen=True)
class Message:
    """One broadcast message: structured tag, summed payload symbols, and the
    per-user packet headers (rank + basis indices), which travel uncounted."""

    tag: tuple
    payload: np.ndarray
    headers: tuple[tuple[int, tuple[PacketHeader, ...]], ...] = ()

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.payload, dtype=np.int64)
        if arr is self.payload and arr.flags.writeable:
            arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "payload", arr)

    @cached_property  # headers are immutable; reports and digests ask often
    def header_bytes(self) -> int:
        return sum(4 + 4 * rank for _, packets in self.headers for rank, _ in packets)

    def headers_for(self, k: int) -> tuple[PacketHeader, ...]:
        for user, packets in self.headers:
            if user == k:
                return packets
        raise KeyError(f"no packet headers for user {k} in message {self.tag}")

    def payload_digest(self) -> str:
        return hashlib.sha256(self.payload.astype("<i8").tobytes()).hexdigest()


def _tag_str(part) -> str:
    if isinstance(part, tuple):
        return "{" + ",".join(_tag_str(p) for p in part) + "}"
    return str(part)


def format_tag(tag: tuple) -> str:
    return ":".join(_tag_str(p) for p in tag)


@dataclass(frozen=True)
class DeliveryTranscript:
    """Ordered broadcast messages with unique tags; immutable after creation."""

    messages: tuple[Message, ...]
    _index: dict[tuple, Message] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        index: dict[tuple, Message] = {}
        for m in self.messages:
            if m.tag in index:
                raise ValueError(f"duplicate message tag {format_tag(m.tag)}")
            index[m.tag] = m
        object.__setattr__(self, "_index", index)

    def find(self, tag: tuple) -> Message:
        if tag not in self._index:
            raise KeyError(f"missing message for tag {format_tag(tag)}")
        return self._index[tag]

    @property
    def total_payload_symbols(self) -> int:
        return sum(m.payload.size for m in self.messages)

    @property
    def total_header_bytes(self) -> int:
        return sum(m.header_bytes for m in self.messages)

    def digest(self) -> str:
        h = hashlib.sha256()
        for m in self.messages:
            h.update(format_tag(m.tag).encode())
            h.update(m.payload.astype("<i8").tobytes())
            h.update(m.header_bytes.to_bytes(8, "little"))
        return h.hexdigest()

    def dump_lines(self) -> list[str]:
        """Debug dump: one line per message — tag, payload length, header bytes, payload digest."""
        return [
            f"{format_tag(m.tag)}\t{m.payload.size}\t{m.header_bytes}\t{m.payload_digest()}"
            for m in self.messages
        ]


@dataclass(frozen=True)
class LoadReport:
    """Broadcast cost: payload symbols (load-bearing) and header overhead (informational)."""

    total_payload_symbols: int
    B: int
    load: Fraction
    header_overhead_symbols: int

    def __post_init__(self) -> None:
        if self.load < 0:
            raise ValueError("load must be non-negative")


def measure_load(transcript: DeliveryTranscript, B: int, symbol_bytes: int = 4) -> LoadReport:
    """Exact load = total payload symbols / B; headers converted to whole symbols."""
    if B <= 0:
        raise ValueError("B must be positive")
    total = transcript.total_payload_symbols
    header_syms = ceil(transcript.total_header_bytes / symbol_bytes)
    return LoadReport(total, B, Fraction(total, B), header_syms)


def verify_retrieval(
    instance: ProblemInstance,
    library: Sequence[FieldMatrix],
    demands: DemandVector,
    decoded: Sequence[FieldMatrix],
) -> bool:
    """True iff every user's decoded matrix equals W_{d1}^T W_{d2} entrywise
    (original demand order, transpose flag already applied)."""
    if len(decoded) != demands.K:
        return False
    for k in range(1, demands.K + 1):
        d1, d2 = demands.pairs[k - 1]
        truth = mat_mul(library[d1 - 1].transpose(), library[d2 - 1])
        if decoded[k - 1] != truth:
            return False
    return True


class SchemeParameterError(ValueError):
    """Raised when a scheme's parameter validation fails."""

    def __init__(self, problems: Sequence[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass(frozen=True)
class Scheme:
    """The place/deliver/decode contract a caching scheme implements.

    decode receives only (instance, config, user index, that user's cache,
    transcript, demands) — never the library — so end-to-end verification is
    meaningful.  validate lists the reasons a configuration is not realizable
    (the shape suggester scans for a shape it accepts).  configure(instance,
    t, ell) builds the config from a cell's free parameters, deriving an
    omitted one where a natural choice exists; corners(K, N, a) lists the
    (M, t, ell) of every corner configuration the verification matrix runs.
    """

    name: str
    configure: Callable[[ProblemInstance, int | None, int | None], Any]
    corners: Callable[[int, int, Fraction], list[tuple[Fraction, int | None, int | None]]]
    validate: Callable[[ProblemInstance, Any], list[str]]
    place: Callable[[ProblemInstance, Any, Sequence[FieldMatrix]], CacheContents]
    deliver: Callable[[ProblemInstance, Any, Sequence[FieldMatrix], DemandVector], DeliveryTranscript]
    decode: Callable[[ProblemInstance, Any, int, UserCache, DeliveryTranscript, DemandVector], FieldMatrix]
    formula_load: Callable[[ProblemInstance, Any], Fraction]


@dataclass(frozen=True)
class RunResult:
    instance: ProblemInstance
    config: Any
    seed: int
    demands: DemandVector
    library: list[FieldMatrix]
    cache: CacheContents
    transcript: DeliveryTranscript
    report: LoadReport
    decoded: list[FieldMatrix]
    verified: bool


def get_scheme(name: str) -> Scheme:
    from . import schemes

    if name not in schemes.SCHEMES:
        raise KeyError(f"unknown scheme {name!r}; available: {sorted(schemes.SCHEMES)}")
    return schemes.SCHEMES[name]


def run_scheme(
    scheme: Scheme | str,
    instance: ProblemInstance,
    config: Any,
    seed: int,
    demands: DemandVector | None = None,
) -> RunResult:
    """Full pipeline: validate, place, deliver, decode every user, verify.

    Place, deliver and decode share one `compression_memo`, so a product
    that the server and a decoder each compute, or two decoders, is
    compressed once per call; each still computes the product itself.  The
    memo is emptied when the call returns or raises.

    Raises SchemeParameterError when validation fails and RuntimeError when a
    placement exceeds the cache budget (a scheme bug, not a user error).
    """
    if isinstance(scheme, str):
        scheme = get_scheme(scheme)
    problems = scheme.validate(instance, config)
    if problems:
        raise SchemeParameterError(problems)
    if demands is None:
        demands = worst_case_demands(instance)
    if demands.K != instance.K:
        raise ValueError(f"demand vector has {demands.K} users, instance has {instance.K}")
    if any(not 1 <= d <= instance.N for pair in demands.pairs for d in pair):
        raise ValueError("demand index outside [1, N]")
    library = build_library(instance, seed)
    with compression_memo():
        cache = scheme.place(instance, config, library)
        budget = instance.cache_budget
        for k, total in enumerate(cache.totals(), start=1):
            if total > budget:
                raise RuntimeError(f"user {k} cache {total} symbols exceeds budget {budget}")
        transcript = scheme.deliver(instance, config, library, demands)
        decoded = []
        for k in range(1, instance.K + 1):
            out = scheme.decode(instance, config, k, cache.for_user(k), transcript, demands)
            if demands.transposed(k):
                out = out.transpose()
            decoded.append(out)
    report = measure_load(transcript, instance.B, instance.field.symbol_bytes)
    verified = verify_retrieval(instance, library, demands, decoded)
    return RunResult(instance, config, seed, demands, library, cache, transcript, report, decoded, verified)

