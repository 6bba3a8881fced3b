"""Experiment orchestration: config parsing, shape suggestion, simulation
cells, analysis curves, CSV emission, parallel sweeps, and the verification
suite shared by the CLI and the acceptance tests.

All outputs are deterministic functions of (configuration, seed): reports
carry exact rationals as "num/den" strings with float companions, CSV files
are written atomically, and sweep row order is sorted by cell key so the
parallelism level never changes a byte.
"""

from __future__ import annotations

import csv
import io
import itertools
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import comb
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from . import bounds
from .compress import DimTriple, compress_product, decompress_product, f_len
from .field import (
    DEFAULT_FIELD,
    FieldSpec,
    derive_seed,
    mat_mul,
    random_matrix,
    single_blas_thread,
    uniform_residues,
)
from .model import (
    DeliveryTranscript,
    DemandVector,
    Message,
    ProblemInstance,
    Scheme,
    SchemeParameterError,
    get_scheme,
    random_demands,
    run_scheme,
    worst_case_demands,
)
from .schemes import SCHEMES
from .schemes.col import _layout
from .schemes.common import man_split

SCHEME_NAMES = tuple(SCHEMES)


class ConfigurationError(ValueError):
    """Invalid experiment configuration (unknown key, missing field, bad value)."""


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigurationError(f"cannot parse rational value {text!r}") from exc


# Equal values share one string, so a caller that keeps many reports (a
# sweep, a benchmark loop) holds each load string once.
@lru_cache(maxsize=4096)
def fraction_str(value: Fraction) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------------------
# Experiment specification


@dataclass(frozen=True)
class ExperimentSpec:
    """One simulation cell: instance parameters, scheme selection, seed, demands.

    Either (s, r) or the aspect ratio a must be given; with only a, the shape
    suggester picks the minimal (s, r) satisfying the scheme's constraints.
    demands is "worst", "random", or explicit per-user pairs "1,2;3,4".
    """

    scheme: str
    K: int
    N: int
    M: Fraction
    s: int | None = None
    r: int | None = None
    a: Fraction | None = None
    q: int = DEFAULT_FIELD.q
    t: int | None = None
    ell: int | None = None
    seed: int = 0
    demands: str = "worst"

    def __post_init__(self) -> None:
        if self.scheme not in SCHEME_NAMES:
            raise ConfigurationError(
                f"unknown scheme {self.scheme!r}; choose from {', '.join(SCHEME_NAMES)}"
            )
        object.__setattr__(self, "M", Fraction(self.M))
        if self.a is not None:
            object.__setattr__(self, "a", Fraction(self.a))

    def sort_key(self) -> tuple:
        """Every setting of the cell, `a` last, each as (set, value): an unset
        value sorts before every set one.  Sweeps deduplicate on this key."""
        values = (getattr(self, key) for key in (*SWEEP_SETTINGS, "a"))
        return tuple((value is not None, 0 if value is None else value) for value in values)


_SPEC_INT_KEYS = {"K", "N", "s", "r", "q", "t", "ell", "seed"}
_SPEC_KEYS = _SPEC_INT_KEYS | {"scheme", "M", "a", "demands"}


def parse_config_file(path: str | Path) -> dict[str, str]:
    """key=value lines; blank lines and '#' comments ignored."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key] = value
    return values


def spec_from_mapping(values: Mapping[str, str]) -> ExperimentSpec:
    unknown = set(values) - _SPEC_KEYS
    if unknown:
        raise ConfigurationError(f"unknown config keys: {', '.join(sorted(unknown))}")
    kwargs: dict = {}
    for key, text in values.items():
        if text is None or text == "":
            continue
        if key in _SPEC_INT_KEYS:
            try:
                kwargs[key] = int(text)
            except ValueError as exc:
                raise ConfigurationError(f"{key} must be an integer, got {text!r}") from exc
        elif key in ("M", "a"):
            kwargs[key] = parse_fraction(text)
        else:
            kwargs[key] = text
    for required in ("scheme", "K", "N", "M"):
        if required not in kwargs:
            raise ConfigurationError(f"missing required setting {required!r}")
    return ExperimentSpec(**kwargs)


# ---------------------------------------------------------------------------
# Scheme configuration and shape suggestion


def build_scheme_config(spec: ExperimentSpec, instance: ProblemInstance):
    """Concrete scheme config from the spec; the scheme derives an omitted
    parameter where a unique natural choice exists (see `Scheme.configure`)."""
    return get_scheme(spec.scheme).configure(instance, spec.t, spec.ell)


def _first_valid_shape(
    spec: ExperimentSpec, shapes: Iterable[tuple[int, int]]
) -> tuple[int, int] | None:
    """First (s, r) in `shapes` whose instance and config pass the scheme's
    validator; None if none does or the scan reaches a shape that cannot be built."""
    field_spec = FieldSpec(spec.q)
    scheme = get_scheme(spec.scheme)
    for s, r in shapes:
        try:
            instance = ProblemInstance(spec.K, spec.N, s, r, field_spec, spec.M)
            config = build_scheme_config(spec, instance)
        except (ValueError, SchemeParameterError):
            return None
        if not scheme.validate(instance, config):
            return (s, r)
    return None


def suggest_shape(spec: ExperimentSpec, max_scale: int = 4096) -> tuple[int, int] | None:
    """Minimal (s, r) with r/s = a satisfying the scheme's validator, or None."""
    if spec.a is None:
        return None
    num, den = spec.a.numerator, spec.a.denominator
    return _first_valid_shape(spec, ((den * k, num * k) for k in range(1, max_scale + 1)))


def suggest_rescale(spec: ExperimentSpec, max_factor: int = 256) -> tuple[int, int] | None:
    """Smallest integer multiple of the given (s, r) passing validation."""
    if spec.s is None or spec.r is None:
        return None
    return _first_valid_shape(
        spec, ((spec.s * k, spec.r * k) for k in range(2, max_factor + 1))
    )


def resolve_instance(spec: ExperimentSpec) -> ProblemInstance:
    """The cell's instance; a bad field, size, memory or ratio is a ConfigurationError."""
    if (spec.s is None) != (spec.r is None):
        raise ConfigurationError("give both s and r, or neither (with a for the suggester)")
    if spec.s is None and spec.a is None:
        raise ConfigurationError("either (s, r) or the aspect ratio a is required")
    # With a alone, its base shape checks every shape-independent value before
    # the suggester scans multiples of it.
    s, r = (spec.s, spec.r) if spec.s is not None else (spec.a.denominator, spec.a.numerator)
    try:
        instance = ProblemInstance(spec.K, spec.N, s, r, FieldSpec(spec.q), spec.M)
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc
    if spec.s is not None:
        return instance
    shape = suggest_shape(spec)
    if shape is None:
        raise SchemeParameterError(
            [
                f"no (s, r) with r/s = {spec.a} satisfies the {spec.scheme} constraints "
                f"at K={spec.K} N={spec.N} M={spec.M}"
            ]
        )
    return replace(instance, s=shape[0], r=shape[1])


def make_demands(instance: ProblemInstance, mode: str, seed: int) -> DemandVector:
    if mode == "worst":
        return worst_case_demands(instance)
    if mode == "random":
        return random_demands(instance, seed)
    try:
        pairs = tuple(
            (int(i), int(j))
            for i, j in (part.split(",") for part in mode.split(";") if part.strip())
        )
    except ValueError as exc:
        raise ConfigurationError(
            f"demands must be 'worst', 'random', or pairs like '1,2;3,4', got {mode!r}"
        ) from exc
    if len(pairs) != instance.K:
        raise ConfigurationError(f"{len(pairs)} demand pairs for K={instance.K} users")
    if any(not 1 <= d <= instance.N for pair in pairs for d in pair):
        raise ConfigurationError(f"demand index outside [1, N={instance.N}] in {mode!r}")
    return DemandVector(pairs, worst_case_certified=False)


# ---------------------------------------------------------------------------
# Simulation cells


def run_cell(spec: ExperimentSpec):
    """Run one cell end to end; returns (JSON-ready report, full RunResult)."""
    instance = resolve_instance(spec)
    config = build_scheme_config(spec, instance)
    demands = make_demands(instance, spec.demands, spec.seed)
    result = run_scheme(spec.scheme, instance, config, spec.seed, demands)
    scheme = get_scheme(spec.scheme)
    formula = scheme.formula_load(instance, config)
    config_fields = dict(vars(config))
    report = {
        "scheme": spec.scheme,
        "K": instance.K,
        "N": instance.N,
        "s": instance.s,
        "r": instance.r,
        "q": instance.field.q,
        "M": fraction_str(instance.M),
        "a": fraction_str(instance.a),
        "B": instance.B,
        "config": config_fields,
        "seed": spec.seed,
        "demand_mode": spec.demands,
        "demands": [list(pair) for pair in result.demands.pairs],
        "worst_case_certified": result.demands.worst_case_certified,
        "messages": len(result.transcript.messages),
        "payload_symbols": result.report.total_payload_symbols,
        "header_bytes": result.transcript.total_header_bytes,
        "header_overhead_symbols": result.report.header_overhead_symbols,
        "load": fraction_str(result.report.load),
        "load_float": float(result.report.load),
        "formula_load": fraction_str(formula),
        "formula_matches": formula == result.report.load,
        "max_cache_symbols": max(result.cache.totals()),
        "cache_budget_symbols": instance.cache_budget,
        "verified": result.verified,
        "transcript_digest": result.transcript.digest(),
    }
    return report, result


def simulate_cell(spec: ExperimentSpec) -> dict:
    """Run one cell end to end and return the JSON-ready report."""
    return run_cell(spec)[0]


# ---------------------------------------------------------------------------
# Analysis curves


# The achievable loads `analyze` plots: each curve column and its closed form
# at (K, N, a, M).  `row_ell`, the class count of the best row load, follows
# the R_row columns.
ACHIEVABLE_LOADS: dict[str, Callable[[int, int, Fraction, Fraction], Fraction]] = {
    "R_sa": bounds.load_sa,
    "R1": bounds.load_R1,
    "R2": bounds.load_R2,
    "R_row": lambda K, N, a, M: bounds.load_Rrow(K, N, a, M)[0],
    "R_col": bounds.load_Rcol,
}
CURVE_SERIES = (*ACHIEVABLE_LOADS, "cutset", "genie", "simulated")
CURVE_COLUMNS = [
    column
    for name in ("M", *CURVE_SERIES)
    for column in (name, name + "_float", *(("row_ell",) if name == "R_row" else ()))
]


def _put(row: dict[str, str], name: str, value: Fraction | None) -> None:
    if value is None:
        row[name] = ""
        row[name + "_float"] = ""
    else:
        row[name] = fraction_str(value)
        row[name + "_float"] = repr(float(value))


def curve_rows(
    K: int,
    N: int,
    a: Fraction,
    grid: int = 40,
    simulate_scheme: str | None = None,
    seed: int = 0,
    max_scale: int = 32,
) -> list[dict[str, str]]:
    """One CurveRow per grid memory M = j*N/grid, j in [0, grid]: every scheme
    formula, both converse bounds (genie blank outside its regime), and an
    optional simulated column filled where the chosen scheme has a realizable
    configuration within the scale cap."""
    a = Fraction(a)
    genie_ok = a >= 1 and N >= 2 * K
    rows = []
    for j in range(grid + 1):
        M = Fraction(j * N, grid)
        row: dict[str, str] = {}
        _put(row, "M", M)
        for name, load in ACHIEVABLE_LOADS.items():
            _put(row, name, load(K, N, a, M))
        row["row_ell"] = str(bounds.load_Rrow(K, N, a, M)[1])
        _put(row, "cutset", bounds.cutset_bound(K, N, a, M))
        _put(row, "genie", bounds.genie_converse(K, N, a, M) if genie_ok else None)
        simulated = None
        if simulate_scheme is not None:
            simulated = _simulate_grid_point(simulate_scheme, K, N, a, M, seed, max_scale)
        _put(row, "simulated", simulated)
        rows.append(row)
    return rows


def _simulate_grid_point(
    scheme: str, K: int, N: int, a: Fraction, M: Fraction, seed: int, max_scale: int
) -> Fraction | None:
    spec = ExperimentSpec(scheme=scheme, K=K, N=N, M=M, a=a, seed=seed)
    try:
        shape = suggest_shape(spec, max_scale=max_scale)
        if shape is None:
            return None
        report = simulate_cell(replace(spec, s=shape[0], r=shape[1], a=None))
    except (SchemeParameterError, ConfigurationError):
        return None
    if not report["verified"]:
        raise RuntimeError(f"simulated grid point failed verification: {report}")
    return parse_fraction(report["load"])


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a temp file and atomic rename; no partial output on failure."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def csv_text(columns: Sequence[str], rows: Iterable[Mapping[str, object]]) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(columns), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({col: row.get(col, "") for col in columns})
    return buffer.getvalue()


def write_curve_csv(path: str | Path, rows: list[dict[str, str]]) -> None:
    atomic_write_text(path, csv_text(CURVE_COLUMNS, rows))


def curve_svg(rows: list[dict[str, str]], title: str) -> str:
    from .svg import line_chart

    series = []
    for name in CURVE_SERIES:
        pts = []
        for row in rows:
            x = float(row["M_float"])
            y = float(row[name + "_float"]) if row[name + "_float"] else None
            pts.append((x, y))
        if any(y is not None for _, y in pts):
            series.append((name, pts))
    return line_chart(series, title, "memory M (matrix units)", "load R (units of B)")


# ---------------------------------------------------------------------------
# Sweeps

# A sweep row: the cell's settings ("" for one left unset), then the keys
# `sweep_row` copies from the cell's report, then the error of a failed cell.
SWEEP_SETTINGS = ("scheme", "K", "N", "s", "r", "q", "M", "t", "ell", "seed", "demands")
SWEEP_REPORT_KEYS = (
    "B",
    "messages",
    "payload_symbols",
    "header_bytes",
    "load",
    "load_float",
    "formula_load",
    "formula_matches",
    "verified",
    "transcript_digest",
)
SWEEP_COLUMNS = [*SWEEP_SETTINGS, *SWEEP_REPORT_KEYS, "error"]


def _expand_value(key: str, text: str) -> list[str]:
    if key == "demands":  # demand lists carry commas of their own
        return [text.strip()]
    parts = [p.strip() for p in text.split(",") if p.strip()]
    out: list[str] = []
    for part in parts:
        if ".." in part:
            lo_text, hi_text = part.split("..", 1)
            try:
                lo, hi = int(lo_text), int(hi_text)
            except ValueError as exc:
                raise ConfigurationError(f"bad range {part!r} (expected lo..hi)") from exc
            if hi < lo:
                raise ConfigurationError(f"empty range {part!r}")
            out.extend(str(v) for v in range(lo, hi + 1))
        else:
            out.append(part)
    return out


def expand_sweep_cells(mappings: Sequence[Mapping[str, str]]) -> list[ExperimentSpec]:
    """Cartesian-expand multi-valued keys (comma lists, lo..hi integer ranges),
    deduplicate, and sort by cell key for deterministic output order."""
    cells: dict[tuple, ExperimentSpec] = {}
    for mapping in mappings:
        keys = list(mapping)
        choices = [_expand_value(key, mapping[key]) for key in keys]
        for combo in itertools.product(*choices):
            spec = spec_from_mapping(dict(zip(keys, combo)))
            cells[spec.sort_key()] = spec
    return [cells[key] for key in sorted(cells)]


def sweep_row(spec: ExperimentSpec) -> dict[str, object]:
    row: dict[str, object] = {
        key: "" if (value := getattr(spec, key)) is None else value for key in SWEEP_SETTINGS
    }
    row.update(M=fraction_str(spec.M), error="")
    try:
        report = simulate_cell(spec)
    except Exception as exc:  # one failing cell must not lose the other rows
        row["verified"] = False
        row["error"] = f"{type(exc).__name__}: {exc}"
        return row
    row.update((key, report[key]) for key in ("s", "r", *SWEEP_REPORT_KEYS))
    row["load_float"] = repr(report["load_float"])
    return row


def run_sweep(cells: Sequence[ExperimentSpec], parallel: int = 1) -> list[dict[str, object]]:
    """Run cells (already deduplicated/sorted) and return rows in cell order
    regardless of completion order or worker count.  At most one worker per
    CPU and per cell is started, whatever `parallel` asks for, and each
    worker runs its BLAS products on one thread."""
    workers = min(parallel, os.cpu_count() or 1, len(cells))
    if workers <= 1:
        return [sweep_row(cell) for cell in cells]
    with ProcessPoolExecutor(max_workers=workers, initializer=single_blas_thread) as pool:
        return list(pool.map(sweep_row, cells))


def sweep_csv(cells: Sequence[ExperimentSpec], parallel: int = 1) -> str:
    return csv_text(SWEEP_COLUMNS, run_sweep(cells, parallel))


# ---------------------------------------------------------------------------
# Corner enumeration for the verification matrix


@dataclass(frozen=True)
class CornerCell:
    """One simulatable corner: scheme, memory, and scheme parameters."""

    scheme: str
    K: int
    N: int
    a: Fraction
    M: Fraction
    t: int | None = None
    ell: int | None = None

    def spec(self, s: int, r: int, seed: int) -> ExperimentSpec:
        return ExperimentSpec(
            scheme=self.scheme,
            K=self.K,
            N=self.N,
            M=self.M,
            s=s,
            r=r,
            t=self.t,
            ell=self.ell,
            seed=seed,
        )


def corner_cells(K: int, N: int, a: Fraction) -> list[CornerCell]:
    """Every corner configuration of every scheme at (K, N, a), scheme by
    scheme in registry order (see `Scheme.corners`)."""
    a = Fraction(a)
    return [
        CornerCell(name, K, N, a, M, t, ell)
        for name, scheme in SCHEMES.items()
        for M, t, ell in scheme.corners(K, N, a)
    ]


def corner_shape(cell: CornerCell, max_scale: int = 4096) -> tuple[int, int] | None:
    probe = ExperimentSpec(
        scheme=cell.scheme, K=cell.K, N=cell.N, M=cell.M, a=cell.a, t=cell.t, ell=cell.ell
    )
    return suggest_shape(probe, max_scale=max_scale)


def tampered(scheme: Scheme) -> Scheme:
    """Fault-injection wrapper: corrupt one payload symbol of the first
    non-empty delivery message (verification must then fail)."""
    original = scheme.deliver

    def deliver(instance, config, library, demands) -> DeliveryTranscript:
        transcript = original(instance, config, library, demands)
        messages = list(transcript.messages)
        for idx, message in enumerate(messages):
            if message.payload.size:
                corrupted = message.payload.copy()
                corrupted[0] = (int(corrupted[0]) + 1) % instance.field.q
                messages[idx] = Message(message.tag, corrupted, message.headers)
                break
        return DeliveryTranscript(tuple(messages))

    return replace(scheme, deliver=deliver)


# ---------------------------------------------------------------------------
# Verification suite (shared by `verify` command and acceptance tests)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def parse_instances(text: str) -> list[tuple[int, int, Fraction]]:
    """Parse a verification matrix like "2,4,1;4,20,1/2" into (K, N, a) triples."""
    combos = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        fields = [p.strip() for p in part.split(",")]
        if len(fields) != 3:
            raise ConfigurationError(f"instance {part!r} must be K,N,a")
        try:
            K, N, a = int(fields[0]), int(fields[1]), Fraction(fields[2])
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigurationError(f"cannot parse instance {part!r}") from exc
        if K < 1 or N < 2 or a <= 0:
            raise ConfigurationError(f"instance {part!r} needs K >= 1, N >= 2 and a > 0")
        combos.append((K, N, a))
    return combos


def default_matrix() -> list[tuple[int, int, Fraction]]:
    return [
        (K, N, a)
        for K in (2, 3, 4)
        for N in (4, 8, 20)
        for a in (Fraction(1, 2), Fraction(1), Fraction(2))
    ]


def check_row_comparison_point() -> CheckResult:
    """Row-partition loads per ell plus the analytic comparison values at the
    (K=4, N=20, a=1/2, M=10) reference point."""
    failures: list[str] = []
    instance = ProblemInstance(K=4, N=20, s=12, r=6, M=Fraction(10))
    expected = {1: Fraction(4), 2: Fraction(2), 3: Fraction(40, 9), 4: Fraction(20, 9)}
    for ell, want in expected.items():
        report = simulate_cell(
            ExperimentSpec(scheme="row", K=4, N=20, M=Fraction(10), s=12, r=6, ell=ell, seed=3)
        )
        got = parse_fraction(report["load"])
        if not report["verified"]:
            failures.append(f"ell={ell} failed verification")
        if got != want:
            failures.append(f"ell={ell} load {got} != {want}")
        if parse_fraction(report["formula_load"]) != want:
            failures.append(f"ell={ell} formula {report['formula_load']} != {want}")
    if bounds.load_Rrow(4, 20, Fraction(1, 2), 10) != (Fraction(2), 2):
        failures.append("best (load, ell) != (2, 2)")
    for name, func, want in (
        ("R1", bounds.load_R1, Fraction(3)),
        ("R2", bounds.load_R2, Fraction(8, 3)),
        ("R_sa", bounds.load_sa, Fraction(64, 21)),
    ):
        got = func(instance.K, instance.N, instance.a, instance.M)
        if got != want:
            failures.append(f"{name} = {got} != {want}")
    detail = "; ".join(failures) if failures else (
        "row loads [4, 2, 40/9, 20/9], best (2, ell=2); R1=3, R2=8/3, R_sa=64/21"
    )
    return CheckResult("row-comparison-point", not failures, detail)


def check_col_comparison_point() -> CheckResult:
    """Column-partition load 16/9 and per-round payload totals s^2/6 + s^2/4 +
    s^2/36 at the same reference point."""
    failures: list[str] = []
    report, result = run_cell(
        ExperimentSpec(scheme="col", K=4, N=20, M=Fraction(10), s=12, r=6, seed=3)
    )
    if not report["verified"]:
        failures.append("verification failed")
    if parse_fraction(report["load"]) != Fraction(16, 9):
        failures.append(f"load {report['load']} != 16/9")
    round_totals: dict[int, int] = {}
    for message in result.transcript.messages:
        round_totals[message.tag[1]] = round_totals.get(message.tag[1], 0) + message.payload.size
    s2 = result.instance.s**2
    want_rounds = {0: s2 // 6, 1: s2 // 4, 2: s2 // 36}
    if round_totals != want_rounds:
        failures.append(f"round totals {round_totals} != {want_rounds}")
    detail = "; ".join(failures) if failures else (
        f"load 16/9; round payload totals {want_rounds} (= s^2/6, s^2/4, s^2/36)"
    )
    return CheckResult("col-comparison-point", not failures, detail)


def check_wide_fixture(seeds: int = 20) -> CheckResult:
    """Wide-matrix fixture (K=2, N=4, s=2, r=4, M=2): 9 payload symbols split
    5+2+2 across the three delivery steps; exact decode over many seeds."""
    failures: list[str] = []
    spec = ExperimentSpec(scheme="col", K=2, N=4, M=Fraction(2), s=2, r=4, seed=0)
    instance = resolve_instance(spec)
    config = build_scheme_config(spec, instance)
    for seed in range(seeds):
        result = run_scheme("col", instance, config, seed)
        if not result.verified:
            failures.append(f"seed {seed} failed verification")
            continue
        if result.report.total_payload_symbols != 9:
            failures.append(f"seed {seed}: {result.report.total_payload_symbols} symbols != 9")
        steps = {"grid": 0, "step2": 0, "step3": 0}
        for message in result.transcript.messages:
            kind = message.tag[1]
            key = kind if kind in ("step2", "step3") else "grid"
            steps[key] += message.payload.size
        if (steps["grid"], steps["step2"], steps["step3"]) != (5, 2, 2):
            failures.append(f"seed {seed}: step split {steps} != 5+2+2")
    detail = "; ".join(failures[:5]) if failures else f"9 symbols (5+2+2), {seeds} seeds exact"
    return CheckResult("wide-matrix-fixture", not failures, detail)


def check_square_fixtures() -> CheckResult:
    """Square fixture (K=2, N=4, s=r=2, M=2): column scheme 5 symbols, row
    scheme (ell=2) a single 3-symbol packet, agnostic envelope 28/5 symbols."""
    failures: list[str] = []
    col = simulate_cell(ExperimentSpec(scheme="col", K=2, N=4, M=Fraction(2), s=2, r=2, seed=5))
    if not col["verified"] or col["payload_symbols"] != 5:
        failures.append(f"col: {col['payload_symbols']} symbols != 5 or unverified")
    row = simulate_cell(
        ExperimentSpec(scheme="row", K=2, N=4, M=Fraction(2), s=2, r=2, ell=2, seed=5)
    )
    if not row["verified"] or row["payload_symbols"] != 3 or row["messages"] != 1:
        failures.append(f"row: {row['messages']} messages/{row['payload_symbols']} symbols != 1/3")
    envelope_symbols = bounds.load_sa(2, 4, 1, 2) * 4  # B = f(2,2,2) = 4
    if envelope_symbols != Fraction(28, 5):
        failures.append(f"agnostic envelope {envelope_symbols} != 28/5 symbols")
    detail = "; ".join(failures) if failures else "col 5 symbols, row 3 symbols, envelope 28/5"
    return CheckResult("square-fixtures", not failures, detail)


def corner_fuzz(
    combos: Sequence[tuple[int, int, Fraction]],
    seeds: int = 20,
    fault_inject: bool = False,
) -> tuple[CheckResult, CheckResult]:
    """Simulate every corner configuration of every scheme over the matrix:
    (a) retrieval verifies and caches stay within budget; (b) measured load
    equals the closed-form value exactly."""
    fuzz_failures: list[str] = []
    parity_failures: list[str] = []
    cells = 0
    for K, N, a in combos:
        for cell in corner_cells(K, N, a):
            shape = corner_shape(cell)
            if shape is None:
                fuzz_failures.append(f"{cell}: no realizable shape")
                continue
            cells += 1
            scheme = get_scheme(cell.scheme)
            if fault_inject:
                scheme = tampered(scheme)
            spec = cell.spec(shape[0], shape[1], 0)
            instance = resolve_instance(spec)
            config = build_scheme_config(spec, instance)
            formula = get_scheme(cell.scheme).formula_load(instance, config)
            for seed_index in range(seeds):
                seed = derive_seed(2_000_000 + cells, seed_index)
                result = run_scheme(scheme, instance, config, seed)
                if not result.verified:
                    fuzz_failures.append(f"{cell} seed {seed_index}: verification failed")
                    break
                if max(result.cache.totals()) > instance.cache_budget:
                    fuzz_failures.append(f"{cell} seed {seed_index}: cache over budget")
                    break
                if result.report.load != formula:
                    parity_failures.append(
                        f"{cell} seed {seed_index}: load {result.report.load} != {formula}"
                    )
                    break
    fuzz = CheckResult(
        "corner-decode-fuzz",
        not fuzz_failures,
        "; ".join(fuzz_failures[:5])
        if fuzz_failures
        else f"{cells} corner cells x {seeds} seeds verified within budget",
    )
    parity = CheckResult(
        "formula-parity",
        not parity_failures,
        "; ".join(parity_failures[:5])
        if parity_failures
        else f"measured load equals closed form on all {cells} corner cells",
    )
    return fuzz, parity


def check_group_length_oracle() -> CheckResult:
    """Enumerate the column-scheme group lengths over every overlap set and
    compare with the closed-form per-overlap length."""
    failures: list[str] = []
    checked = 0
    for K in (3, 4, 5):
        for a in (Fraction(1, 2), Fraction(1)):
            for t in range(K + 1):
                for alpha in (Fraction(1), Fraction(1, 2)):
                    if alpha < 1 and t + 1 > K:
                        continue
                    total = 2 * comb(K, t) * max(comb(K, t + 1), 1)
                    s = int(total / a)
                    symbols = _layout(man_split(K, t + 1 - alpha, total), s).symbols
                    for i in range(t + 2):
                        want = bounds.f_group_fraction(K, t, alpha, i) * total * total
                        for v_set in itertools.combinations(range(1, K + 1), i):
                            span = symbols.get(v_set, slice(0, 0))
                            got = span.stop - span.start
                            checked += 1
                            if got != want:
                                failures.append(
                                    f"K={K} a={a} t={t} alpha={alpha} i={i} V={v_set}: "
                                    f"{got} != {want}"
                                )
    detail = "; ".join(failures[:5]) if failures else f"{checked} overlap sets match exactly"
    return CheckResult("group-length-oracle", not failures, detail)


def check_bound_ordering(combos: Sequence[tuple[int, int, Fraction]]) -> CheckResult:
    """On a 41-point grid: cutset below every achievable load; in the genie
    regime (a >= 1, N >= 2K) genie below all achievables and each wide-tier
    replication corner of R2 exactly twice the genie corner."""
    failures: list[str] = []
    for K, N, a in combos:
        genie_ok = a >= 1 and N >= 2 * K
        for j in range(41):
            M = Fraction(j * N, 40)
            achievable = {name: load(K, N, a, M) for name, load in ACHIEVABLE_LOADS.items()}
            cut = bounds.cutset_bound(K, N, a, M)
            for name, value in achievable.items():
                if cut > value:
                    failures.append(f"K={K} N={N} a={a} M={M}: cutset {cut} > {name} {value}")
            if genie_ok:
                genie = bounds.genie_converse(K, N, a, M)
                for name, value in achievable.items():
                    if genie > value:
                        failures.append(f"K={K} N={N} a={a} M={M}: genie {genie} > {name} {value}")
        if genie_ok:
            genie_by_m = {pt.M: pt.R for pt in bounds.genie_converse_corners(K, N, a)}
            r2_by_m = {pt.M: pt.R for pt in bounds.load_R2_corners(K, N, a)}
            if set(genie_by_m) != set(r2_by_m):
                failures.append(f"K={K} N={N} a={a}: corner memories differ")
            else:
                for M, g_val in genie_by_m.items():
                    if r2_by_m[M] != 2 * g_val:
                        failures.append(
                            f"K={K} N={N} a={a} M={M}: R2 corner {r2_by_m[M]} != 2x genie {g_val}"
                        )
    detail = "; ".join(failures[:5]) if failures else f"orderings hold on {len(combos)} combos x 41 memories"
    return CheckResult("bound-ordering", not failures, detail)


def check_compression(trials: int = 500) -> CheckResult:
    """Random product round-trips: exact recovery, payload never above the
    packet length, and equal to it in almost all large-field trials."""
    failures: list[str] = []
    spec = DEFAULT_FIELD
    full = 0
    for trial in range(trials):
        dims = uniform_residues(derive_seed(404, trial), 3, 12) + 1
        m, n, p = (int(v) for v in dims)
        left = random_matrix(spec, m, n, derive_seed(405, trial))
        right = random_matrix(spec, n, p, derive_seed(406, trial))
        product = mat_mul(left, right)
        cp = compress_product(product, n)
        if decompress_product(cp) != product:
            failures.append(f"trial {trial}: round-trip mismatch")
        limit = f_len(DimTriple(m, n, p))
        if cp.payload.size > limit:
            failures.append(f"trial {trial}: payload {cp.payload.size} > f={limit}")
        if cp.payload.size == limit:
            full += 1
    if full < trials * 99 // 100:
        failures.append(f"only {full}/{trials} trials reached the packet length")
    for m in range(1, 9):
        for n in range(1, 9):
            for p in range(1, 9):
                if f_len(DimTriple(m, n, p)) != f_len(DimTriple(p, n, m)):
                    failures.append(f"f({m},{n},{p}) asymmetric")
    detail = "; ".join(failures[:5]) if failures else f"{trials} round-trips exact; {full} at full length"
    return CheckResult("compression-properties", not failures, detail)


def check_determinism() -> CheckResult:
    """Identical reports on repeated runs; sweep CSV bytes independent of the
    worker count; analyze rows reproducible."""
    failures: list[str] = []
    spec = ExperimentSpec(scheme="col", K=4, N=20, M=Fraction(10), s=12, r=6, seed=9)
    first, second = simulate_cell(spec), simulate_cell(spec)
    if first != second:
        failures.append("repeated simulate reports differ")
    cells = expand_sweep_cells(
        [
            {
                "scheme": "row",
                "K": "4",
                "N": "20",
                "s": "12",
                "r": "6",
                "M": "10",
                "ell": "1,2,3,4",
                "seed": "0..4",
            }
        ]
    )
    serial = sweep_csv(cells, parallel=1)
    parallel = sweep_csv(cells, parallel=4)
    if serial != parallel:
        failures.append("sweep CSV differs between 1 and 4 workers")
    rows_a = curve_rows(4, 20, Fraction(1, 2), grid=10)
    rows_b = curve_rows(4, 20, Fraction(1, 2), grid=10)
    if rows_a != rows_b:
        failures.append("analyze rows differ between runs")
    detail = "; ".join(failures) if failures else "reports, sweep bytes, and curves reproduce exactly"
    return CheckResult("determinism", not failures, detail)


def run_verification(
    combos: Sequence[tuple[int, int, Fraction]] | None = None,
    seeds: int = 20,
    fault_inject: bool = False,
    progress: Callable[[str], None] | None = None,
) -> list[CheckResult]:
    """The full verification suite over the given (K, N, a) matrix."""
    if combos is None:
        combos = default_matrix()
    results: list[CheckResult] = []

    def record(result: CheckResult) -> None:
        results.append(result)
        if progress is not None:
            progress(f"[{'PASS' if result.passed else 'FAIL'}] {result.name}: {result.detail}")

    record(check_row_comparison_point())
    record(check_col_comparison_point())
    record(check_wide_fixture(seeds=max(seeds, 20)))
    record(check_square_fixtures())
    fuzz, parity = corner_fuzz(combos, seeds=seeds, fault_inject=fault_inject)
    record(fuzz)
    record(parity)
    record(check_group_length_oracle())
    record(check_bound_ordering(combos))
    record(check_compression())
    record(check_determinism())
    return results
