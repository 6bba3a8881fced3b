"""Command-line entry points: simulate | analyze | verify | sweep.

Exit codes: 0 success (simulate additionally requires verified retrieval),
1 verification failure, 2 invalid parameters or configuration.  All file
outputs are written atomically; every output byte is a deterministic
function of the arguments and the seed.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import harness
from .harness import ConfigurationError, ExperimentSpec
from .model import SchemeParameterError

_SPEC_FLAGS = ("scheme", "K", "N", "s", "r", "q", "M", "t", "ell", "a", "seed", "demands")


def _add_spec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file; flags override file values")
    parser.add_argument("--scheme", choices=harness.SCHEME_NAMES, help="delivery scheme")
    parser.add_argument("--K", help="number of users")
    parser.add_argument("--N", help="number of library matrices")
    parser.add_argument("--s", help="inner dimension (rows of each library matrix)")
    parser.add_argument("--r", help="outer dimension (columns of each library matrix)")
    parser.add_argument("--q", help="prime field modulus (default 2147483647)")
    parser.add_argument("--M", help="cache memory in matrix units, rational like 10 or 5/2")
    parser.add_argument("--t", help="replication parameter for schemes that take one")
    parser.add_argument("--ell", help="row-scheme group count (default: best by load)")
    parser.add_argument("--a", help="aspect ratio r/s; lets the suggester pick (s, r)")
    parser.add_argument("--seed", help="library / demand seed (default 0)")
    parser.add_argument("--demands", help="'worst' (default), 'random', or pairs '1,2;3,4'")


def _spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    values: dict[str, str] = {}
    if args.config:
        values.update(harness.parse_config_file(args.config))
    for key in _SPEC_FLAGS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return harness.spec_from_mapping(values)


def _positive_int(flag: str, text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise ConfigurationError(f"{flag} must be a positive integer, got {text!r}")
    return value


def _print_parameter_error(spec: ExperimentSpec, exc: SchemeParameterError) -> None:
    print("parameter validation failed:", file=sys.stderr)
    for problem in exc.problems:
        print(f"  - {problem}", file=sys.stderr)
    suggestion = None
    if spec.s is not None and spec.r is not None:
        suggestion = harness.suggest_rescale(spec)
    elif spec.a is not None:
        suggestion = harness.suggest_shape(spec)
    if suggestion is not None:
        print(f"suggestion: retry with --s {suggestion[0]} --r {suggestion[1]}", file=sys.stderr)


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        spec = _spec_from_args(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        report, result = harness.run_cell(spec)
    except SchemeParameterError as exc:
        _print_parameter_error(spec, exc)
        return 2
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        harness.atomic_write_text(args.out, text + "\n")
    if args.dump_transcript:
        harness.atomic_write_text(
            args.dump_transcript, "\n".join(result.transcript.dump_lines()) + "\n"
        )
    return 0 if report["verified"] else 1


def cmd_analyze(args: argparse.Namespace) -> int:
    try:
        a = harness.parse_fraction(args.a)
        rows = harness.curve_rows(
            int(args.K),
            int(args.N),
            a,
            grid=_positive_int("--grid", args.grid),
            simulate_scheme=args.simulate,
            seed=int(args.seed),
        )
    except (ConfigurationError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    text = harness.csv_text(harness.CURVE_COLUMNS, rows)
    if args.out:
        harness.atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)
    if args.svg:
        title = f"K={args.K}, N={args.N}, a={a}"
        harness.atomic_write_text(args.svg, harness.curve_svg(rows, title))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        seeds = _positive_int("--seeds", args.seeds)
        combos = (
            harness.default_matrix()
            if args.instances is None
            else harness.parse_instances(args.instances)
        )
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    if not combos:
        print("warning: empty instance matrix, nothing to verify")
        return 0
    results = harness.run_verification(
        combos, seeds=seeds, fault_inject=args.fault_inject, progress=print
    )
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        parallel = _positive_int("--parallel", args.parallel)
        mappings = [harness.parse_config_file(path) for path in args.configs]
        cells = harness.expand_sweep_cells(mappings)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    rows = harness.run_sweep(cells, parallel=parallel)
    text = harness.csv_text(harness.SWEEP_COLUMNS, rows)
    if args.out:
        harness.atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)
    bad = [row for row in rows if row.get("error") or row.get("verified") is not True]
    print(f"{len(rows) - len(bad)}/{len(rows)} cells verified", file=sys.stderr)
    return 1 if bad else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matcache",
        description=(
            "Simulator and analysis toolkit for cache-aided matrix-product retrieval "
            "over a shared broadcast link."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one placement/delivery/decode cell")
    _add_spec_flags(sim)
    sim.add_argument("--out", help="also write the JSON report to this file")
    sim.add_argument("--dump-transcript", help="write per-message transcript lines to this file")
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze", help="emit load-vs-memory curves as CSV (+ optional SVG)")
    ana.add_argument("--K", required=True, help="number of users")
    ana.add_argument("--N", required=True, help="number of library matrices")
    ana.add_argument("--a", required=True, help="aspect ratio r/s as a rational")
    ana.add_argument("--grid", default="40", help="number of memory grid steps (default 40)")
    ana.add_argument(
        "--simulate",
        choices=harness.SCHEME_NAMES,
        help="also simulate this scheme at realizable grid memories",
    )
    ana.add_argument("--seed", default="0", help="seed for the simulated column")
    ana.add_argument("--out", help="CSV output path (default stdout)")
    ana.add_argument("--svg", help="also render a line chart to this SVG path")
    ana.set_defaults(func=cmd_analyze)

    ver = sub.add_parser("verify", help="run the verification suite")
    ver.add_argument("--instances", help="semicolon-separated K,N,a triples (default full matrix)")
    ver.add_argument("--seeds", default="20", help="seeds per corner cell (default 20)")
    ver.add_argument(
        "--fault-inject",
        action="store_true",
        help="corrupt one delivery symbol per cell; the suite must then fail",
    )
    ver.set_defaults(func=cmd_verify)

    swp = sub.add_parser("sweep", help="run many simulate cells from config files")
    swp.add_argument("configs", nargs="+", help="key=value config files (values may be lists)")
    swp.add_argument("--out", help="CSV output path (default stdout)")
    swp.add_argument("--parallel", default="1", help="worker process count (default 1)")
    swp.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
