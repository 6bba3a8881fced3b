"""matcache benchmark: closed loops of `harness.run_cell` over fixed workloads.

    python3 perfbench/run.py --workload corners --seed 1 --seconds 20 --trace 0

One run sets up the workload, then repeats whole passes over its cells until
--seconds of timed calls have accumulated, checking every call's output with
`checker.check_run` outside the timed region.  With --trace 0 the last line
of standard output is a JSON object holding the end-to-end metrics; with
--trace 1 a staged copy of `run_cell` records a span around each layer call
and the JSON holds the per-layer metrics.  --check-only runs one untimed
pass, and --workload all runs every workload, each in its own process.
The program is imported from `src/` of the checkout that holds this file.
"""

import time

_START = time.perf_counter()  # set-up time is measured from here

import argparse
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("corners", "col-many-blocks", "large-matrices")
SETUP_TRIALS = 5
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {"runs_per_s": "1/s", "run_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
COUNT_NAMES = (
    "runs",
    "users_decoded",
    "messages",
    "payload_symbols",
    "header_bytes",
    "cache_symbols",
    "library_symbols",
)


def import_program() -> None:
    """Put the checkout's `src/` first on the path and import matcache from it."""
    src = ROOT / "src"
    package = src / "matcache"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no matcache sources at {package}")
    sys.path.insert(0, str(src))
    import matcache

    if Path(matcache.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported matcache from {matcache.__file__}, not {package}")


def setup(workload: str, seed: int):
    """Import the program and build the workload's pass; returns (specs,
    seconds since this script started)."""
    import_program()
    import workloads

    specs = workloads.build(workload, seed)
    return specs, time.perf_counter() - _START


def setup_trials(workload: str, seed: int) -> list[float]:
    """Set-up times of fresh interpreters, each running `setup` alone."""
    times = []
    for _ in range(SETUP_TRIALS - 1):
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"],
            capture_output=True,
            text=True,
            check=True,
            timeout=CHILD_TIMEOUT_S,
        )
        times.append(float(done.stdout.split()[-1]))
    return times


def fingerprint(report: dict, result) -> tuple:
    """What the staged driver must reproduce: digest, loads, flag, outputs."""
    decoded = hashlib.sha256()
    for out in result.decoded:
        decoded.update(repr(out.data.shape).encode())
        decoded.update(out.data.astype("<i8").tobytes())
    return (
        report["transcript_digest"],
        report["load"],
        report["formula_load"],
        report["verified"],
        decoded.hexdigest(),
    )


@dataclass
class Pass:
    """One pass over the workload's cells."""

    seconds: float = 0.0
    cpu_seconds: float = 0.0
    call_times: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    counts: dict[str, int] = field(default_factory=lambda: dict.fromkeys(COUNT_NAMES, 0))
    fingerprints: list[tuple] = field(default_factory=list)
    tracer: object = None


def _failure(p: Pass, spec, what: str) -> None:
    p.failed += 1
    print(f"FAILED {spec}: {what}", file=sys.stderr)


def timed_pass(specs, seed: int) -> Pass:
    """Every cell through `harness.run_cell`, each call timed on its own and
    then checked outside the timed region."""
    import checker
    from matcache import harness

    rng = random.Random(f"check:{seed}")
    p = Pass()
    for spec in specs:
        p.attempted += 1
        cpu0, start = time.process_time(), time.perf_counter()
        try:
            report, result = harness.run_cell(spec)
        except Exception:  # a failing cell is counted and the pass goes on
            report, error = None, traceback.format_exc()
        elapsed, cpu = time.perf_counter() - start, time.process_time() - cpu0
        p.seconds += elapsed
        p.cpu_seconds += cpu
        p.call_times.append(elapsed)
        if report is None:
            _failure(p, spec, error)
            p.fingerprints.append(None)
            continue
        problems, counts = checker.check_run(report, result, rng)
        if problems:
            p.wrong += 1
            _failure(p, spec, "; ".join(problems))
        p.counts["runs"] += 1
        for name, value in counts.items():
            p.counts[name] += value
        p.fingerprints.append(fingerprint(report, result))
    return p


def traced_pass(specs, expected: list[tuple]) -> Pass:
    """Every cell through the staged driver; each result must match the
    fingerprint `run_cell` gave for the same cell."""
    import staged

    p = Pass(tracer=staged.Tracer())
    for spec, want in zip(specs, expected, strict=True):
        p.attempted += 1
        start = time.perf_counter()
        try:
            report, result = staged.staged_run(spec, p.tracer)
        except Exception:  # a failing cell is counted and the pass goes on
            _failure(p, spec, traceback.format_exc())
            continue
        p.seconds += time.perf_counter() - start
        if fingerprint(report, result) != want:
            p.wrong += 1
            _failure(p, spec, "staged driver disagrees with run_cell")
    return p


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # ru_maxrss is in KiB


def end_to_end_metrics(passes: list[Pass], setup_times: list[float], rss_mb: float) -> dict:
    values = {
        "runs_per_s": sum(p.counts["runs"] for p in passes) / sum(p.seconds for p in passes),
        "run_p50_ms": statistics.median(t for p in passes for t in p.call_times) * 1e3,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss_mb,
    }
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in values.items()}


def per_layer_metrics(untraced: list[Pass], traced: list[Pass], probe_values: dict) -> dict:
    """Medians over passes of each layer's self time per pass, the kernel
    probes, the exact counts of one pass, CPU time and tracing overhead."""
    import probes
    import staged

    self_times = [p.tracer.self_times() for p in traced]
    metrics = {
        f"{name}_s": {"value": statistics.median(t.get(name, 0.0) for t in self_times), "unit": "s"}
        for name in staged.LAYER_SPANS
    }
    for name, _, _ in probes.PROBES:
        metrics[name] = {"value": probe_values[name], "unit": probes.unit(name)}
    for name in COUNT_NAMES:
        metrics[f"count.{name}"] = {"value": untraced[0].counts[name], "unit": "count"}
    metrics["process.cpu_s"] = {
        "value": statistics.median(p.cpu_seconds for p in untraced),
        "unit": "s",
    }
    untraced_s = statistics.median(p.seconds for p in untraced)
    traced_s = statistics.median(p.seconds for p in traced)
    metrics["trace.overhead_pct"] = {"value": (traced_s / untraced_s - 1) * 100, "unit": "%"}
    return metrics


def print_result(passes: list[Pass], metrics: dict) -> None:
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:14.6g} {metric['unit']}")
    result = {
        "correct": all(p.wrong == 0 for p in passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
    }
    print(f"attempted {result['attempted']}  failed {result['failed']}  correct {result['correct']}")
    print(json.dumps(result))


def run_timed(args, specs, own_setup: float) -> None:
    setup_times = [own_setup] + setup_trials(args.workload, args.seed)
    passes: list[Pass] = []
    while not passes or sum(p.seconds for p in passes) < args.seconds:
        passes.append(timed_pass(specs, args.seed))
    call_times = sorted(t for p in passes for t in p.call_times)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  cells {len(specs)}")
    if len(call_times) >= 1000:  # p99 has at least ten samples beyond it
        p99 = statistics.quantiles(call_times, n=100)[98] * 1e3
        print(f"run_p99_ms {p99:.4f} ms over {len(call_times)} calls (for reference, not gated)")
    print_result(passes, end_to_end_metrics(passes, setup_times, peak_rss_mb()))


def run_traced(args, specs) -> None:
    import probes

    untraced: list[Pass] = []
    traced: list[Pass] = []
    while not traced or sum(p.seconds for p in untraced + traced) < args.seconds:
        untraced.append(timed_pass(specs, args.seed))
        traced.append(traced_pass(specs, untraced[-1].fingerprints))
    span_file = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
    traced[-1].tracer.write(span_file)
    probe_values = probes.run_probes(args.seed)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(traced)} untraced + traced")
    print(f"spans of the last traced pass: {span_file}")
    print_result(untraced + traced, per_layer_metrics(untraced, traced, probe_values))


def run_check_only(args, specs) -> None:
    p = timed_pass(specs, args.seed)
    print(f"workload {args.workload}  seed {args.seed}  cells {len(specs)}  (untimed check)")
    print_result([p], {})


def run_all(args) -> int:
    """Each workload in its own process, then one summary line."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        command = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed)]
        command += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.check_only:
            command.append("--check-only")
        done = subprocess.run(command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        result = json.loads(done.stdout.splitlines()[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(summary))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-only", action="store_true", help="one untimed, checked pass")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    specs, own_setup = setup(args.workload, args.seed)
    if args.setup_only:
        print(own_setup)
    elif args.check_only:
        run_check_only(args, specs)
    elif args.trace:
        run_traced(args, specs)
    else:
        run_timed(args, specs, own_setup)
    return 0


if __name__ == "__main__":
    sys.exit(main())
