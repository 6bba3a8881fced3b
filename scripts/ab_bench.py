#!/usr/bin/env python3
"""A/B the benchmark of two checkouts: alternating pairs of `perfbench/run.py` runs.

    python3 scripts/ab_bench.py PARENT CHANGE --workload col-many-blocks --pairs 10 --seed 17

PARENT and CHANGE are checkouts of the repository (each with its own
`perfbench/run.py` and `src/`).  Every pair runs the benchmark once in each,
one process at a time, and the side that goes first alternates from pair to
pair, so drift in the machine's speed falls on both sides alike.  For each
end-to-end metric of `BENCHMARK.json` the script prints each side's median
and interquartile range over the pairs, two verdicts, the change/parent
ratio of the medians, and in how many pairs the change did better than the
parent.  `bound` reads OVER when the change's median is worse than the
parent's by more than the metric's bound, taken relative to the parent's
median.  `claim` reads met when the change did better in at least 9 of
every 10 pairs and its median beats the parent's by more than the parent's
interquartile range: what a claimed gain must show.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def benchmark() -> dict:
    """The benchmark's declaration, BENCHMARK.json."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def end_to_end() -> list[dict]:
    """The end-to-end metrics, with the direction each one improves in."""
    return benchmark()["end_to_end"]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """One benchmark run in `checkout`: its end-to-end metric values."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload]
    command += ["--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(
        command, cwd=checkout, capture_output=True, text=True, timeout=4 * seconds + 300
    )
    if done.returncode != 0:
        sys.exit(f"ab_bench: {' '.join(command)} in {checkout} failed:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    if result["failed"] or not result["correct"]:
        sys.exit(f"ab_bench: a run in {checkout} failed or was wrong:\n{done.stderr}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile range) of the values."""
    if len(values) < 2:
        return values[0], 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q3 - q1


def table(runs: dict[str, list[dict[str, float]]]) -> list[str]:
    """One line per end-to-end metric: medians, IQRs, verdicts, ratio and pairs won."""
    lines = [
        f"{'metric':14s} {'parent median (IQR)':>24s} {'change median (IQR)':>24s}"
        f" {'bound':>5s} {'claim':>5s} {'ratio':>7s} {'won':>6s}"
    ]
    for metric in end_to_end():
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [run[name] for run in runs["parent"]]
        change = [run[name] for run in runs["change"]]
        won = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        (pm, piqr), (cm, ciqr) = spread(parent), spread(change)
        gain = cm - pm if higher else pm - cm
        bound = "OVER" if -gain > metric["bound"] * abs(pm) else "ok"
        claim = "met" if 10 * won >= 9 * len(parent) and gain > piqr else "-"
        ratio = cm / pm if pm else float("nan")
        lines.append(
            f"{name:14s} {pm:>12.4g} ({piqr:>8.3g}) {cm:>12.4g} ({ciqr:>8.3g})"
            f" {bound:>5s} {claim:>5s} {ratio:>7.3f} {won:>3d}/{len(parent)}"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", nargs="+", required=True, help="perfbench workload names")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    if not args.seconds > 0:
        parser.error(f"--seconds must be positive, got {args.seconds:g}")
    known = [workload["name"] for workload in benchmark()["workloads"]] + ["all"]
    unknown = [workload for workload in args.workload if workload not in known]
    if unknown:
        parser.error(f"unknown workload {', '.join(unknown)}; choose from {', '.join(known)}")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in checkouts.items():
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{side} checkout {checkout} has no perfbench/run.py")
    for workload in args.workload:
        runs: dict[str, list[dict[str, float]]] = {side: [] for side in SIDES}
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                values = run_once(checkouts[side], workload, args.seed, args.seconds)
                runs[side].append(values)
                shown = "  ".join(f"{name} {value:.4g}" for name, value in values.items())
                print(f"{workload} pair {pair + 1} {side}: {shown}", file=sys.stderr, flush=True)
        print(f"workload {workload}  seed {args.seed}  pairs {args.pairs}  seconds {args.seconds:g}")
        print("\n".join(table(runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
