#!/usr/bin/env python3
"""Time two checkouts' `harness.run_cell` in one process, pass by pass in alternation.

    python3 scripts/ab_inproc.py PARENT CHANGE --workload corners --scheme row --passes 6
    python3 scripts/ab_inproc.py PARENT CHANGE --workload col-many-blocks --scheme agnostic row

PARENT and CHANGE are checkouts of the repository (each with its own `src/`
and `perfbench/workloads.py`).  Both checkouts' `matcache` packages are
imported into this one process, and `sys.modules` is switched to one side's
modules before each of its passes, so a function-local import finds its own
checkout.  A pass runs every cell of the workload at --seed once, filtered
to the schemes named by --scheme.

The run has two halves.  In the first the parent is imported first, in the
second the change; each half imports both sides afresh and drops them at its
end.  After one untimed warm-up pass per side, which also compares the two
sides' transcript digests, each half runs --passes timed passes per side,
the sides alternating which runs first.  The script prints each pass's
process CPU time, each half's ratio change/parent of the medians, and the
ratio of the medians over both halves.

Two processes of one tree can differ by more than a change does, because the
host's speed and a process's memory layout drift between processes; inside
one process both sides share them.  The import order still moves the ratio:
whichever side is imported first lays its modules and caches out first.
Both orders, and the pooled ratio, show how far.  This is a diagnostic for
small effects: a claimed gain is still judged by `scripts/ab_bench.py`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path
from types import ModuleType
from typing import Sequence

SIDES = ("parent", "change")


def _ours(name: str) -> bool:
    return name == "matcache" or name.startswith("matcache.")


def _swap(modules: dict[str, ModuleType]) -> dict[str, ModuleType]:
    """Put `modules` in sys.modules in place of the `matcache` modules there;
    return the ones taken out."""
    taken = {name: sys.modules.pop(name) for name in [n for n in sys.modules if _ours(n)]}
    sys.modules.update(modules)
    return taken


def load(
    checkout: Path, workload: str, seed: int, schemes: Sequence[str] | None
) -> tuple[dict, list]:
    """Import the checkout's `matcache` and build its workload's cells,
    only those of `schemes` when given; return (its `matcache` modules, the
    cells).  sys.modules and sys.path are left as they were found.  Raises
    LookupError on an unknown workload and on a scheme with no cell in it."""
    saved = _swap({})
    src = str(checkout / "src")
    sys.path.insert(0, src)
    try:
        importlib.import_module("matcache.harness")
        path = checkout / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        if workload not in workloads.WORKLOADS:
            known = ", ".join(workloads.WORKLOADS)
            raise LookupError(f"unknown workload {workload}; choose from {known}")
        cells = workloads.build(workload, seed)
    finally:
        sys.path.remove(src)
        modules = _swap(saved)
    for scheme in schemes or ():
        if all(cell.scheme != scheme for cell in cells):
            raise LookupError(f"workload {workload} has no {scheme} cell")
    return modules, [cell for cell in cells if schemes is None or cell.scheme in schemes]


def one_pass(modules: dict[str, ModuleType], cells: list) -> tuple[float, list[str]]:
    """Process CPU seconds to run every cell once, and the cells' transcript digests."""
    saved = _swap(modules)
    try:
        run_cell = modules["matcache.harness"].run_cell
        start = time.process_time()
        digests = [run_cell(cell)[0]["transcript_digest"] for cell in cells]
        return time.process_time() - start, digests
    finally:
        _swap(saved)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, help="perfbench workload name")
    parser.add_argument("--scheme", nargs="+", help="run only these schemes' cells")
    parser.add_argument(
        "--passes", type=int, default=6, help="timed passes per side in each import order"
    )
    parser.add_argument("--seed", type=int, default=1, help="the workload's seed")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error(f"--passes must be at least 1, got {args.passes}")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in checkouts.items():
        for part in ("src/matcache/harness.py", "perfbench/workloads.py"):
            if not (checkout / part).is_file():
                parser.error(f"{side} checkout {checkout} has no {part}")
    cell_args = (args.workload, args.seed, args.scheme)
    times: dict[str, list[float]] = {side: [] for side in SIDES}
    for half, order in enumerate((SIDES, SIDES[::-1])):
        try:
            loaded = {side: load(checkouts[side], *cell_args) for side in order}
        except LookupError as error:
            parser.error(str(error))
        digests = {side: one_pass(*loaded[side])[1] for side in SIDES}
        differ = sum(p != c for p, c in zip(digests["parent"], digests["change"]))
        cells = len(digests["parent"])
        if half == 0:
            scheme = " ".join(args.scheme or ["all"])
            print(f"workload {args.workload}  scheme {scheme}  seed {args.seed}  cells {cells}")
        print(f"{order[0]} imported first")
        print(f"transcript digests: {differ} of {cells} cells differ")
        timed = _alternate(loaded, args.passes)
        _print_medians("median", timed)
        for side in SIDES:
            times[side] += timed[side]
        del loaded
        gc.collect()
    _print_medians("pooled median", times)
    return 0


def _alternate(loaded: dict[str, tuple[dict, list]], passes: int) -> dict[str, list[float]]:
    """Time `passes` passes per side, the sides alternating which runs first."""
    times: dict[str, list[float]] = {side: [] for side in SIDES}
    for index in range(passes):
        order = SIDES if index % 2 == 0 else SIDES[::-1]
        for side in order:
            times[side].append(one_pass(*loaded[side])[0])
        shown = "  ".join(f"{side} {times[side][-1]:.4f} s" for side in SIDES)
        print(f"pass {index + 1}: {shown}  ratio {times['change'][-1] / times['parent'][-1]:.3f}")
    return times


def _print_medians(label: str, times: dict[str, list[float]]) -> None:
    parent, change = (statistics.median(times[side]) for side in SIDES)
    print(f"{label}: parent {parent:.4f} s  change {change:.4f} s  ratio {change / parent:.3f}")

if __name__ == "__main__":
    sys.exit(main())
