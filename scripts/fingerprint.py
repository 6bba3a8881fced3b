#!/usr/bin/env python3
"""One SHA-256 over what the default verify matrix's corner cells produce.

Every corner cell of every scheme over `harness.default_matrix()` runs in
each of the fields q = 2^31 - 1, 2 and 2^61 - 1, once with worst-case and
once with seeded random demands.  The digest covers each run's JSON report,
every broadcast message's tag, payload and packet headers, and every user's
decoded matrix.  A change that claims byte identity prints the same digest
before and after it:

    PYTHONPATH=src python3 scripts/fingerprint.py
    PYTHONPATH=src python3 scripts/fingerprint.py --instances 1   # (K, N, a) = (2, 4, 1/2) only
"""

from __future__ import annotations

import argparse
import hashlib
import json
from dataclasses import replace
from typing import Iterator

from matcache import harness
from matcache.harness import ExperimentSpec
from matcache.model import format_tag

FIELDS = ((1 << 31) - 1, 2, (1 << 61) - 1)
DEMANDS = ("worst", "random")


def specs(instances: int | None = None) -> Iterator[ExperimentSpec]:
    """The runs over the first `instances` (K, N, a) of the default matrix, or
    over all of them, in a fixed order: cell by cell, then field, then
    demands."""
    for index, (K, N, a) in enumerate(harness.default_matrix()[:instances]):
        for cell in harness.corner_cells(K, N, a):
            s, r = harness.corner_shape(cell)
            for q in FIELDS:
                for demands in DEMANDS:
                    yield replace(cell.spec(s, r, index), q=q, demands=demands)


def fingerprint(instances: int | None = None) -> tuple[str, int]:
    """(SHA-256 hex digest, number of runs) over the runs of `specs`."""
    h = hashlib.sha256()
    runs = 0
    for spec in specs(instances):
        report, result = harness.run_cell(spec)
        h.update(json.dumps(report, sort_keys=True).encode())
        for message in result.transcript.messages:
            h.update(format_tag(message.tag).encode())
            h.update(message.payload.astype("<i8").tobytes())
            h.update(repr(message.headers).encode())
        for matrix in result.decoded:
            h.update(repr(matrix.shape).encode())
            h.update(matrix.data.astype("<i8").tobytes())
        runs += 1
    return h.hexdigest(), runs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument(
        "--instances", type=int, help="only the first INSTANCES (K, N, a) of the default matrix"
    )
    args = parser.parse_args()
    digest, runs = fingerprint(args.instances)
    print(f"{digest}  {runs} runs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
