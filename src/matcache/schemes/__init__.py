"""Caching scheme registry: name -> Scheme contract (which names its config type).

Each scheme is one module exporting its Scheme plus one entry below.  The
registry is not the only list of them: `harness.build_scheme_config` (which
derives omitted parameters) and `harness.corner_cells` (the cells `verify`
and the benchmark run) branch on scheme names, so a new scheme also needs a
branch in each.

Schemes:
  agnostic  — cache coded product subfiles, oblivious to matrix structure
  uncoded   — cache leading raw columns, unicast the uncovered product entries
  multireq  — flat-file replication delivering both demanded matrices whole
  row       — horizontal-block placement with compressed block-product multicasts
  col       — vertical-block placement with intersection-grouped multicasts
"""

from __future__ import annotations

from ..model import Scheme
from . import agnostic, baselines, col, row

SCHEMES: dict[str, Scheme] = {
    scheme.name: scheme
    for scheme in (agnostic.SCHEME, baselines.UNCODED, baselines.MULTIREQ, row.SCHEME, col.SCHEME)
}
