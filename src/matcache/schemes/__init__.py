"""Caching scheme registry: name -> Scheme contract.

Each scheme is one module exporting its Scheme plus one entry below.  The
entry order is the order of `harness.corner_cells`, whose cell index seeds
each cell of the corner fuzz, so a new scheme goes last.

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
