"""The benchmark's three workloads: fixed lists of `harness.ExperimentSpec`
cells whose matrix and demand seeds are drawn from the run's --seed.

The cells themselves never depend on the seed, so every seed costs the same
work up to the random data; only library matrices and random demand vectors
change from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction as F

from matcache import harness
from matcache.harness import ExperimentSpec

Q31 = (1 << 31) - 1
Q61 = (1 << 61) - 1
CORNER_FIELDS = (Q31, 2, Q61)

# The paper's worked example (K=4, N=20, s=12, r=6, M=10): row for each ell,
# then col.  checker.PAPER_LOADS holds the loads the paper gives for them.
REFERENCE_CELLS = tuple(
    ExperimentSpec(scheme="row", K=4, N=20, M=F(10), s=12, r=6, ell=ell) for ell in (1, 2, 3, 4)
) + (ExperimentSpec(scheme="col", K=4, N=20, M=F(10), s=12, r=6),)

# col cells with many blocks: four with L = 15, where the median call falls,
# then L = 20 to 28; the two M=3 cells are two-tier.  Then one control cell
# of each other scheme at K=7, so that every scheme stage is measured here
# too and a col-only change shows as one.  Shapes come from
# harness.suggest_shape.
COL_MANY_BLOCKS = tuple(
    ExperimentSpec(scheme="col", K=K, N=N, M=M, a=a)
    for K, N, a, M in (
        (6, 12, F(1, 2), F(4)),
        (6, 12, F(2), F(4)),
        (6, 12, F(1, 2), F(8)),
        (6, 12, F(2), F(8)),
        (6, 12, F(1, 2), F(3)),
        (6, 12, F(2), F(6)),
        (7, 14, F(2), F(4)),
        (7, 14, F(1, 2), F(3)),
    )
) + (
    ExperimentSpec(scheme="agnostic", K=7, N=14, M=F(15, 2), a=F(1, 2), t=1),
    ExperimentSpec(scheme="uncoded", K=7, N=14, M=F(7), a=F(1, 2)),
    ExperimentSpec(scheme="multireq", K=7, N=14, M=F(2), a=F(1, 2), t=1),
    ExperimentSpec(scheme="row", K=7, N=14, M=F(4), a=F(1, 2)),
)

# All five schemes at q = 2^31 - 1 with s*r between 7k and 74k, including the
# paper's worked example scaled tenfold (120 x 60).
LARGE_MATRICES = (
    ExperimentSpec(scheme="agnostic", K=2, N=4, M=F(5, 2), s=128, r=64, t=1),
    ExperimentSpec(scheme="agnostic", K=2, N=4, M=F(0), s=128, r=256, t=0),
    ExperimentSpec(scheme="uncoded", K=4, N=8, M=F(4), s=128, r=256),
    ExperimentSpec(scheme="multireq", K=4, N=8, M=F(4), s=192, r=384, t=2),
    ExperimentSpec(scheme="row", K=4, N=8, M=F(2), s=128, r=256, ell=4),
    ExperimentSpec(scheme="col", K=3, N=6, M=F(2), s=60, r=120),
) + tuple(replace(spec, s=120, r=60) for spec in REFERENCE_CELLS)


def _corners() -> list[ExperimentSpec]:
    """Every corner cell of every scheme over the default verify matrix, once
    per field, alternating worst-case and random demands; then the paper's
    worked example in each field."""
    specs = []
    cells = [cell for K, N, a in harness.default_matrix() for cell in harness.corner_cells(K, N, a)]
    for index, cell in enumerate(cells):
        s, r = harness.corner_shape(cell)
        for f, q in enumerate(CORNER_FIELDS):
            demands = "worst" if (index + f) % 2 == 0 else "random"
            specs.append(replace(cell.spec(s, r, 0), q=q, demands=demands))
    specs.extend(replace(spec, q=q) for spec in REFERENCE_CELLS for q in CORNER_FIELDS)
    return specs


def _col_many_blocks() -> list[ExperimentSpec]:
    specs = []
    for spec in COL_MANY_BLOCKS:
        s, r = harness.suggest_shape(spec)
        specs.append(replace(spec, s=s, r=r, a=None))
    return specs


WORKLOADS = {
    "corners": _corners,
    "col-many-blocks": _col_many_blocks,
    "large-matrices": lambda: list(LARGE_MATRICES),
}


def build(name: str, seed: int) -> list[ExperimentSpec]:
    """The workload's pass: its cells in a fixed order, each with a seed
    drawn from `seed`."""
    rng = random.Random(f"{name}:{seed}")
    return [replace(spec, seed=rng.getrandbits(32)) for spec in WORKLOADS[name]()]
