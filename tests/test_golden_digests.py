"""Golden transcript digests: SHA-256 of every broadcast transcript, plus the
load and symbol counts, pinned for twenty cells covering every scheme, both
column-scheme paths, padded row groups, thin row blocks, irregular demands and
the field range.

The values in golden/transcript_digests.json were produced by this module's
`observed` function; a change that alters any of them changes bytes on the
wire.  Print the current values with

    PYTHONPATH=src python tests/test_golden_digests.py
"""

from __future__ import annotations

import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from matcache import harness
from matcache.harness import ExperimentSpec

GOLDEN = Path(__file__).parent / "golden" / "transcript_digests.json"
Q61 = (1 << 61) - 1
REFERENCE = dict(K=4, N=20, s=12, r=6, M=F(10))

CELLS = {
    # The paper's reference point.  Agnostic has no corner at M=10 there, so
    # it runs at its t=0 corner and, with N=4, at its t=2 corner.
    "agnostic-reference-t0": ExperimentSpec(scheme="agnostic", K=4, N=20, s=12, r=6, M=F(0)),
    "agnostic-N4-t2": ExperimentSpec(scheme="agnostic", K=4, N=4, s=12, r=6, M=F(5, 2), seed=1),
    "uncoded-reference": ExperimentSpec(scheme="uncoded", **REFERENCE),
    "multireq-reference": ExperimentSpec(scheme="multireq", **REFERENCE),
    "row-reference": ExperimentSpec(scheme="row", **REFERENCE),
    "col-reference": ExperimentSpec(scheme="col", **REFERENCE),
    # Wide matrices over GF(2): singular leading blocks force a column
    # permutation; the second cell also has a narrow tier.
    "col-wide-q2-permuted": ExperimentSpec(scheme="col", K=2, N=4, s=2, r=4, M=F(2), q=2, seed=3),
    "col-wide-two-tier-q2": ExperimentSpec(scheme="col", K=3, N=6, s=6, r=12, M=F(3), q=2, seed=4),
    # K=3 users in groups of ell=2: the last group has an absent user.
    "row-partial-group-q3": ExperimentSpec(
        scheme="row", K=3, N=6, s=4, r=4, M=F(3, 2), ell=2, q=3, seed=5
    ),
    # Duplicate and transposed demands.
    "col-duplicate-transposed": ExperimentSpec(
        scheme="col", demands="2,1;2,1;3,3;1,2", seed=6, **REFERENCE
    ),
    "row-duplicate-transposed-q61": ExperimentSpec(
        scheme="row", K=3, N=6, s=4, r=4, M=F(3, 2), ell=2, q=Q61, demands="5,2;2,5;4,4", seed=7
    ),
    "multireq-random-q61": ExperimentSpec(
        scheme="multireq", demands="random", q=Q61, seed=8, **REFERENCE
    ),
    "agnostic-random-q61": ExperimentSpec(
        scheme="agnostic", K=4, N=4, s=12, r=6, M=F(5, 2), q=Q61, demands="random", seed=9
    ),
    "uncoded-random-q3": ExperimentSpec(
        scheme="uncoded", demands="random", q=3, seed=10, **REFERENCE
    ),
    # Many-block two-tier col at K=6, N=12, M=3 (x = 3/2, L = 15 + 20
    # blocks) in suggest_shape's shape for a = 1/2.  Over GF(2) rank-deficient
    # cross products put different headers side by side in one group; at
    # q = 2^61 - 1 every product takes the object path.
    "col-many-blocks-two-tier-q2": ExperimentSpec(
        scheme="col", K=6, N=12, s=120, r=60, M=F(3), q=2, seed=11
    ),
    "col-many-blocks-random-q61": ExperimentSpec(
        scheme="col", K=6, N=12, s=120, r=60, M=F(3), q=Q61, demands="random", seed=12
    ),
    # Wide col at K=6, N=12, M=6 (t = 3, 20 + 20 blocks of width 1) with
    # random demands: every demanded matrix takes the column split, and
    # every user's and peer's cross products share stacks.  Over GF(2) most
    # leading blocks are singular, so most permutations are not the identity.
    "col-wide-many-users": ExperimentSpec(
        scheme="col", K=6, N=12, s=20, r=40, M=F(6), demands="random", seed=13
    ),
    "col-wide-many-users-q2": ExperimentSpec(
        scheme="col", K=6, N=12, s=20, r=40, M=F(6), q=2, demands="random", seed=14
    ),
    # Thin row blocks: at x = ell*M/N = 3/2 the blocks are 5 and 2 rows high
    # against r = 120 (and 7 and 2 against r = 224), so every block product
    # has rank far below r.  Over GF(2) many blocks are rank-deficient.
    "row-thin-blocks-q2": ExperimentSpec(
        scheme="row", K=6, N=12, s=60, r=120, M=F(3), ell=6, q=2, seed=15
    ),
    "row-large-k": ExperimentSpec(scheme="row", K=8, N=16, s=112, r=224, M=F(3), ell=8, seed=16),
}

FIELDS = (
    "load",
    "payload_symbols",
    "header_bytes",
    "messages",
    "verified",
    "formula_matches",
    "transcript_digest",
)


def observed(spec: ExperimentSpec) -> dict:
    report = harness.simulate_cell(spec)
    return {key: report[key] for key in FIELDS}


@pytest.mark.parametrize("name", sorted(CELLS))
def test_transcript_digest_pinned(name):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert observed(CELLS[name]) == golden[name]


def test_golden_file_covers_every_cell():
    assert set(json.loads(GOLDEN.read_text(encoding="utf-8"))) == set(CELLS)


@pytest.mark.parametrize(
    "name", ["col-wide-q2-permuted", "col-wide-two-tier-q2", "col-wide-many-users-q2"]
)
def test_wide_q2_cells_take_the_permutation_path(name):
    _, result = harness.run_cell(CELLS[name])
    perms = result.cache.for_user(1).metadata["column-permutations"]
    assert any(list(perm) != sorted(perm) for perm in perms.values())


if __name__ == "__main__":
    print(json.dumps({name: observed(spec) for name, spec in sorted(CELLS.items())}, indent=2))
