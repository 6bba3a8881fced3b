"""The benchmark's own fast tests: the output checker, the staged driver and
the metric names.  Run with `python3 -m pytest perfbench`."""

from __future__ import annotations

import json
import random
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

import checker
import probes
import run
import staged
import workloads
from matcache import harness
from matcache.field import FieldMatrix
from matcache.model import get_scheme

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

SMALL = replace(workloads.REFERENCE_CELLS[4], seed=5)  # col, direct product check
LARGE = harness.ExperimentSpec(scheme="uncoded", K=2, N=4, M=F(2), s=64, r=128, seed=6)  # Freivalds


def flipped(result, user: int):
    """The run with one symbol of one user's decoded matrix changed."""
    decoded = list(result.decoded)
    data = decoded[user].data.copy()
    data[0, 0] = (int(data[0, 0]) + 1) % result.instance.field.q
    decoded[user] = FieldMatrix(result.instance.field, data)
    return replace(result, decoded=decoded)


@pytest.mark.parametrize("spec", [SMALL, LARGE, replace(LARGE, q=2), replace(SMALL, q=2)])
def test_checker_accepts_a_right_run_and_rejects_one_flipped_symbol(spec):
    report, result = harness.run_cell(spec)
    problems, counts = checker.check_run(report, result, random.Random(0))
    assert problems == []
    assert counts["users_decoded"] == spec.K
    for user, (d1, d2) in enumerate(result.demands.pairs):
        problems, _ = checker.check_run(report, flipped(result, user), random.Random(1))
        assert problems == [f"user {user + 1}: decoded W{d1}^T W{d2} is wrong"]


def test_freivalds_vector_count_keeps_misses_below_2_to_the_minus_40():
    for q in (2, 3, (1 << 31) - 1, (1 << 61) - 1):
        assert q ** checker.freivalds_vectors(q) >= 1 << 40
    assert checker.freivalds_vectors(2) == 40


@pytest.mark.parametrize("scheme", harness.SCHEME_NAMES)
def test_checker_rejects_a_tampered_scheme(scheme):
    spec = next(s for s in workloads.build("corners", 3) if s.scheme == scheme and s.q == workloads.Q31)
    report, result = staged.staged_run(spec, staged.Tracer(), harness.tampered(get_scheme(scheme)))
    problems, _ = checker.check_run(report, result, random.Random(0))
    assert any("decoded" in problem for problem in problems)


def test_closed_forms_and_paper_values_match_the_reference_runs():
    for spec in workloads.REFERENCE_CELLS:
        report, result = harness.run_cell(spec)
        want = checker.PAPER_LOADS[(spec.scheme, spec.ell)]
        assert F(report["load"]) == want
        assert checker.check_run(report, result, random.Random(0))[0] == []
    assert checker.closed_form_load("agnostic", 4, 20, 12, 6, F(0), 0) == 4
    assert checker.closed_form_load("multireq", 4, 8, 4, 8, F(4), 2) == F(8, 9)


def _cheap_cells() -> list[harness.ExperimentSpec]:
    corners = workloads.build("corners", 2)
    return corners[:40] + corners[-15:] + [workloads.build("large-matrices", 2)[0]]


def test_staged_driver_matches_run_cell():
    tracer = staged.Tracer()
    for spec in _cheap_cells():
        want = run.fingerprint(*harness.run_cell(spec))
        assert run.fingerprint(*staged.staged_run(spec, tracer)) == want, spec
    names = {span.name for span in tracer.spans}
    assert names - {"run"} <= set(staged.LAYER_SPANS)
    assert max(span.run for span in tracer.spans) == len(_cheap_cells())


def test_self_time_subtracts_children():
    tracer = staged.Tracer()
    with tracer.span("run"):
        with tracer.span("child"):
            pass
    times = tracer.self_times()
    run_span, child = tracer.spans
    assert times["child"] == child.end - child.start
    assert times["run"] == pytest.approx(run_span.end - run_span.start - times["child"])


def test_workload_passes_are_fixed_and_seeded():
    for name in workloads.WORKLOADS:
        first, again, other = (workloads.build(name, s) for s in (1, 1, 2))
        assert first == again
        assert [replace(s, seed=0) for s in first] == [replace(s, seed=0) for s in other]
        assert [s.seed for s in first] != [s.seed for s in other]
    corners = workloads.build("corners", 1)
    assert len(corners) == 3 * 587 + 3 * len(workloads.REFERENCE_CELLS)
    assert {s.q for s in corners} == set(workloads.CORNER_FIELDS)


def test_benchmark_json_names_exactly_the_printed_metrics():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)

    p = run.Pass(seconds=1.0, cpu_seconds=1.0, call_times=[0.5, 0.5], tracer=staged.Tracer())
    p.counts["runs"] = 2
    printed = run.end_to_end_metrics([p], [0.1], 40.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: metric["unit"] for name, metric in printed.items()
    }
    probe_values = {name: 1.0 for name, _, _ in probes.PROBES}
    printed = run.per_layer_metrics([p], [p], probe_values)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: metric["unit"] for name, metric in printed.items()
    }
