"""A staged copy of `harness.run_cell` that records a span around each call
into a layer, for the traced run.

The staged driver calls the same public steps as `run_cell` and
`model.run_scheme`, in the same order, so its transcript digest, load,
verification flag and decoded matrices must equal theirs; the traced run
checks that before it reports any span time.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from matcache import harness, model
from matcache.model import RunResult

STAGES = ("place", "deliver", "decode")
# Per-layer span names; each is reported as "<name>_s".
LAYER_SPANS = (
    "harness.resolve",
    "bounds.formula",
    "model.library",
    "model.verify",
    "model.digest",
    "schemes.validate",
) + tuple(f"schemes.{name}.{stage}" for name in harness.SCHEME_NAMES for stage in STAGES)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int


class Tracer:
    """Spans kept in memory: name, start, end, parent span index and run id."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.run = 0

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the children's."""
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.end - span.start
        for span in self.spans:
            if span.parent is not None:
                parent = self.spans[span.parent].name
                totals[parent] -= span.end - span.start
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(vars(span)) + "\n")


def staged_run(spec: harness.ExperimentSpec, tracer: Tracer, scheme: model.Scheme | None = None):
    """`harness.run_cell(spec)` step by step, each layer call inside a span.

    Returns (report fields the benchmark compares, RunResult).  `scheme`
    replaces the registered scheme, e.g. with `harness.tampered(...)`.
    """
    tracer.run += 1
    with tracer.span("run"):
        with tracer.span("harness.resolve"):
            instance = harness.resolve_instance(spec)
            config = harness.build_scheme_config(spec, instance)
            demands = harness.make_demands(instance, spec.demands, spec.seed)
        if scheme is None:
            scheme = model.get_scheme(spec.scheme)
        name = spec.scheme
        with tracer.span("schemes.validate"):
            problems = scheme.validate(instance, config)
        if problems:
            raise model.SchemeParameterError(problems)
        if demands.K != instance.K:
            raise ValueError(f"demand vector has {demands.K} users, instance has {instance.K}")
        if any(not 1 <= d <= instance.N for pair in demands.pairs for d in pair):
            raise ValueError("demand index outside [1, N]")
        with tracer.span("model.library"):
            library = model.build_library(instance, spec.seed)
        with tracer.span(f"schemes.{name}.place"):
            cache = scheme.place(instance, config, library)
        budget = instance.cache_budget
        for k, total in enumerate(cache.totals(), start=1):
            if total > budget:
                raise RuntimeError(f"user {k} cache {total} symbols exceeds budget {budget}")
        with tracer.span(f"schemes.{name}.deliver"):
            transcript = scheme.deliver(instance, config, library, demands)
        decoded = []
        for k in range(1, instance.K + 1):
            with tracer.span(f"schemes.{name}.decode"):
                out = scheme.decode(instance, config, k, cache.for_user(k), transcript, demands)
            if demands.transposed(k):
                out = out.transpose()
            decoded.append(out)
        report = model.measure_load(transcript, instance.B, instance.field.symbol_bytes)
        with tracer.span("model.verify"):
            verified = model.verify_retrieval(instance, library, demands, decoded)
        with tracer.span("bounds.formula"):
            formula = scheme.formula_load(instance, config)
        with tracer.span("model.digest"):
            digest = transcript.digest()
    result = RunResult(
        instance, config, spec.seed, demands, library, cache, transcript, report, decoded, verified
    )
    fields = {
        "scheme": spec.scheme,
        "config": dict(vars(config)),
        "load": harness.fraction_str(report.load),
        "formula_load": harness.fraction_str(formula),
        "payload_symbols": report.total_payload_symbols,
        "verified": verified,
        "transcript_digest": digest,
    }
    return fields, result
