"""Traced mode: per-layer self times and counts from ``repro.obs``.

A traced run attaches a :class:`repro.obs.Tracer` and a
:class:`repro.obs.MetricsRegistry`, and adds the benchmark's own spans
around layer entry points the program does not span itself
(:class:`Instrument`).  :func:`rollup` then assigns every span's *self*
time (its wall time minus its children's) to exactly one layer, so the
self times of one pass partition that pass's wall time; what no layer
claims is reported as ``obs.unattributed_s``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from harness import now, pass_window

#: Every per-layer metric a traced run reports: (name, unit, better).
#: BENCHMARK.json lists the same entries (a smoke test keeps them equal).
PER_LAYER: List[Tuple[str, str, str]] = [
    ("core.table_build_s", "s", "lower"),
    ("core.tables_built", "count", "lower"),
    ("core.table_bytes_built", "B", "lower"),
    ("analysis.points", "count", "higher"),
    ("analysis.points_skipped", "count", "higher"),
    ("analysis.point_overhead_s", "s", "lower"),
    ("analysis.rmse_s", "s", "lower"),
    ("analysis.harness_s", "s", "lower"),
    ("analysis.over_budget_builds", "count", "lower"),
    ("analysis.over_budget_build_s", "s", "lower"),
    ("batch.vec_values_s", "s", "lower"),
    ("batch.vec_elements", "count", "higher"),
    ("batch.trace_s", "s", "lower"),
    ("batch.paths_traced", "count", "lower"),
    ("batch.tally_cache_hit_ratio", "ratio", "higher"),
    ("batch.memo_hits", "count", "lower"),
    ("plan.compile_s", "s", "lower"),
    ("plan.execute_s", "s", "lower"),
    ("plan.cache_hit_ratio", "ratio", "higher"),
    ("plan.table_hit_ratio", "ratio", "higher"),
    ("plan.launch_memo_hits", "count", "lower"),
    ("pim.model_s", "s", "lower"),
    ("pim.sim_seconds", "s", "lower"),
    ("serve.batches", "count", "lower"),
    ("serve.coalesce_ratio", "ratio", "higher"),
    ("serve.dispatch_s", "s", "lower"),
    ("serve.overhead_s", "s", "lower"),
    ("serve.plan_builds", "count", "lower"),
    ("serve.singleflight_followers", "count", "higher"),
    ("serve.generator_lag_p99_ms", "ms", "lower"),
    ("workloads.self_s", "s", "lower"),
    ("obs.trace_overhead_s", "s", "lower"),
    ("obs.unattributed_s", "s", "lower"),
    ("obs.layer_coverage", "ratio", "higher"),
]

#: Span name -> the layer metric its self time belongs to.  Names not
#: listed (the benchmark's own pass/setup roots included) are unattributed.
LAYER_OF_SPAN: Dict[str, str] = {
    "plan.table_build": "core.table_build_s",
    "table_build": "core.table_build_s",
    "bench.core.setup": "core.table_build_s",
    "sweep.point": "analysis.point_overhead_s",
    "sweep.build": "analysis.point_overhead_s",
    "sweep.rmse": "analysis.rmse_s",
    "bench.analysis": "analysis.harness_s",
    "bench.batch.values": "batch.vec_values_s",
    "dpu.trace": "batch.trace_s",
    "plan.compile": "plan.compile_s",
    "plan.execute": "plan.execute_s",
    "session.launch": "plan.execute_s",
    "session.stream": "plan.execute_s",
    "bench.plan.execute_plan": "plan.execute_s",
    "host_to_pim": "pim.model_s",
    "kernel": "pim.model_s",
    "pim_to_host": "pim.model_s",
    "launch": "pim.model_s",
    "host.run": "workloads.self_s",
    "host.install": "workloads.self_s",
    "workload.softmax": "workloads.self_s",
    "phase.max": "workloads.self_s",
    "phase.exp_sum": "workloads.self_s",
    "phase.scale": "workloads.self_s",
    "reduce": "workloads.self_s",
}


def _self_ns(span) -> int:
    return span.duration_ns - sum(c.duration_ns for c in span.children)


class Instrument:
    """The benchmark's own spans and counts around layer entry points.

    Patches, for the duration of a ``with`` block only:

    * ``Method.setup`` — every host table build (``bench.core.setup``),
      counting tables, bytes and builds over ``budget`` bytes;
    * ``ExecutionPlan.values`` — the fused evaluator's value path;
    * ``PlanSession.execute_plan`` — the serve layer's launch path.
    """

    def __init__(self, budget: Optional[int] = None):
        self.budget = budget
        self.tables_built = 0
        self.table_bytes_built = 0
        self.over_budget_builds = 0
        self.over_budget_build_s = 0.0
        self.vec_elements = 0
        self._depth = 0
        self._saved: List[tuple] = []

    def __enter__(self) -> "Instrument":
        from repro.core.method import Method
        from repro.obs import span
        from repro.plan.plan import ExecutionPlan
        from repro.plan.session import PlanSession

        inst = self
        setup, values = Method.setup, ExecutionPlan.values
        execute_plan = PlanSession.execute_plan

        def traced_setup(method, memory=None):
            outer = inst._depth == 0
            inst._depth += 1
            t0 = now()
            try:
                with span("bench.core.setup"):
                    out = setup(method, memory)
            finally:
                inst._depth -= 1
            if outer:
                nbytes = method.table_bytes()
                inst.tables_built += 1
                inst.table_bytes_built += nbytes
                if inst.budget is not None and nbytes > inst.budget:
                    inst.over_budget_builds += 1
                    inst.over_budget_build_s += now() - t0
            return out

        def traced_values(plan, x):
            inst.vec_elements += int(getattr(x, "size", len(x)))
            with span("bench.batch.values"):
                return values(plan, x)

        def traced_execute_plan(session, *args, **kwargs):
            with span("bench.plan.execute_plan"):
                return execute_plan(session, *args, **kwargs)

        self._saved = [(Method, "setup", setup),
                       (ExecutionPlan, "values", values),
                       (PlanSession, "execute_plan", execute_plan)]
        Method.setup = traced_setup
        ExecutionPlan.values = traced_values
        PlanSession.execute_plan = traced_execute_plan
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in self._saved:
            setattr(owner, name, original)
        self._saved = []


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def rollup(tracer, registry, inst: Instrument) -> Dict[str, float]:
    """Per-layer metrics over every span and counter of a traced run."""
    out = {name: 0.0 for name, _, _ in PER_LAYER}
    self_ns: Dict[str, int] = {}
    sim_seconds = 0.0
    stack = list(tracer.roots)
    while stack:
        s = stack.pop()
        layer = LAYER_OF_SPAN.get(s.name, "obs.unattributed_s")
        self_ns[layer] = self_ns.get(layer, 0) + _self_ns(s)
        if s.name == "plan.execute":  # one simulated launch
            sim_seconds += float(s.attrs.get("sim_seconds", 0.0))
        stack.extend(s.children)
    for layer, ns in self_ns.items():
        out[layer] = ns / 1e9

    v = registry.value
    out.update({
        "core.tables_built": inst.tables_built,
        "core.table_bytes_built": inst.table_bytes_built,
        "analysis.points": v("sweep.points"),
        "analysis.points_skipped": v("sweep.skipped_oversized"),
        "analysis.over_budget_builds": inst.over_budget_builds,
        "analysis.over_budget_build_s": inst.over_budget_build_s,
        "batch.vec_elements": inst.vec_elements,
        "batch.paths_traced": v("batch.paths_traced"),
        "batch.tally_cache_hit_ratio": _ratio(
            v("batch.tally_cache.hits"), v("batch.tally_cache.misses")),
        "batch.memo_hits": v("batch.vec.memo.hits"),
        "plan.cache_hit_ratio": _ratio(v("plancache.hits"),
                                       v("plancache.misses")),
        "plan.table_hit_ratio": _ratio(v("plancache.table_hits"),
                                       v("plancache.table_misses")),
        "plan.launch_memo_hits": v("plan.launch_memo.hits"),
        "pim.sim_seconds": sim_seconds,
    })
    return out


def pass_coverage(tracer) -> Tuple[float, float]:
    """(unattributed seconds, attributed share of wall time) of a pass."""
    root = tracer.roots[-1]
    unattributed = 0
    stack = [root]
    while stack:
        s = stack.pop()
        if s.name not in LAYER_OF_SPAN:
            unattributed += _self_ns(s)
        stack.extend(s.children)
    wall = root.duration_ns
    return unattributed / 1e9, (wall - unattributed) / wall if wall else 0.0


def span_seconds(tracer, names) -> float:
    """Inclusive seconds of the outermost spans named in ``names``."""
    total = 0
    stack = list(tracer.roots)
    while stack:
        s = stack.pop()
        if s.name in names:
            total += s.duration_ns
            continue
        stack.extend(s.children)
    return total / 1e9


#: One-time preparation: a traced run reports these over its set-up and
#: its traced pass together; every other metric covers the pass alone.
SETUP_METRICS = ("core.table_build_s", "core.tables_built",
                 "core.table_bytes_built", "plan.compile_s")


class Traced:
    """The traced phases of one run: an optional set-up, then one pass.

    Each phase gets its own tracer, metrics registry and
    :class:`Instrument`, so the pass's metrics are not mixed with the
    set-up's except for :data:`SETUP_METRICS`.
    """

    def __init__(self, budget: Optional[int] = None):
        self.budget = budget
        self.phases: Dict[str, tuple] = {}

    @contextmanager
    def phase(self, name: str):
        """Trace the block as ``bench.<name>`` (``setup`` or ``pass``)."""
        from repro.obs import (MetricsRegistry, Tracer, collecting, span,
                               tracing)

        parts = (Tracer(), MetricsRegistry(), Instrument(self.budget))
        with tracing(parts[0]), collecting(parts[1]), parts[2]:
            with span(f"bench.{name}"):
                yield
        self.phases[name] = parts

    def metrics(self) -> Dict[str, float]:
        tracer, registry, inst = self.phases["pass"]
        out = rollup(tracer, registry, inst)
        if "setup" in self.phases:
            before = rollup(*self.phases["setup"])
            for name in SETUP_METRICS:
                out[name] += before[name]
        out["obs.unattributed_s"], out["obs.layer_coverage"] = \
            pass_coverage(tracer)
        return out

    def tracer(self):
        """One tracer holding every phase's spans (for the Chrome trace)."""
        from repro.obs import Tracer

        merged = Tracer()
        for tracer, _, _ in self.phases.values():
            merged.roots.extend(tracer.roots)
        return merged


def traced_pass(run_pass, budget: Optional[int] = None):
    """Warm-up, untraced and traced runs of ``run_pass(index)``.

    Returns ``(result of the traced pass, per-layer metrics, tracer)``.
    The warm-up keeps the first pass's one-off costs out of
    ``obs.trace_overhead_s`` (traced pass minus untraced pass).
    """
    run_pass(0)
    with pass_window() as plain:
        run_pass(1)
    traced = Traced(budget)
    with pass_window() as w, traced.phase("pass"):
        result = run_pass(2)
    out = traced.metrics()
    out["obs.trace_overhead_s"] = w.elapsed - plain.elapsed
    return result, out, traced.tracer()
