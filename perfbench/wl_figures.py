"""Workload ``figures``: regenerate Figures 5-9 as the CLI does.

One pass runs the Figure 5-7 sine sweep (``SINE_SWEEPS`` over both
placements into one fresh ``PlanCache``, exactly the loop of
``fig5_data()``), renders the Fig. 5/6/7 reports from its points, then
``fig8_data()`` and ``fig9_data()`` with their reports.  The sweep's
2^16 inputs are drawn fresh from the seed for every pass, and the cache
is new every pass, so every table is built and no memo from an earlier
pass can serve a later one.  Host table build and RMSE evaluation
dominate; the serve layer does nothing here.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.analysis import figures as F
from repro.analysis.sweep import SINE_SWEEPS, default_inputs, sweep_method
from repro.api import make_method
from repro.obs import check_fig5_artifacts, span
from repro.pim.config import SystemConfig
from repro.pim.system import PIMSystem
from repro.plan.cache import PlanCache

from harness import (MIN_PASSES, SETUP_REPS, Run, latency_metrics, median,
                     now, pass_window, rss_mb, setup_seconds, timed_sweep)

PLACEMENTS = ("mram", "wram")
#: RMSE at which float32 evaluation bottoms out for sine (about 2e-7):
#: past it, a larger precision knob need not lower the RMSE further.
RMSE_FLOOR = 2e-7
#: sweep_method's defaults, which the RMSE re-check must use to find the
#: pass's cached plans again.
_SWEEP_PARAMS = inspect.signature(sweep_method).parameters


@dataclass(frozen=True)
class Config:
    sweeps: Dict[str, dict] = field(default_factory=lambda: dict(SINE_SWEEPS))
    n_inputs: int = 1 << 16
    fig9: Dict[str, int] = field(default_factory=dict)
    #: Run the committed-artifact staleness check (needs the full sweep).
    artifacts: bool = True


#: Small sizes for the smoke tests.
TINY = Config(
    sweeps={k: dict(SINE_SWEEPS[k],
                    param_values=SINE_SWEEPS[k]["param_values"][:3])
            for k in ("cordic", "llut_i", "mlut", "poly")},
    n_inputs=4096,
    fig9=dict(trace_elements=1000),
    artifacts=False,
)


@dataclass
class Pass:
    inputs: np.ndarray
    cache: PlanCache
    points: list
    fig8: dict
    fig9: list
    texts: List[str]


def pass_inputs(seed: int, index: int, cfg: Config) -> np.ndarray:
    """The sweep's inputs for pass ``index``: fresh per pass, fixed by seed."""
    sub = int(np.random.SeedSequence([seed, index]).generate_state(1)[0])
    return default_inputs("sin", n=cfg.n_inputs, seed=sub)


def one_pass(inputs: np.ndarray, latencies: List[float], cfg: Config) -> Pass:
    cache = PlanCache(maxsize=256)
    sweep = timed_sweep(sweep_method, latencies)
    points = []
    for method, sweep_cfg in cfg.sweeps.items():
        for placement in PLACEMENTS:
            with span("bench.analysis"):
                points.extend(sweep("sin", method, placement=placement,
                                    inputs=inputs, plan_cache=cache,
                                    **sweep_cfg))
    with span("bench.analysis"):
        texts = [F.fig5_report(points), F.fig6_report(points),
                 F.fig7_report(points)]
    with span("bench.analysis"):
        fig8 = F.fig8_data()
        texts.append(F.fig8_report(fig8))
    with span("bench.analysis"):
        fig9 = F.fig9_data(**cfg.fig9)
        texts.append(F.fig9_report(fig9))
    return Pass(inputs, cache, points, fig8, fig9, texts)


# ----------------------------------------------------------------------
# checks (outside the timed window)


def _params(point, cfg: Config) -> dict:
    name, value = point.param.split("=")
    params = dict(cfg.sweeps[point.method].get("extra_params") or {})
    params[name] = int(value)
    return params


def check_rmse(run: Run, p: Pass, cfg: Config) -> None:
    """Recompute every point's RMSE against ``np.sin`` in float64.

    The approximations are the ones the pass evaluated, found again in the
    pass's plan cache; the reference and the RMSE are the benchmark's own.
    """
    system = PIMSystem(SystemConfig(n_dpus=1))
    reference = np.sin(p.inputs.astype(np.float64))
    bad = 0
    for point in p.points:
        m = make_method("sin", point.method, placement=point.placement,
                        assume_in_range=True, **_params(point, cfg))
        plan = p.cache.plan(system, m,
                            tasklets=_SWEEP_PARAMS["tasklets"].default,
                            sample_size=_SWEEP_PARAMS["sample_size"].default)
        approx = plan.memo.get("sweep_rmse_approx")
        if approx is None:
            bad += 1
            continue
        ours = math.sqrt(float(np.mean((approx - reference) ** 2)))
        if not math.isclose(ours, point.rmse, rel_tol=1e-9, abs_tol=0.0):
            bad += 1
    run.failed += bad
    run.check("rmse_recomputed", bad == 0, f"{bad} points disagree")


def _curves(points) -> Dict[tuple, list]:
    curves: Dict[tuple, list] = {}
    for point in points:
        curves.setdefault((point.method, point.placement), []).append(point)
    return curves


def check_properties(run: Run, p: Pass) -> None:
    curves = _curves(p.points)
    # RMSE never rises with the knob until the float32 floor.
    rising = [(k, a.param, b.param) for k, pts in curves.items()
              for a, b in zip(pts, pts[1:])
              if b.rmse > max(a.rmse, RMSE_FLOOR)]
    run.failed += len(rising)
    run.check("rmse_monotone", not rising, f"rises at {rising[:3]}")

    # WRAM rows equal MRAM rows in RMSE and cost no more cycles.
    mram = {(q.method, q.param): q for q in p.points if q.placement == "mram"}
    bad = 0
    for q in p.points:
        if q.placement != "wram":
            continue
        twin = mram.get((q.method, q.param))
        if twin is None or q.rmse != twin.rmse \
                or q.cycles_per_element > twin.cycles_per_element:
            bad += 1
    run.failed += bad
    run.check("wram_matches_mram", bad == 0, f"{bad} WRAM rows differ")

    # CORDIC pays a constant number of cycles per extra iteration.
    for (method, placement), pts in curves.items():
        if not method.startswith("cordic") or len(pts) < 3:
            continue
        iters = [int(q.param.split("=")[1]) for q in pts]
        steps = [(b.cycles_per_element - a.cycles_per_element) / (j - i)
                 for a, b, i, j in zip(pts, pts[1:], iters, iters[1:])]
        odd = sum(not math.isclose(s, steps[0], rel_tol=1e-9)
                  for s in steps)
        run.failed += odd
        run.check("cordic_constant_step", odd == 0,
                  f"{method}/{placement} steps {steps}")


def check_fig9(run: Run, rows) -> None:
    """The paper's Figure 9 orderings."""
    t = {(r.workload, r.config): r.seconds for r in rows}
    held = []
    for wl in ("blackscholes", "sigmoid", "softmax"):
        held += [t[wl, "cpu_32t"] < t[wl, "cpu_1t"],
                 t[wl, "pim_poly"] > t[wl, "pim_llut_i"],
                 t[wl, "pim_llut_i"] < t[wl, "cpu_1t"]]
    held += [t["blackscholes", "pim_llut_i_fx"] < t["blackscholes", "cpu_32t"],
             t["sigmoid", "cpu_32t"] < t["sigmoid", "pim_llut_i"]]
    run.failed += held.count(False)
    run.check("fig9_orderings", all(held),
              f"{held.count(False)} of {len(held)} orderings fail")


def check_pass(run: Run, p: Pass, cfg: Config) -> None:
    run.attempted += len(p.points) + len(p.fig8) + len(p.fig9)
    check_rmse(run, p, cfg)
    check_properties(run, p)
    check_fig9(run, p.fig9)


def check_artifacts(run: Run) -> None:
    status = check_fig5_artifacts()
    run.check("fig5_artifacts_fresh",
              all(v == "fresh" for v in status.values()), str(status))
    run.notes.append("regenerate fig5 artifacts: PYTHONPATH=src python -c "
                     "'import repro.obs as o; o.regenerate_fig5_artifacts()'")


# ----------------------------------------------------------------------


def measure(seed: int, seconds: float, import_s: float,
            cfg: Config = Config()) -> Run:
    run = Run()
    reps = []
    for _ in range(SETUP_REPS):
        t0 = now()
        pass_inputs(seed, 0, cfg)
        reps.append(now() - t0)
    start = now()
    walls: List[float] = []
    latencies: List[List[float]] = []  # sweep-point latencies, per pass
    n_points = 0
    while len(walls) < MIN_PASSES or now() - start < seconds:
        inputs = pass_inputs(seed, len(walls), cfg)
        latencies.append([])
        with pass_window() as w:
            p = one_pass(inputs, latencies[-1], cfg)
        walls.append(w.elapsed)
        n_points += len(p.points)
        check_pass(run, p, cfg)
        del p
    if cfg.artifacts:
        check_artifacts(run)
    run.metric("setup_s", setup_seconds(import_s, reps), "s")
    run.metric("pass_s", median(walls), "s")
    run.metric("throughput_rps", n_points / sum(walls), "1/s")
    latency_metrics(run, latencies, MIN_PASSES * max(map(len, latencies)))
    run.metric("peak_rss_mb", rss_mb(), "MB")
    run.notes.append(f"passes: {len(walls)}")
    return run


def traced(seed: int, cfg: Config = Config()) -> Run:
    """Per-layer metrics of one traced pass."""
    import layers

    run = Run()
    p, run.layers, run.tracer = layers.traced_pass(
        lambda i: one_pass(pass_inputs(seed, i, cfg), [], cfg))
    check_pass(run, p, cfg)
    return run
