"""Workload ``recommend-sin``: ``recommend("sin")`` with default Requirements.

Almost the whole pass is host table build, and most of those tables are
larger than the 1 MiB budget and thrown away: ``recommend`` passes no byte
budget into ``sweep_method``, so it builds 2^22-2^24-entry tables before
discarding them (ROADMAP item 2a).  The workload keeps that fault so a
budget-aware pre-skip has something to move; ``figures`` has no budget,
so the same fix must leave it unchanged.

``recommend`` draws its own accuracy inputs (a fixed generator inside the
program) and builds a fresh ``PlanCache`` per method, so no pass can be
served from an earlier one.  The seed picks the held-out inputs the
checks re-evaluate every pick on.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.api import make_method
from repro.core.functions.registry import get_function
from repro.obs import span

from harness import (MIN_PASSES, SETUP_REPS, Run, latency_metrics, median,
                     now, pass_window, rss_mb, setup_seconds, timed_sweep)

FUNCTION = "sin"
#: A pick rebuilt on held-out inputs may miss the RMSE target by this
#: factor: ``recommend`` measured it on 4096 points, the check uses 2^16.
RMSE_MARGIN = 1.25
N_HELD_OUT = 1 << 16
#: The module, not the same-named function ``repro.analysis`` re-exports:
#: the pass times the sweep points by wrapping its ``sweep_method``.
R = importlib.import_module("repro.analysis.recommend")


@dataclass(frozen=True)
class Config:
    wram_only: bool = False


#: Small sizes for the smoke tests: a WRAM-only request, whose sweep
#: skips every table the scratchpad cannot hold before building it.
TINY = Config(wram_only=True)


def requirements(cfg: Config):
    return R.Requirements(wram_only=cfg.wram_only)


def held_out(seed: int) -> np.ndarray:
    lo, hi = get_function(FUNCTION).natural_range
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC0FFEE]))
    return rng.uniform(lo, hi, N_HELD_OUT).astype(np.float32)


def one_pass(req, latencies: List[float]):
    """One ``recommend`` call, timing each sweep point it evaluates."""
    sweep = R.sweep_method
    timed = timed_sweep(sweep, latencies)

    def sweep_with_span(*args, **kwargs):
        with span("bench.analysis"):
            return timed(*args, **kwargs)

    R.sweep_method = sweep_with_span
    try:
        with span("bench.analysis"):
            return R.recommend(FUNCTION, req)
    finally:
        R.sweep_method = sweep


def check_picks(run: Run, picks, req, xs: np.ndarray) -> None:
    run.attempted += 1
    ok = True
    over = [p.method for p in picks if p.table_bytes > req.memory_budget]
    ok &= run.check("picks_within_budget", not over, f"over budget: {over}")
    totals = [p.total_seconds for p in picks]
    ok &= run.check("picks_sorted", totals == sorted(totals), str(totals))
    reference = np.sin(xs.astype(np.float64))
    for p in picks:
        name, value = p.param.split("=")
        params = dict(R._GRIDS[p.method][2] or {})
        params[name] = int(value)
        if p.method == "slut_i":
            params["target_rmse"] = req.rmse_target
        m = make_method(FUNCTION, p.method, placement="mram",
                        assume_in_range=req.in_natural_range,
                        **params).setup()
        approx = m.evaluate_vec(xs).astype(np.float64)
        err = math.sqrt(float(np.mean((approx - reference) ** 2)))
        ok &= run.check("picks_meet_target",
                        err <= req.rmse_target * RMSE_MARGIN,
                        f"{p.method} {p.param}: held-out RMSE {err:.3g}")
    run.failed += 0 if ok else 1


def measure(seed: int, seconds: float, import_s: float,
            cfg: Config = Config()) -> Run:
    run = Run()
    reps = []
    for _ in range(SETUP_REPS):
        t0 = now()
        req, xs = requirements(cfg), held_out(seed)
        reps.append(now() - t0)
    start = now()
    walls: List[float] = []
    latencies: List[List[float]] = []  # sweep-point latencies, per pass
    while len(walls) < MIN_PASSES or now() - start < seconds:
        latencies.append([])
        try:
            with pass_window() as w:
                picks = one_pass(req, latencies[-1])
        except Exception as exc:  # a failed call is counted, not fatal
            run.attempted += 1
            run.failed += 1
            run.check("recommend_completes", False, repr(exc))
            picks = None
        walls.append(w.elapsed)
        if picks is not None:
            check_picks(run, picks, req, xs)
    run.metric("setup_s", setup_seconds(import_s, reps), "s")
    run.metric("pass_s", median(walls), "s")
    run.metric("throughput_rps", sum(map(len, latencies)) / sum(walls), "1/s")
    latency_metrics(run, latencies, MIN_PASSES * max(map(len, latencies)))
    run.metric("peak_rss_mb", rss_mb(), "MB")
    run.notes.append(f"passes: {len(walls)}")
    return run


def traced(seed: int, cfg: Config = Config()) -> Run:
    """Per-layer metrics of one traced pass."""
    import layers

    run = Run()
    req, xs = requirements(cfg), held_out(seed)
    picks, run.layers, run.tracer = layers.traced_pass(
        lambda i: one_pass(req, []), budget=req.memory_budget)
    check_picks(run, picks, req, xs)
    return run
