"""Workload ``serve-mixed``: the loadgen mixed profile against one Server.

One long-lived :class:`repro.serve.Server`, its six lane plans built
during set-up, serves the ``MIXED_PROFILE`` mix (six kernels, 8-96
elements per request) from one asyncio process with no threads, in two
phases that alternate through the run:

* a closed loop of ``clients`` logical clients, each sending its next
  request when the previous one returns, in rounds of
  ``clients x requests_per_client`` requests (``throughput_rps`` is the
  phase's completed requests per second; ``pass_s``, the median round,
  restates it);
* an open loop at one fixed rate, well below the closed-loop throughput,
  in segments of ``rate x segment_s`` requests.  Each request is timed
  from when it was due, so a stalled generator shows up in the latency,
  and the generator's own lateness is recorded.  The latency metrics are
  the open loop's.

Every round and segment draws fresh request contents from the seed.
Serve-layer admission, coalescing and scatter plus the fused evaluator
over small batches dominate; no table is built after set-up.
"""

from __future__ import annotations

import asyncio
from contextlib import ExitStack
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.api import make_method
from repro.core.functions.registry import get_function
from repro.isa.counter import CycleCounter
from repro.plan.session import PlanSession
from repro.serve import MIXED_PROFILE, ServeConfig, Server

from harness import (SETUP_REPS, Run, chunks, latency_metrics, median, now,
                     pass_window, quantile, rss_mb, setup_seconds)

_F32 = np.float32


@dataclass(frozen=True)
class Config:
    clients: int = 64
    requests_per_client: int = 8
    #: Open-loop arrival rate, requests per second (fixed, not derived
    #: from a measurement, so both sides of a comparison send the same).
    #: Arrivals this sparse rarely coalesce, so each costs a launch of its
    #: own (about 1 ms): 250/s keeps the server about a quarter busy.
    rate: float = 250.0
    #: Requests are drawn and sent in segments of rate x segment_s.
    segment_s: float = 4.0


#: Share of the run spent in the closed loop; the open loop gets the rest.
CLOSED_SHARE = 0.25
#: Served responses per round or segment re-evaluated by the oracle.
ORACLE_PER_PASS = 2
#: Open-loop requests per latency group (in completion order) for the
#: median; the p99 is read from all of them, ten samples beyond it in
#: every 1000.
GROUP = 100
TAIL_N = 1000

TINY = Config(clients=4, requests_per_client=2, rate=200.0, segment_s=0.1)


@dataclass
class Served:
    """Outcome of a batch of requests: latencies, failures, checked records."""

    latencies: List[float]
    lags: List[float]
    failed: int
    records: List[Tuple[object, np.ndarray, np.ndarray]]


def draw(rng: np.random.Generator, n: int):
    """``n`` requests of the mixed profile: (spec, float32 inputs) pairs."""
    items = MIXED_PROFILE.items
    picks = rng.choice(len(items), size=n, p=MIXED_PROFILE.weights())
    out = []
    for k in picks:
        item = items[int(k)]
        size = int(rng.integers(item.min_n, item.max_n + 1))
        lo, hi = get_function(item.spec.function).natural_range
        out.append((item.spec, rng.uniform(lo, hi, size).astype(_F32)))
    return out


def _rng(seed: int, phase: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, phase, index]))


def _oracle_picks(rng: np.random.Generator, n: int, k: int) -> set:
    return set(int(i) for i in rng.choice(n, size=min(k, n), replace=False))


async def _submit(server: Server, spec, xs, due: float, out: Served,
                  keep: bool) -> None:
    try:
        res = await server.submit_spec(spec, xs)
    except Exception:  # every refused or failed request is counted
        out.failed += 1
        return
    out.latencies.append(now() - due)
    if keep:
        out.records.append((spec, xs, res.values))


async def closed_round(server: Server, reqs, keep: set,
                       clients: int) -> Served:
    """Each client sends its share of ``reqs`` one after another."""
    out = Served([], [], 0, [])
    per = len(reqs) // clients

    async def client(c: int) -> None:
        for i in range(c * per, (c + 1) * per):
            spec, xs = reqs[i]
            await _submit(server, spec, xs, now(), out, i in keep)

    await asyncio.gather(*(client(c) for c in range(clients)))
    return out


async def open_segment(server: Server, reqs, keep: set, rate: float) -> Served:
    """Send ``reqs`` on a fixed schedule, whatever the server's progress."""
    out = Served([], [], 0, [])
    tasks = []
    t0 = now()
    i = 0
    while i < len(reqs):
        t = now()
        while i < len(reqs) and t0 + i / rate <= t:
            due = t0 + i / rate
            out.lags.append(t - due)
            spec, xs = reqs[i]
            tasks.append(asyncio.ensure_future(
                _submit(server, spec, xs, due, out, i in keep)))
            i += 1
        # Poll rather than sleep until the next request is due: a timer
        # wake-up of the idle loop is late by about a millisecond (more
        # on a busy host), which would time the machine, not the server.
        await asyncio.sleep(0)
    await asyncio.gather(*tasks)
    return out


async def start_server() -> Server:
    """A server with every lane's plan built (one request per kernel)."""
    server = Server(session=PlanSession(), config=ServeConfig())
    await asyncio.gather(*(server.submit_spec(item.spec, np.ones(8, _F32))
                           for item in MIXED_PROFILE.items))
    return server


def check_oracle(run: Run, records) -> None:
    """Served values equal the scalar ``Method.evaluate`` bit for bit."""
    methods = {}
    bad = 0
    for spec, xs, served in records:
        m = methods.get(spec)
        if m is None:
            m = methods[spec] = make_method(
                spec.function, spec.method, placement=spec.placement,
                assume_in_range=spec.assume_in_range,
                **spec.param_kwargs()).setup()
        oracle = np.array([m.evaluate(CycleCounter(m.costs), x) for x in xs],
                          dtype=_F32)
        if oracle.tobytes() != np.asarray(served, dtype=_F32).tobytes():
            bad += 1
    run.failed += bad
    run.check("served_equals_scalar_oracle", bad == 0,
              f"{bad} of {len(records)} sampled responses differ")
    run.notes.append(f"oracle-checked responses: {len(records)}")


def _account(run: Run, served: Served, sent: int) -> None:
    run.attempted += sent
    run.failed += served.failed
    run.check("every_request_completes", served.failed == 0
              and len(served.latencies) == sent,
              f"{served.failed} of {sent} requests failed")


async def _measure(seed: int, seconds: float, cfg: Config, run: Run):
    reps = []
    server = None
    for _ in range(SETUP_REPS):
        if server is not None:
            await server.close()
        t0 = now()
        server = await start_server()
        reps.append(now() - t0)

    per_round = cfg.clients * cfg.requests_per_client
    per_segment = max(1, int(cfg.rate * cfg.segment_s))
    closed_s = cfg.segment_s * CLOSED_SHARE / (1 - CLOSED_SHARE)
    rounds, closed, records = [], [], []  # closed: latencies per round
    latencies, lags = [], []  # latencies per open segment
    start = now()
    while not latencies or now() - start < seconds:
        # The phases alternate (closed rounds, then one open segment), so
        # both sample the whole run rather than one spell of the machine.
        t = now()
        while True:
            rng = _rng(seed, 0, len(rounds))
            reqs = draw(rng, per_round)
            keep = _oracle_picks(rng, per_round, ORACLE_PER_PASS)
            with pass_window() as w:
                out = await closed_round(server, reqs, keep, cfg.clients)
            rounds.append(w.elapsed)
            closed.append(out.latencies)
            records += out.records
            _account(run, out, per_round)
            if now() - t >= closed_s:
                break
        rng = _rng(seed, 1, len(latencies))
        reqs = draw(rng, per_segment)
        keep = _oracle_picks(rng, per_segment, ORACLE_PER_PASS)
        with pass_window():
            out = await open_segment(server, reqs, keep, cfg.rate)
        latencies.append(out.latencies)
        lags += out.lags
        records += out.records
        _account(run, out, per_segment)
    await server.close()
    return reps, rounds, closed, latencies, lags, records


def measure(seed: int, seconds: float, import_s: float,
            cfg: Config = Config()) -> Run:
    run = Run()
    reps, rounds, closed, latencies, lags, records = asyncio.run(
        _measure(seed, seconds, cfg, run))
    check_oracle(run, records)
    run.metric("setup_s", setup_seconds(import_s, reps), "s")
    run.metric("pass_s", median(rounds), "s")
    run.metric("throughput_rps", sum(map(len, closed)) / sum(rounds), "1/s")
    latency_metrics(run, chunks([x for segment in latencies
                                 for x in segment], GROUP), TAIL_N)
    run.metric("peak_rss_mb", rss_mb(), "MB")
    run.notes.append(f"closed rounds: {len(rounds)}; open-loop rate "
                     f"{cfg.rate:g}/s, generator lag p99 "
                     f"{quantile(lags, 0.99) * 1e3:.3f} ms")
    return run


async def _traced(seed: int, cfg: Config, run: Run):
    import layers

    traced = layers.Traced()
    with traced.phase("setup"):
        server = await start_server()
    per_round = cfg.clients * cfg.requests_per_client
    walls = []
    for i in range(3):  # warm-up, untraced, traced
        rng = _rng(seed, 0, i)
        reqs = draw(rng, per_round)
        keep = _oracle_picks(rng, per_round, ORACLE_PER_PASS)
        b0 = server.batches
        with ExitStack() as stack:
            w = stack.enter_context(pass_window())
            if i == 2:
                stack.enter_context(traced.phase("pass"))
            served = await closed_round(server, reqs, keep, cfg.clients)
        walls.append(w.elapsed)
        _account(run, served, per_round)
    batches = server.batches - b0
    rng = _rng(seed, 1, 0)
    reqs = draw(rng, max(1, int(cfg.rate * cfg.segment_s)))
    with pass_window():
        open_out = await open_segment(server, reqs, set(), cfg.rate)
    _account(run, open_out, len(reqs))
    stats = server.stats()
    await server.close()

    out = traced.metrics()
    dispatch = layers.span_seconds(
        traced.phases["pass"][0],
        ("bench.batch.values", "bench.plan.execute_plan"))
    out.update({
        "obs.trace_overhead_s": walls[2] - walls[1],
        "serve.batches": batches,
        "serve.coalesce_ratio": per_round / batches if batches else 0.0,
        "serve.dispatch_s": dispatch,
        "serve.overhead_s": walls[2] - dispatch,
        "serve.plan_builds": server.session.plans.misses,
        "serve.singleflight_followers": stats["singleflight"]["followers"],
        "serve.generator_lag_p99_ms": quantile(open_out.lags, 0.99) * 1e3,
    })
    run.layers, run.tracer = out, traced.tracer()
    return served.records


def traced(seed: int, cfg: Config = Config()) -> Run:
    """Per-layer metrics of one traced closed-loop round (plus set-up)."""
    run = Run()
    records = asyncio.run(_traced(seed, cfg, run))
    check_oracle(run, records)
    return run
