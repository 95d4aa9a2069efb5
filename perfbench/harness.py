"""Shared measurement helpers: passes, percentiles, memory, run results.

Every workload module builds a :class:`Run` and returns it; ``run.py``
turns it into the printed report and the final JSON line.  Nothing here
imports ``repro`` at module level, so ``run.py`` can time the program's
import as part of set-up.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional

#: Set-up repetitions per run; ``setup_s`` reports their median.
SETUP_REPS = 3
#: Batch workloads (one pass = seconds of work) run at least this many
#: passes, so the median never rests on the slower first pass.
MIN_PASSES = 3


def now() -> float:
    return time.perf_counter()


class pass_window:
    """Context manager for one timed pass: collect garbage before, none inside.

    ``elapsed`` holds the pass's wall seconds after the block.
    """

    def __enter__(self) -> "pass_window":
        gc.collect()
        gc.disable()
        self.elapsed = 0.0
        self._t0 = now()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = now() - self._t0
        gc.enable()


def quantile(values: List[float], q: float) -> float:
    """Linear-interpolated quantile (numpy's default method), q in [0, 1]."""
    if not values:
        raise ValueError("quantile of no samples")
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: List[float]) -> float:
    return statistics.median(values)


def rss_mb() -> float:
    """Peak resident memory of this process, MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class TimedValues:
    """An iterable that records when each of its items is taken.

    ``sweep_method`` loops once over its ``param_values``; wrapping them in
    this class times every sweep point from outside the program: a point's
    latency is the gap between taking its value and taking the next one
    (or :meth:`close`, called when the sweep returns).  Points the sweep
    skips for size count too, as the short points they are.
    """

    def __init__(self, values: Iterable, sink: List[float]):
        self._values = tuple(values)
        self._sink = sink
        self._last: Optional[float] = None

    def __iter__(self) -> Iterator:
        for v in self._values:
            t = now()
            if self._last is not None:
                self._sink.append(t - self._last)
            self._last = t
            yield v

    def close(self) -> None:
        if self._last is not None:
            self._sink.append(now() - self._last)
            self._last = None


def timed_sweep(sweep_method: Callable, sink: List[float]) -> Callable:
    """``sweep_method`` with every point's latency appended to ``sink``."""

    def wrapper(*args, **kwargs):
        if len(args) >= 4:
            args = list(args)
            values = args[3] = TimedValues(args[3], sink)
        else:
            values = kwargs["param_values"] = TimedValues(
                kwargs["param_values"], sink)
        try:
            return sweep_method(*args, **kwargs)
        finally:
            values.close()

    return wrapper


@dataclass
class Run:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    checks: Dict[str, bool] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    #: name -> (value, unit)
    metrics: Dict[str, tuple] = field(default_factory=dict)
    #: Traced runs only: per-layer metric name -> value, and the tracer.
    layers: Dict[str, float] = field(default_factory=dict)
    tracer: object = None

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Record a named check; a failed check keeps the run incorrect."""
        if not ok and detail and self.checks.get(name, True):
            self.notes.append(f"{name}: {detail}")
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        return ok

    @property
    def correct(self) -> bool:
        return all(self.checks.values()) and self.failed == 0

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


def setup_seconds(import_s: float, reps: List[float]) -> float:
    """``setup_s``: the one-time imports plus the median preparation."""
    return import_s + median(reps)


def tail_level(q: float, n: int) -> float:
    """``q``, or the highest level with ten of ``n`` samples beyond it."""
    return min(q, 1.0 - 10.0 / n)


def latency_metrics(run: Run, groups: List[List[float]],
                    tail_n: int) -> None:
    """Median and tail of per-operation latencies (seconds in, ms out).

    ``latency_p50_ms`` is the median over ``groups`` (sample lists measured
    apart: per pass, or per 100 requests) of each group's median, so one
    slow pass or one noisy spell moves it little.  ``latency_p99_ms`` is
    read from all samples at the p99, or at the highest level with ten
    samples beyond it among ``tail_n``, the fewest samples any full run of
    the workload takes; the level is thus fixed per workload, not moved by
    how many samples one run happened to get.
    """
    groups = [g for g in groups if g]
    samples = [x for g in groups for x in g]
    if not samples:  # every operation failed before it was timed
        run.metric("latency_p50_ms", 0.0, "ms")
        run.metric("latency_p99_ms", 0.0, "ms")
        return
    run.metric("latency_p50_ms",
               median([quantile(g, 0.5) for g in groups]) * 1e3, "ms")
    level = tail_level(0.99, min(tail_n, len(samples)))
    run.metric("latency_p99_ms", quantile(samples, level) * 1e3, "ms")
    run.notes.append(f"latency samples: {len(samples)} in {len(groups)} "
                     f"group(s); latency_p99_ms is the p{100 * level:.1f} "
                     f"level")


def chunks(samples: List[float], size: int) -> List[List[float]]:
    """Consecutive groups of about ``size`` samples (one if fewer)."""
    n = max(1, len(samples) // size)
    q, r = divmod(len(samples), n)
    out, start = [], 0
    for i in range(n):
        end = start + q + (1 if i < r else 0)
        out.append(samples[start:end])
        start = end
    return out
