"""Smoke tests of the benchmark itself, at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Each workload must finish with its checks passing; a seeded defect (a
perturbed served value, a failed ordering, a failed call) must fail the
matching check and be counted; the seed must change the inputs but not
the checked properties.
"""

import asyncio
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import layers
import wl_figures
import wl_recommend
import wl_serve
from harness import Run

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
END_TO_END = {m["name"] for m in json.load(
    open(os.path.join(ROOT, "BENCHMARK.json")))["end_to_end"]}


def _assert_clean(run: Run) -> None:
    assert run.correct, run.notes
    assert run.failed == 0
    assert run.attempted > 0
    assert set(run.metrics) == END_TO_END
    assert all(v > 0 for v, _ in run.metrics.values()), run.metrics


def test_figures_completes():
    _assert_clean(wl_figures.measure(1, 0.0, 0.0, wl_figures.TINY))


def test_recommend_completes():
    _assert_clean(wl_recommend.measure(1, 0.0, 0.0, wl_recommend.TINY))


def test_serve_completes():
    _assert_clean(wl_serve.measure(1, 0.5, 0.0, wl_serve.TINY))


def test_traced_figures_partitions_the_pass():
    run = wl_figures.traced(1, wl_figures.TINY)
    assert run.correct
    assert set(run.layers) == {name for name, _, _ in layers.PER_LAYER}
    assert run.layers["obs.layer_coverage"] > 0.9
    assert run.layers["analysis.over_budget_builds"] == 0
    assert run.layers["plan.launch_memo_hits"] == 0


def test_perturbed_served_value_is_caught():
    async def serve_some():
        server = await wl_serve.start_server()
        reqs = wl_serve.draw(np.random.default_rng(0), 8)
        out = await wl_serve.closed_round(server, reqs, set(range(8)), 2)
        await server.close()
        return out.records

    records = asyncio.run(serve_some())
    spec, xs, values = records[3]
    bad = values.copy()
    bad[0] = np.nextafter(bad[0], np.float32(np.inf))
    records[3] = (spec, xs, bad)
    run = Run()
    wl_serve.check_oracle(run, records)
    assert run.failed == 1
    assert not run.correct


def test_failed_check_rows_are_counted():
    rows = [
        type("Row", (), dict(workload=w, config=c, seconds=1.0))
        for w in ("blackscholes", "sigmoid", "softmax")
        for c in ("cpu_1t", "cpu_32t", "pim_poly", "pim_llut_i",
                  "pim_llut_i_fx")]
    run = Run()
    wl_figures.check_fig9(run, rows)  # all equal: every strict order fails
    assert run.failed == 11
    assert not run.correct


def test_failed_recommend_call_is_counted(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("seeded failure")

    monkeypatch.setattr(wl_recommend.R, "recommend", broken)
    run = wl_recommend.measure(1, 0.0, 0.0, wl_recommend.TINY)
    assert run.attempted == run.failed > 0
    assert not run.correct


def test_seed_changes_inputs_not_properties():
    cfg = wl_figures.TINY
    a = wl_figures.pass_inputs(1, 0, cfg)
    b = wl_figures.pass_inputs(2, 0, cfg)
    assert not np.array_equal(a, b)
    assert not np.array_equal(wl_figures.pass_inputs(1, 1, cfg), a)
    assert wl_serve.draw(np.random.default_rng(1), 4)[0][1].tobytes() != \
        wl_serve.draw(np.random.default_rng(2), 4)[0][1].tobytes()
    runs = [wl_figures.measure(seed, 0.0, 0.0, cfg) for seed in (1, 2)]
    assert all(r.correct for r in runs)
    assert runs[0].checks == runs[1].checks
    assert runs[0].attempted == runs[1].attempted


def test_benchmark_json_lists_the_per_layer_catalog():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == layers.PER_LAYER


@pytest.mark.parametrize("trace", ["0", "1"])
def test_refuses_to_run_without_the_program(tmp_path, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         "figures", "--seed", "1", "--seconds", "1", "--trace", trace],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
