"""Steadiness: two sets of k runs per workload, checked against the bounds.

Usage (from the repository root)::

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --workloads serve-mixed --runs 5 --sets 1

Runs are interleaved (every listed workload once, then the next seed), so
a noisy spell of the machine falls on all workloads alike rather than on
whichever ran last.  Set ``s`` uses seeds ``first + s * runs`` onward and
the run length from ``BENCHMARK.json``.  For every end-to-end metric it
prints, per set, the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread,
(q3 - q1) / median; and the drift of the second set's median from the
first's, in the metric's worse direction.

A metric passes when each set's spread is within its bound (``setup_s``
excepted) and the drift is within its bound: the rule the bounds in
``BENCHMARK.json`` are set by.  ``tight`` marks spreads under a third of
the bound, the margin aimed for.  The failed share of every run must be
identical.  Exit code 0 when everything passes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def report(workload: str, sets, bench) -> bool:
    print(f"\n{workload}: {len(sets)} set(s) of {len(sets[0])} runs of "
          f"{bench['run_seconds']} s")
    print(f"{'metric':16s} {'set':>3s} {'median':>11s} {'q1':>11s} "
          f"{'q3':>11s} {'spread':>7s} {'bound':>6s}")
    ok = True
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        medians = []
        for k, results in enumerate(sets):
            q1, q2, q3, s = spread([r["metrics"][name]["value"]
                                    for r in results])
            medians.append(q2)
            wide = s > bound and name != "setup_s"
            ok &= not wide
            mark = "WIDE" if wide else ("tight" if s < bound / 3 else "")
            print(f"{name:16s} {k + 1:3d} {q2:11.5g} {q1:11.5g} {q3:11.5g} "
                  f"{s:7.3f} {bound:6.2f}  {mark}")
        if len(medians) > 1:
            drift = (medians[1] - medians[0]) / medians[0]
            if metric["better"] == "higher":
                drift = -drift
            ok &= drift <= bound
            print(f"{name:16s} drift (worse +) {drift:+.3f}"
                  f"{'  DRIFT' if drift > bound else ''}")
    shares = {r["failed"] / r["attempted"] for rs in sets for r in rs}
    ok &= len(shares) == 1
    print(f"failed shares: {sorted(shares)}")
    return ok


def main(argv=None) -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    listed = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=listed,
                    choices=listed)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=2)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)

    results = {w: [[] for _ in range(args.sets)] for w in args.workloads}
    for s in range(args.sets):
        for k in range(args.runs):
            seed = args.first_seed + s * args.runs + k
            for w in args.workloads:
                res = run_once(w, seed, bench["run_seconds"])
                results[w][s].append(res)
                shown = " ".join(f"{n}={m['value']:.4g}"
                                 for n, m in res["metrics"].items())
                print(f"set {s + 1} {w} seed {seed}: correct="
                      f"{res['correct']} failed {res['failed']}/"
                      f"{res['attempted']}  {shown}", flush=True)
    ok = all([report(w, results[w], bench) for w in args.workloads])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
