"""Host wall-clock benchmark of the reproduction: one workload per run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload figures --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the workload once under ``repro.obs`` tracing and reports the
per-layer metrics instead, writing them (and a Chrome trace) under
``--out``.  Either way the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

_T0 = time.perf_counter()  # set-up starts before repro (or numpy) loads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = {
    "figures": "wl_figures",
    "recommend-sin": "wl_recommend",
    "serve-mixed": "wl_serve",
}


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=os.path.join(HERE, "out"),
                    help="where --trace 1 writes its JSON and Chrome trace")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program sources at {src}/repro; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)

    import importlib

    module = importlib.import_module(WORKLOADS[args.workload])
    import_s = time.perf_counter() - _T0

    if args.trace:
        run = module.traced(args.seed)
        metrics = write_layers(args, run)
    else:
        run = module.measure(args.seed, args.seconds, import_s)
        metrics = {name: {"value": v, "unit": u}
                   for name, (v, u) in run.metrics.items()}

    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    for name, ok in run.checks.items():
        print(f"check {name:26s} {'ok' if ok else 'FAILED'}")
    for note in run.notes:
        print(f"note  {note}")
    print(f"attempted {run.attempted}  failed {run.failed}")
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def write_layers(args, run) -> dict:
    import layers

    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    metrics = {name: {"value": float(run.layers[name]), "unit": units[name]}
               for name, _, _ in layers.PER_LAYER}
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, f"{args.workload}-seed{args.seed}")
    with open(stem + ".layers.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "metrics": metrics}, fh, indent=2)
    with open(stem + ".trace.json", "w") as fh:
        json.dump(run.tracer.to_chrome_trace(), fh)
    run.notes.append(f"wrote {stem}.layers.json and {stem}.trace.json")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
