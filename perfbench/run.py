"""Layered SpGEMM benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload oneshot --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from its
``src/`` directory, never from anywhere else.  ``--trace 0`` prints the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` prints its
per-layer metrics, from a run that spends half its time untraced (for the
clean timings and the tracing overhead) and half traced.  The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``;
the first failed operation, if any, is described on standard error.
Workloads and metrics are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("oneshot", "graph_apps", "serve")


def import_program():
    """Import ``repro`` from this checkout's ``src/``, or exit non-zero."""
    # Ambient switches would trace, validate or retune every call.
    for name in ("REPRO_TRACE", "REPRO_DEBUG_VALIDATE", "REPRO_CALIBRATION",
                 "REPRO_SANITIZE"):
        os.environ.pop(name, None)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"cannot import the program from {src}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"repro was imported from {repro.__file__}, not from {src}")


def declared_metrics(traced: bool) -> "dict[str, str]":
    """Metric name -> unit, in the order ``BENCHMARK.json`` lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the smoke test")
    args = parser.parse_args(argv)
    declared = declared_metrics(bool(args.trace))
    import_program()

    import graph_apps
    import oneshot
    import served

    module = {"oneshot": oneshot, "graph_apps": graph_apps, "serve": served}[args.workload]
    ledger, measured = module.run(args.seed, args.seconds, args.size, bool(args.trace))

    # Every thread and child this run started must be gone by now.
    leftovers = [t.name for t in threading.enumerate() if t is not threading.main_thread()]
    children = multiprocessing.active_children()
    if leftovers or children:
        sys.exit(f"left running: threads {leftovers}, processes {children}")

    undeclared = set(measured) - set(declared)
    if undeclared:
        sys.exit(f"measured metrics missing from BENCHMARK.json: {sorted(undeclared)}")
    metrics = {}
    for name, unit in declared.items():
        if name in measured:
            value, got_unit = measured[name]
            if got_unit != unit:
                sys.exit(f"metric {name} measured in {got_unit}, declared in {unit}")
        elif args.trace:
            value = 0.0  # a layer this workload does not exercise
        else:
            sys.exit(f"end-to-end metric {name} was not measured")
        metrics[name] = {"value": float(value), "unit": unit}
    if ledger.first_failure is not None:
        print(f"first failure: {ledger.first_failure}", file=sys.stderr)
    print(json.dumps({
        "correct": ledger.wrong == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
