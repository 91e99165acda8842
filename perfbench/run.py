#!/usr/bin/env python3
"""Benchmark of the slipstream simulator and its serving stack.

Run from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

``--workload`` is ``sweep``, ``serve-hot`` or ``serve-cold`` (see
``perfbench/README.md``).  With ``--trace 0`` the run reports the
end-to-end metrics named in ``BENCHMARK.json``; with ``--trace 1`` it
runs the workload untraced and then traced, reports the per-layer
metrics and writes one Perfetto file under ``.bench_work/traces/``.

The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The line before it records the host (CPU count, Python version, a
calibration score), the sample counts and the measured input-property
shares.  The exit status is 0 when every output checked out, 1 when one
did not, and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "serve-hot", "serve-cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metric_units(trace: bool) -> dict:
    """name -> unit of the metrics this run must print."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing "
              f"(no {SRC / 'repro'})", file=sys.stderr)
        return 2
    units = metric_units(bool(args.trace))

    # One-time set-up: imports and the source fingerprint every cache
    # key embeds.  The repeatable rest of set-up is timed per workload.
    started = time.perf_counter()
    sys.path[:0] = [str(SRC), str(ROOT)]
    from repro.experiments.cache import source_fingerprint
    from perfbench import inputs, measure, workloads
    source_fingerprint()
    one_time_s = time.perf_counter() - started

    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.perfetto.json"
    if args.trace:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Context(seed=args.seed, seconds=args.seconds,
                            traced=bool(args.trace), workdir=workdir,
                            trace_path=trace_path, one_time_s=one_time_s,
                            expected=inputs.load_expected())
    try:
        report = workloads.finish(workloads.WORKLOADS[args.workload](ctx))
    except measure.TooFewSamples as exc:
        print(f"perfbench: {exc}; raise --seconds", file=sys.stderr)
        return 2
    finally:
        for child in multiprocessing.active_children():
            child.join(timeout=10)
        shutil.rmtree(workdir, ignore_errors=True)

    values = report.layers if args.trace else report.e2e
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"perfbench: workload produced no {', '.join(missing)}",
              file=sys.stderr)
        return 2
    for problem in report.problems[:20]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    correct = not report.problems and report.failed == 0
    context = dict(report.context, workload=args.workload, seed=args.seed,
                   env=measure.environment(),
                   shares={name: value for name, value in report.layers.items()
                           if name.startswith("share.")})
    if args.trace:
        context["trace_file"] = str(trace_path.relative_to(ROOT))
    print("context " + json.dumps(context, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
