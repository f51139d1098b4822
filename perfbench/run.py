#!/usr/bin/env python3
"""tourcycles benchmark: one command, three workloads, every answer checked.

    python3 perfbench/run.py --workload {search8,census,limits} --seed N \
        --seconds S --trace {0,1}

Runs from the repository root and imports the package from ``src/``.  The
load is a closed loop: one client process runs full passes of the workload,
each after the previous one completes, until ``--seconds`` have passed (at
least one pass).  Pools inside the program use at most 2 workers.

stdout gets one human-readable line per metric (median over passes, with
min / max and the pass count), a provenance line, and, as its last line,
one JSON object: ``correct``, ``attempted`` / ``failed`` (correctness
checks; their ratio is the error rate) and ``metrics``, which holds every
end-to-end metric of BENCHMARK.json with ``--trace 0`` and every per-layer
metric with ``--trace 1``.  See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

SETUP_SAMPLES = 7  # this process's set-up plus six fresh interpreters


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up, print {\"setup_s\": ...} and exit")
    return p.parse_args(argv)


def _setup(name, seed, tracer):
    """Import numpy and the package, build the inputs; returns (workload, inputs, seconds)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(harness.ROOT / "src"))
    import tourcycles  # noqa: F401  (the import is part of set-up)
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    inputs = workload.setup(seed, tracer)
    return workload, inputs, time.perf_counter() - t0


def main(argv=None) -> int:
    args = _parse(argv)
    spec = harness.load_spec()
    if args.workload not in spec["workloads"]:
        print(f"unknown workload {args.workload!r}; choose from {spec['workloads']}",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    tracer = harness.Tracer(enabled=trace)
    workload, inputs, setup0 = _setup(args.workload, args.seed, tracer)
    if args.setup_only:
        workload.teardown(inputs)
        print(json.dumps({"setup_s": setup0}))
        return 0
    _, setup_layers = tracer.drain()

    gate = harness.Gate()
    try:
        passes = harness.closed_loop(workload, inputs, tracer, gate, args.seconds, trace)
    finally:
        workload.teardown(inputs)
    rss = harness.peak_rss_mb()
    script = Path(__file__).resolve()
    setups = [setup0] + [harness.probe_setup(script, args.workload, args.seed)
                         for _ in range(SETUP_SAMPLES - 1)]

    timed = [p for p in passes if p["traced"]] if trace else passes
    values = harness.median_metrics(timed)
    values.update(setup_layers)
    values["setup_s"] = statistics.median(setups)
    values["peak_rss_mb"] = rss
    values["error_rate"] = gate.error_rate
    if trace:
        plain = [p["wall_s"] for p in passes if not p["traced"]]
        values["bench.trace_overhead_s"] = values["wall_s"] - statistics.median(plain)
        spans = harness.OUT_ROOT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans)
        print(f"spans written to {spans.relative_to(harness.ROOT)}", file=sys.stderr)

    units = dict(spec["units"], error_rate="ratio")
    for name in sorted(values):
        series = [p[name] for p in timed if name in p]
        extra = f"  (median of {len(series)} passes, min {min(series):.6g}, " \
                f"max {max(series):.6g})" if len(series) > 1 else ""
        print(f"{name:48s} {values[name]:<14.6g} {units.get(name, '')}{extra}")
    print(f"{'setup_s samples':48s} {' '.join(f'{s:.4f}' for s in setups)} s")
    print("provenance " + json.dumps(harness.provenance(), sort_keys=True))

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {m: {"value": values.get(m, 0), "unit": units[m]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
