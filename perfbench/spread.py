#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --seeds 1-10 [--workload W ...] [--trace 0|1]
                                [--out FILE]

Runs ``perfbench/run.py`` once per workload and seed, one run at a time,
for BENCHMARK.json's ``run_seconds``.  For every metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, (Q3 - Q1) / median, which must stay below the metric's bound.
With ``--out`` it writes the summary, every run's values and the
provenance of the last run as JSON.  A run that fails a check or exits
non-zero stops the script with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10")
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary, runs, prov = {}, {}, None
    for name in args.workload or [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                print(f"{name} seed {seed}: run failed", file=sys.stderr)
                return 1
            prov = next(json.loads(ln[len("provenance "):]) for ln in lines
                        if ln.startswith("provenance "))
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v[-1]:.6g}" for k, v in values.items() if k in bounds), flush=True)
        summary[name], runs[name] = {}, values
        for metric, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else None
            summary[name][metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            bound = f"  bound {bounds[metric]}" if metric in bounds else ""
            shown = "n/a" if spread is None else f"{spread:.4f}"
            print(f"  {metric:46s} median {med:<12.6g} spread {shown}{bound}")
    if args.out:
        args.out.write_text(json.dumps({
            "seeds": args.seeds, "trace": args.trace, "run_seconds": spec["run_seconds"],
            "provenance": prov, "summary": summary, "runs": runs,
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
