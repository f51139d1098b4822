#!/usr/bin/env python3
"""End-to-end reproduction run.

Executes the full verification pipeline and writes one JSON report:

  1. exhaustive cyclic-index search at order 4 (restricted and full);
  2. exhaustive cyclic-index search at order 8 (2^21 matrices);
  3. series constants against 4/3 and 332/315;
  4. carousel grid densities over a refinement ladder;
  5. finite extremal counts over all 5-vertex tournaments.

Usage:
    python scripts/run_reproduction.py [--workers W] [--skip-order8]
                                       [--out report.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from tourcycles import limits, signsearch, tournaments


def order4_section() -> dict:
    restricted = signsearch.search_max_cyclic_index(4, restrict_first_row=True)
    full = signsearch.search_max_cyclic_index(4, restrict_first_row=False)
    return {
        "restricted": restricted.to_json_dict(),
        "full": full.to_json_dict(),
        "agree": (
            restricted.max_cyclic_index == full.max_cyclic_index
            and [c.bits for c in restricted.achiever_classes]
            == [c.bits for c in full.achiever_classes]
        ),
    }


def order8_section(workers: int) -> dict:
    report = signsearch.search_max_cyclic_index(8, workers=workers)
    _, (dominant, second) = signsearch.CERTIFIED[8]
    reps = {c.bits for c in report.achiever_classes}
    return {
        "report": report.to_json_dict(),
        "contains_dominant": dominant in reps,
        "contains_second_class": second in reps,
    }


def constants_section() -> dict:
    rows = []
    for length in (4, 8, 12, 16, 24, 32):
        cv = limits.conjectured_c(length)
        rows.append(
            {
                "length": length,
                "value": cv.value,
                "terms_used": cv.terms_used,
                "truncation_bound": cv.truncation_bound,
            }
        )
    return {
        "table": rows,
        "c4_error": abs(limits.conjectured_c(4).value - 4 / 3),
        "c8_error": abs(limits.conjectured_c(8).value - 332 / 315),
    }


def density_section() -> dict:
    ladder = {}
    for k in (64, 128, 256, 512):
        grid = limits.carousel_tournamenton(k)
        ladder[k] = {
            "density4": limits.cycle_density_W(grid, 4),
            "density8": limits.cycle_density_W(grid, 8),
        }
    return {
        "ladder": ladder,
        "targets": {"4": 4 / 3, "8": 332 / 315},
    }


def finite_extremal_section() -> dict:
    best3 = best4 = 0
    for bits in range(1 << 10):
        out = [0] * 5
        idx = 0
        for i in range(5):
            for j in range(i + 1, 5):
                if (bits >> idx) & 1:
                    out[i] |= 1 << j
                else:
                    out[j] |= 1 << i
                idx += 1
        t = tournaments.Tournament(5, tuple(out))
        best3 = max(best3, tournaments.exact_cycle_count(t, 3))
        best4 = max(best4, tournaments.exact_cycle_count(t, 4))
    return {
        "max_3_cycles": best3,
        "formula_3": 5 * (25 - 1) // 24,
        "max_4_cycles": best4,
        "formula_4": 5 * (25 - 1) * 2 // 48,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--skip-order8", action="store_true")
    parser.add_argument("--out", default="reproduction_report.json")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    report = {
        "order4": order4_section(),
        "constants": constants_section(),
        "densities": density_section(),
        "finite_extremal": finite_extremal_section(),
    }
    if not args.skip_order8:
        report["order8"] = order8_section(args.workers)
    report["elapsed_seconds"] = time.perf_counter() - t0

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"wrote {args.out} ({report['elapsed_seconds']:.1f}s)")

    ok = (
        report["order4"]["restricted"]["max_cyclic_index"] == signsearch.CERTIFIED[4][0]
        and report["order4"]["agree"]
        and report["constants"]["c4_error"] <= 1e-12
        and report["constants"]["c8_error"] <= 1e-12
        and report["finite_extremal"]["max_3_cycles"] == 5
        and report["finite_extremal"]["max_4_cycles"] == 5
    )
    if not args.skip_order8:
        ok = ok and (
            report["order8"]["report"]["max_cyclic_index"] == signsearch.CERTIFIED[8][0]
            and report["order8"]["contains_dominant"]
            and report["order8"]["contains_second_class"]
        )
    print("all claims confirmed" if ok else "MISMATCH: see report")
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
