"""Command-line front end.

Subcommands: count, spectrum, profile4, verify-lemma, reproduce,
conjecture-table, carousel, sample.  Exit codes: 0 success / claims
confirmed, 1 usage or IO error, 2 verification mismatch.  All randomness
flows from the --seed flag, so every command is deterministic given its
arguments.  count and verify-lemma run in one process; their --workers
flags (default from TOURCYCLES_WORKERS) must be >= 1 and change nothing else.

Each command imports the modules it uses when it runs, and no others:
verify-lemma loads signsearch and tournaments; count and spectrum load
tournaments and spectral; profile4, carousel and sample load tournaments
alone; reproduce, conjecture-table, carousel --grid and sample --w-grid
load limits, which brings spectral and tournaments.  --help and usage
errors load no numpy.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2

WORKERS_ENV = "TOURCYCLES_WORKERS"


def _check_args(args):
    """Reject bad common settings before any computation starts.

    Paths are checked up front, so a long search cannot fail at write time
    on a bad output or checkpoint location.
    """
    workers = getattr(args, "workers", 1)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    length = getattr(args, "length", 3)
    if length < 3:
        raise ValueError(f"cycle length must be >= 3, got {length}")
    tolerance = getattr(args, "tolerance", 0.0)
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance}")
    for attr in ("input", "matrix_file", "w_grid"):
        path = getattr(args, attr, None)
        if path and not os.path.exists(path):
            raise ValueError(f"input file not found: {path}")
    for attr in ("output", "checkpoint"):
        path = getattr(args, attr, None)
        parent = os.path.dirname(os.path.abspath(path)) if path else None
        if parent and not os.path.isdir(parent):
            raise ValueError(f"{attr} directory does not exist: {parent}")


def _fmt_float(x: float) -> str:
    return f"{x:.15g}"


def _default_workers() -> int:
    try:
        return max(1, int(os.environ.get(WORKERS_ENV, "1")))
    except ValueError:
        return 1


def _emit(text: str, path: str | None):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render_report(rows: list[dict], fmt: str) -> str:
    """Render a list of flat records as json, csv or aligned text."""
    if fmt == "json":
        payload = rows[0] if len(rows) == 1 else rows
        return json.dumps(payload, indent=2, default=str) + "\n"
    keys = list(rows[0].keys())
    cells = [
        [_fmt_float(r[k]) if isinstance(r[k], float) else str(r[k]) for k in keys]
        for r in rows
    ]
    if fmt == "csv":
        buf = io.StringIO()
        buf.write(",".join(keys) + "\n")
        for row in cells:
            buf.write(",".join(row) + "\n")
        return buf.getvalue()
    widths = [max(len(k), *(len(row[i]) for row in cells)) for i, k in enumerate(keys)]
    lines = ["  ".join(k.ljust(w) for k, w in zip(keys, widths))]
    for row in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def _tournament_from_args(args):
    from . import tournaments

    sources = [
        args.input is not None,
        args.carousel is not None,
        args.transitive is not None,
        args.random is not None,
    ]
    if sum(sources) != 1:
        raise ValueError("exactly one of --input/--carousel/--transitive/--random is required")
    if args.input is not None:
        with open(args.input) as fh:
            return tournaments.parse_tournament(fh.read())
    if args.carousel is not None:
        return tournaments.make_carousel(args.carousel)
    if args.transitive is not None:
        return tournaments.make_transitive(args.transitive)
    return tournaments.sample_random(args.random, args.seed)


def _add_workers(p: argparse.ArgumentParser):
    p.add_argument("--workers", type=int, default=_default_workers(),
                   help="must be >= 1; the command runs in this process at any value")


def _add_tournament_source(p: argparse.ArgumentParser):
    p.add_argument("--input", help="tournament text file")
    p.add_argument("--carousel", type=int, help="carousel tournament on N vertices")
    p.add_argument("--transitive", type=int, help="transitive tournament on N vertices")
    p.add_argument("--random", type=int, help="random tournament on N vertices")
    p.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")


def cmd_count(args) -> int:
    from . import spectral, tournaments

    t = _tournament_from_args(args)
    if args.length > t.n:
        raise ValueError(f"cycle length {args.length} exceeds vertex count {t.n}")
    count = tournaments.exact_cycle_count(t, args.length)
    expected = tournaments.expected_random_cycles(t.n, args.length)
    density = count / expected
    tdensity = spectral.trace_density(t, args.length)
    row = {
        "n": t.n,
        "length": args.length,
        "count": count,
        "expected_random": expected,
        "normalized_density": density,
        "trace_density": tdensity,
        "gap": abs(density - tdensity),
    }
    _emit(_render_report([row], args.format), args.output)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    from . import spectral

    if args.matrix_file:
        with open(args.matrix_file) as fh:
            m = spectral.parse_matrix(fh.read())
        report = spectral.eigenvalues(m)
    else:
        t = _tournament_from_args(args)
        report = spectral.eigenvalues(spectral.tournament_matrix(t))
    _emit(json.dumps(report.to_json_dict(), indent=2) + "\n", args.output)
    return EXIT_OK


def cmd_profile4(args) -> int:
    from . import tournaments

    t = _tournament_from_args(args)
    p = tournaments.four_profile(t)
    row = {"n": t.n, "t4": p.t4, "c4": p.c4, "l4": p.l4, "w4": p.w4, "total": p.total}
    _emit(_render_report([row], args.format), args.output)
    return EXIT_OK


def cmd_verify_lemma(args) -> int:
    from . import signsearch

    report = signsearch.search_max_cyclic_index(
        args.order,
        workers=args.workers,
        restrict_first_row=not args.full,
        checkpoint_path=args.checkpoint,
    )
    want_max, want_bits = signsearch.CERTIFIED[args.order]
    expected_reps = set(want_bits)
    got_reps = {c.bits for c in report.achiever_classes}
    mismatches = []
    if report.max_cyclic_index != want_max:
        mismatches.append(f"max {report.max_cyclic_index} != {want_max}")
    if len(report.achiever_classes) != len(want_bits):
        mismatches.append(f"{len(report.achiever_classes)} classes != {len(want_bits)}")
    if got_reps != expected_reps:
        mismatches.append(f"class representatives {sorted(got_reps)} != {sorted(expected_reps)}")
    payload = report.to_json_dict(include_elapsed=not args.strip_elapsed)
    payload["confirmed"] = not mismatches
    _emit(json.dumps(payload, indent=2) + "\n", args.output)
    if mismatches:
        print("MISMATCH: " + "; ".join(mismatches), file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_reproduce(args) -> int:
    import numpy as np

    from . import limits

    rows = []
    worst = 0.0
    carousel = limits.carousel_tournamenton(args.grid)
    for length in range(3, 9):
        if length % 4 == 2:
            grid = limits.StepTournamenton.from_first_row(np.full(args.grid, 0.5))
            construction = "quasirandom"
        else:
            grid, construction = carousel, "carousel"
        density = limits.cycle_density_W(grid, length)
        # c(l) = 1 exactly when 4 does not divide l
        target = float(limits.conjectured_c(length).exact) if length % 4 == 0 else 1.0
        gap = abs(density - target)
        worst = max(worst, gap)
        rows.append(
            {
                "length": length,
                "known_c": target,
                "construction": construction,
                "grid_density": density,
                "gap": gap,
            }
        )
    _emit(_render_report(rows, args.format), args.output)
    if worst > args.tolerance:
        print(
            f"MISMATCH: worst gap {_fmt_float(worst)} exceeds tolerance "
            f"{_fmt_float(args.tolerance)}",
            file=sys.stderr,
        )
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_conjecture_table(args) -> int:
    """Table of c(l) for l = 4, 8, ...; exact values, so terms_used and truncation_bound are 0."""
    if args.max_length < 4:
        raise ValueError(f"--max-length must be >= 4, got {args.max_length}")
    from . import limits

    rows = []
    for length in range(4, args.max_length + 1, 4):
        cv = limits.conjectured_c(length)
        rows.append(
            {
                "length": length,
                "conjectured_c": cv.value,
                "lower_bound": 1.0 + limits.lower_bound_c(length),
                "terms_used": cv.terms_used,
                "truncation_bound": cv.truncation_bound,
            }
        )
    _emit(_render_report(rows, args.format), args.output)
    return EXIT_OK


def cmd_carousel(args) -> int:
    if args.grid is not None:
        from . import limits, spectral

        w = limits.carousel_tournamenton(args.grid)
        _emit(spectral.format_matrix(w), args.output)
    else:
        from . import tournaments

        t = tournaments.make_carousel(args.n)
        _emit(tournaments.format_tournament(t), args.output)
    return EXIT_OK


def cmd_sample(args) -> int:
    from . import tournaments

    if args.w_grid:
        from . import limits, spectral

        with open(args.w_grid) as fh:
            w = limits.StepTournamenton(spectral.parse_matrix(fh.read()))
        t = tournaments.sample_w_random(w, args.n, args.seed)
    else:
        t = tournaments.sample_random(args.n, args.seed)
    _emit(tournaments.format_tournament(t), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tourcycles",
        description="Cycle counts, spectra and extremal verification for tournaments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt="json"):
        p.add_argument("--output", "-o", help="write to file instead of stdout")
        if fmt:
            p.add_argument("--format", choices=("json", "csv", "text"), default=fmt)

    p = sub.add_parser("count", help="exact cycle count and densities")
    _add_tournament_source(p)
    p.add_argument("--length", "-l", type=int, default=3)
    _add_workers(p)
    common(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("spectrum", help="eigenvalue report of a tournament or matrix")
    _add_tournament_source(p)
    p.add_argument("--matrix-file", help="read a raw matrix instead of a tournament")
    common(p, fmt=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("profile4", help="induced 4-vertex subtournament counts")
    _add_tournament_source(p)
    common(p)
    p.set_defaults(func=cmd_profile4)

    p = sub.add_parser("verify-lemma", help="exhaustive cyclic-index maximum check")
    p.add_argument("--order", type=int, choices=(4, 8), required=True)
    _add_workers(p)
    p.add_argument(
        "--checkpoint",
        help="checkpoint file for resume; written once per run, after the scan or when "
        "it is interrupted (a kill by SIGKILL during the scan keeps the old file)",
    )
    p.add_argument("--full", action="store_true", help="enumerate all matrices (order 4)")
    p.add_argument(
        "--strip-elapsed", action="store_true", help="omit timing from the report"
    )
    common(p, fmt=None)
    p.set_defaults(func=cmd_verify_lemma)

    p = sub.add_parser("reproduce", help="limit-density reproduction table")
    p.add_argument("--grid", type=int, default=512, help="carousel grid resolution")
    p.add_argument("--tolerance", type=float, default=0.02)
    common(p)
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("conjecture-table", help="series values for lengths 4, 8, ...")
    p.add_argument("--max-length", type=int, default=32)
    common(p, fmt="csv")
    p.set_defaults(func=cmd_conjecture_table)

    p = sub.add_parser("carousel", help="emit a carousel tournament or grid")
    p.add_argument("n", type=int, nargs="?", default=9, help="vertex count (odd)")
    p.add_argument("--grid", type=int, help="emit the grid at this resolution instead")
    common(p, fmt=None)
    p.set_defaults(func=cmd_carousel)

    p = sub.add_parser("sample", help="sample a (W-)random tournament")
    p.add_argument("n", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--w-grid", help="step tournamenton file to sample from")
    common(p, fmt=None)
    p.set_defaults(func=cmd_sample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        _check_args(args)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
