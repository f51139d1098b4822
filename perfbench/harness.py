"""Measurement machinery: spans, the correctness gate, the closed loop, provenance.

Spans are recorded only around the benchmark's own calls into tourcycles'
public functions; nothing inside the package is instrumented.  Tracing off
means ``Tracer(enabled=False)``: span() returns a shared no-op object and
only the stage timers, which the end-to-end metrics need, keep running.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
TMP_ROOT = ROOT / ".bench_tmp"
OUT_ROOT = ROOT / ".bench_out"


def load_spec() -> dict:
    """Metric names and units as declared in BENCHMARK.json."""
    with open(SPEC_PATH) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return {
        "end_to_end": [m["name"] for m in spec["end_to_end"]],
        "per_layer": [m["name"] for m in spec["per_layer"]],
        "units": units,
        "workloads": [w["name"] for w in spec["workloads"]],
    }


class Gate:
    """Counts every correctness check; a failed check is reported, never skipped."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, label: str, detail="") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED: {label} {detail}".rstrip(), file=sys.stderr)
        return bool(ok)

    def close(self, got, want, label: str, rel: float) -> bool:
        """Check |got - want| <= rel * max(1, |want|)."""
        ok = abs(got - want) <= rel * max(1.0, abs(want))
        return self.check(ok, label, f"got {got!r}, want {want!r}")

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def add(self, **counts):
        pass


_NULL = _NullSpan()


class _Span:
    __slots__ = ("tracer", "name", "counts", "stage", "id", "parent", "start", "end")

    def __init__(self, tracer, name, counts, stage):
        self.tracer = tracer
        self.name = name
        self.counts = counts
        self.stage = stage
        self.id = self.parent = None
        self.start = self.end = 0.0

    def __enter__(self):
        tracer = self.tracer
        tracer._next_id += 1
        self.id = tracer._next_id
        stack = tracer._stack
        self.parent = stack[-1] if stack else None
        stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        self.tracer._stack.pop()
        self.tracer.spans.append(self)
        if self.stage:
            stages = self.tracer.stages
            stages[self.name] = stages.get(self.name, 0.0) + self.end - self.start
        return False

    def add(self, **counts):
        for key, val in counts.items():
            self.counts[key] = self.counts.get(key, 0) + val

    def record(self, batch: int) -> dict:
        return {
            "batch": batch, "id": self.id, "parent": self.parent and self.parent.id,
            "name": self.name, "stage": self.stage, "start": self.start, "end": self.end,
            "counts": self.counts,
        }


class Tracer:
    """In-memory spans with parents, plus always-on stage timers.

    ``span(layer_name, **counts)`` wraps one call into a tourcycles layer;
    ``stage(metric_name)`` wraps a group of calls whose total time is an
    end-to-end metric.  Stage spans are the parents of the layer spans they
    contain, so a layer's self time excludes any span nested inside it.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[_Span] = []
        self.stages: dict[str, float] = {}
        self.log: list[dict] = []  # drained spans of traced batches
        self._stack: list[_Span] = []
        self._next_id = 0
        self._batch = 0

    def span(self, name: str, **counts):
        if not self.enabled:
            return _NULL
        return _Span(self, name, dict(counts), stage=False)

    def stage(self, name: str):
        return _Span(self, name, {}, stage=True)

    def drain(self) -> tuple[dict[str, float], dict[str, float]]:
        """Return (stage seconds, layer totals) recorded since the last drain.

        Layer totals are keyed ``<layer>.s`` (self seconds), ``<layer>.calls``
        and ``<layer>.<count>`` for every count attached to its spans.  The
        spans of a traced batch (set-up or one pass) move to ``log``, which
        ``write`` saves when the run ends.
        """
        covered: dict[int, float] = {}
        for sp in self.spans:
            if sp.parent is not None:
                key = sp.parent.id
                covered[key] = covered.get(key, 0.0) + sp.end - sp.start
        layers: dict[str, float] = {}
        for sp in self.spans:
            if sp.stage:
                continue
            self_s = sp.end - sp.start - covered.get(sp.id, 0.0)
            layers[sp.name + ".s"] = layers.get(sp.name + ".s", 0.0) + self_s
            layers[sp.name + ".calls"] = layers.get(sp.name + ".calls", 0) + 1
            for key, val in sp.counts.items():
                name = f"{sp.name}.{key}"
                layers[name] = layers.get(name, 0) + val
        if self.enabled:
            self._batch += 1
            self.log.extend(sp.record(self._batch) for sp in self.spans)
        stages = self.stages
        self.spans, self.stages = [], {}
        return stages, layers

    def write(self, path: Path):
        """Save every logged span as one JSON object per line."""
        path.parent.mkdir(exist_ok=True)
        with open(path, "w") as fh:
            for rec in self.log:
                fh.write(json.dumps(rec) + "\n")


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run the tourcycles command line in this process; return (exit code, stdout)."""
    from tourcycles import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def bytes_written() -> int:
    """Bytes this process has passed to write(2) so far (Linux /proc/self/io)."""
    with open("/proc/self/io") as fh:
        for line in fh:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar field")


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def closed_loop(workload, inputs, tracer: Tracer, gate: Gate, seconds: float, trace: bool):
    """One client issues pass after pass, each after the previous completes.

    Returns a list of per-pass metric dicts.  With ``trace`` the passes
    alternate traced / untraced (traced first), so the traced run also
    measures the tracing overhead; each dict carries ``traced``.
    """
    passes = []
    start = time.perf_counter()
    while True:
        tracer.enabled = trace and len(passes) % 2 == 0
        t0 = time.perf_counter()
        try:
            counts = workload.run_pass(inputs, tracer, gate)
        except Exception:
            # a pass that raises is a failed check, and its numbers are dropped
            gate.check(False, "pass raised", traceback.format_exc())
            tracer.drain()
            if not passes:
                raise
            return passes
        wall = time.perf_counter() - t0
        stages, layers = tracer.drain()
        values = dict(stages)
        values.update(layers)
        values.update(counts)
        values.update(workload.derived(values))
        values["wall_s"] = wall
        values["traced"] = tracer.enabled
        passes.append(values)
        done = time.perf_counter() - start >= seconds
        if done and (not trace or len(passes) >= 2):
            return passes


def median_metrics(passes: list[dict]) -> dict[str, float]:
    names = sorted({k for p in passes for k in p if k != "traced"})
    return {k: statistics.median(p.get(k, 0) for p in passes) for k in names}


def probe_setup(script: Path, workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter: imports, inputs, temp dirs."""
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
        capture_output=True, text=True, timeout=30,
    )
    return proc.stdout.strip() if proc.returncode == 0 else None


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS library numpy has loaded, if it is OpenBLAS."""
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _fs_type(path: Path) -> str | None:
    """Filesystem type of the mount holding ``path`` (longest mount-point prefix)."""
    target = str(path.resolve())
    best, fstype = "", None
    with open("/proc/mounts") as fh:
        for line in fh:
            parts = line.split()
            mnt = parts[1]
            inside = target == mnt or target.startswith(mnt.rstrip("/") + "/")
            if inside and len(mnt) >= len(best):
                best, fstype = mnt, parts[2]
    return fstype


def provenance() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "checkpoint_fs": _fs_type(TMP_ROOT if TMP_ROOT.exists() else ROOT),
        "machine": platform.machine(),
    }
