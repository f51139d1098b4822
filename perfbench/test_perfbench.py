"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench -q      (about a minute and a half)

A planted wrong answer must raise the error rate above 0, the metric names
printed must be exactly those of BENCHMARK.json, and the spans must give
the right self times.  These run the workloads, so they are kept out of
the package's test suite (pytest's testpaths is ``tests``).
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
import oracles  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _one_pass(name: str, seed: int = 1) -> harness.Gate:
    workload = WORKLOADS[name]
    tracer = harness.Tracer(enabled=False)
    inputs = workload.setup(seed, tracer)
    gate = harness.Gate()
    try:
        harness.closed_loop(workload, inputs, tracer, gate, seconds=0, trace=False)
    finally:
        workload.teardown(inputs)
    return gate


def test_count_off_by_one_fails_the_gate(monkeypatch):
    from tourcycles import tournaments

    real = tournaments.exact_cycle_count
    monkeypatch.setattr(tournaments, "exact_cycle_count", lambda t, ln: real(t, ln) + 1)
    gate = _one_pass("census")
    assert gate.failed > 0 and gate.error_rate > 0


def test_max_2175_fails_the_gate(monkeypatch):
    from tourcycles import signsearch

    real = signsearch.search_max_cyclic_index

    def planted(order, *args, **kwargs):
        report = real(order, *args, **kwargs)
        if order == 8:  # bypass the frozen dataclass's own validation
            object.__setattr__(report, "max_cyclic_index", 2175)
        return report

    monkeypatch.setattr(signsearch, "search_max_cyclic_index", planted)
    gate = _one_pass("search8")
    assert gate.failed > 0 and gate.error_rate > 0


def test_wrong_constant_fails_the_gate(monkeypatch):
    from tourcycles import limits

    real = limits.conjectured_c

    def planted(length, *args, **kwargs):
        cv = real(length, *args, **kwargs)
        return dataclasses.replace(cv, value=cv.value + 1e-9) if length == 8 else cv

    monkeypatch.setattr(limits, "conjectured_c", planted)
    gate = _one_pass("limits")
    assert gate.failed > 0 and gate.error_rate > 0


def _run(args, cwd) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_printed_metrics_match_benchmark_json():
    spec = harness.load_spec()
    nonzero_layers = set()
    for name in spec["workloads"]:
        for trace, wanted in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            proc = _run(["--workload", name, "--seed", "3", "--seconds", "0",
                         "--trace", trace], harness.ROOT)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
            metrics = result["metrics"]
            assert list(metrics) == wanted
            assert all(m["unit"] == spec["units"][k] for k, m in metrics.items())
            if trace == "0":
                assert all(m["value"] > 0 for m in metrics.values()), metrics
            else:
                nonzero_layers |= {k for k, m in metrics.items() if m["value"] != 0}
    assert nonzero_layers == set(spec["per_layer"])


@pytest.mark.skipif(importlib.util.find_spec("tourcycles") is not None
                    and "site-packages" in str(importlib.util.find_spec("tourcycles").origin),
                    reason="tourcycles is installed, so a bare directory can import it")
def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(harness.SPEC_PATH, tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0"],
                tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_excludes_child_spans(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(harness.time, "perf_counter", lambda: float(next(ticks)))
    tr = harness.Tracer(enabled=True)
    with tr.stage("outer_s"):               # ticks 0 .. 7
        with tr.span("a.f", work=2):        # 1 .. 4
            with tr.span("b.g"):            # 2 .. 3
                pass
        with tr.span("b.g", work=1) as sp:  # 5 .. 6
            sp.add(work=1)
    stages, layers = tr.drain()
    assert stages == {"outer_s": 7.0}
    assert layers["a.f.s"] == 2.0 and layers["a.f.work"] == 2
    assert layers["b.g.s"] == 2.0 and layers["b.g.calls"] == 2 and layers["b.g.work"] == 2
    assert [r["parent"] for r in tr.log] == [2, 1, 1, None]


def test_untraced_spans_record_nothing():
    tr = harness.Tracer(enabled=False)
    with tr.stage("x_s"), tr.span("a.f", work=1) as sp:
        sp.add(work=1)
    stages, layers = tr.drain()
    assert list(stages) == ["x_s"] and layers == {} and tr.log == []


def test_oracles_agree_with_known_values():
    assert oracles.tangent_constant(4) == Fraction(4, 3)
    assert oracles.tangent_constant(8) == Fraction(332, 315)
    assert oracles.tangent_constant(12) == Fraction(157307, 155925)
    rng = np.random.default_rng(0)
    for _ in range(5):
        upper = np.triu(rng.integers(0, 2, size=(7, 7)), 1)
        adj = upper + np.triu(1 - upper, 1).T
        for length in range(3, 8):
            want = oracles.arrangement_counts(adj[None], length)[0]
            assert oracles.cycle_count(adj, length) == want
