"""The end-to-end script scripts/run_reproduction.py, run in process."""

import contextlib
import importlib.util
import io
import itertools
import json
import time
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_reproduction.py"


def load_script():
    spec = importlib.util.spec_from_file_location("run_reproduction", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_reproduction_confirms_every_claim(tmp_path):
    out_path = tmp_path / "report.json"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = load_script().main(["--out", str(out_path)])
    assert code == 0
    assert "all claims confirmed" in out.getvalue()
    report = json.loads(out_path.read_text())
    assert set(report) == {
        "order4",
        "constants",
        "densities",
        "finite_extremal",
        "order8",
        "elapsed_seconds",
    }
    assert report["order8"]["contains_dominant"] and report["order8"]["contains_second_class"]


def test_elapsed_ignores_a_wall_clock_step(tmp_path, monkeypatch):
    ticks = itertools.count(2e9, -3600.0)  # the wall clock runs back an hour a read
    monkeypatch.setattr(time, "time", lambda: next(ticks))
    out_path = tmp_path / "report.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert load_script().main(["--skip-order8", "--out", str(out_path)]) == 0
    assert json.loads(out_path.read_text())["elapsed_seconds"] >= 0
