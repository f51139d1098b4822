"""The end-to-end script scripts/run_reproduction.py, run in process."""

import contextlib
import importlib.util
import io
import json
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
