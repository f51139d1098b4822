import importlib
import os
import subprocess
import sys

import pytest


@pytest.mark.parametrize("module", ["tournaments", "spectral", "signsearch", "limits"])
def test_every_export_resolves(module):
    mod = importlib.import_module(f"tourcycles.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_cli_import_loads_no_process_pool():
    import tourcycles

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tourcycles.__file__)))
    code = "import sys, tourcycles.cli; print('multiprocessing' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout == "False\n"
