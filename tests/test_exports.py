import importlib
import os
import subprocess
import sys

import pytest

import tourcycles


@pytest.mark.parametrize("module", ["tournaments", "spectral", "signsearch", "limits"])
def test_every_export_resolves(module):
    mod = importlib.import_module(f"tourcycles.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def _fresh(code: str) -> str:
    """Stdout of ``code`` run by a fresh interpreter that imports this package."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tourcycles.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    return out.stdout


# prints numpy and the package's modules that the code before it loaded
LOADED = "; print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('tourcycles.')))"


def test_cli_import_loads_no_process_pool():
    code = "import sys, tourcycles.cli; print('multiprocessing' in sys.modules)"
    assert _fresh(code) == "False\n"


def test_bare_import_loads_no_submodule():
    assert _fresh("import sys, tourcycles" + LOADED) == "[]\n"


def test_cli_import_loads_no_submodule_and_no_numpy():
    assert _fresh("import sys, tourcycles.cli" + LOADED) == "['tourcycles.cli']\n"


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["verify-lemma", "--order", "4", "--strip-elapsed"], ["signsearch", "tournaments"]),
        (["count", "--random", "9", "--length", "5"], ["spectral", "tournaments"]),
        (["profile4", "--transitive", "5"], ["tournaments"]),
        (["conjecture-table", "--max-length", "8"], ["limits", "spectral", "tournaments"]),
    ],
)
def test_command_loads_only_its_modules(argv, loaded):
    code = (
        "import contextlib, io, sys\n"
        "from tourcycles import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0\n" + LOADED.lstrip("; ")
    )
    want = ["numpy", "tourcycles.cli"] + [f"tourcycles.{m}" for m in loaded]
    assert _fresh(code) == f"{want}\n"


@pytest.mark.parametrize("argv", [["--help"], ["verify-lemma", "--order", "5"], ["frobnicate"]])
def test_help_and_usage_errors_load_no_numpy(argv):
    code = (
        "import contextlib, io, sys\n"
        "from tourcycles import cli\n"
        "sink = io.StringIO()\n"
        "with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):\n"
        f"    cli.main({argv!r})\n" + LOADED.lstrip("; ")
    )
    assert _fresh(code) == "['tourcycles.cli']\n"


def test_submodules_load_on_first_access():
    code = (
        "import tourcycles\n"
        "print(tourcycles.limits.conjectured_c(8).exact)\n"
        "from tourcycles import *\n"
        "print(signsearch.CERTIFIED[8][0], tournaments.__name__, spectral.__name__)\n"
        "print([m for m in tourcycles.__all__ if m not in dir(tourcycles)])"
    )
    assert _fresh(code) == "332/315\n2176 tourcycles.tournaments tourcycles.spectral\n[]\n"


def test_unknown_attribute_is_attribute_error():
    assert not hasattr(tourcycles, "no_such_module")
    with pytest.raises(AttributeError, match="no_such_module"):
        tourcycles.no_such_module
