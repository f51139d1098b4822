import importlib

import pytest


@pytest.mark.parametrize("module", ["tournaments", "spectral", "signsearch", "limits"])
def test_every_export_resolves(module):
    mod = importlib.import_module(f"tourcycles.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)
