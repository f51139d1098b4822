"""Directed cycle counts, spectra and extremal verification for tournaments.

Each submodule is imported the first time it is used (``tourcycles.limits``,
``from tourcycles import signsearch``), so ``import tourcycles`` loads none of
them and no numpy.  tournaments stands alone; spectral loads tournaments,
limits loads spectral, and signsearch loads tournaments.
"""

import importlib

__all__ = ["tournaments", "spectral", "signsearch", "limits"]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in __all__:
        # the import binds the submodule on the package, so this runs once per name
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
