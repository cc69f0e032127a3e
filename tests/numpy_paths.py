"""Run a test body with numpy's optional array paths on, or hidden.

numpy is optional in this package, and used only where the data is
already an array: frame decoding and the bulk sparse slot hash.  Each
module picks numpy when it imports, so numpy's absence is the only thing
that selects the Python fallbacks.  ``NUMPY_MODES`` parametrizes a
differential over both: ``"numpy"`` runs with numpy as installed,
``"python"`` inside :func:`numpy_mode`, which hides numpy from every
loaded ``repro`` module.
"""

import sys
from contextlib import contextmanager

import pytest

from repro.stat4 import HAS_NUMPY

NUMPY_MODES = [
    pytest.param("python", id="python"),
    pytest.param(
        "numpy",
        id="numpy",
        marks=pytest.mark.skipif(not HAS_NUMPY, reason="numpy not installed"),
    ),
]


@contextmanager
def numpy_mode(mode):
    """Inside the block, ``"python"`` mode makes every ``repro`` module
    take its no-numpy path; ``"numpy"`` mode changes nothing."""
    with pytest.MonkeyPatch.context() as patch:
        if mode == "python":
            for name, module in list(sys.modules.items()):
                if name != "repro" and not name.startswith("repro."):
                    continue
                if getattr(module, "_np", None) is not None:
                    patch.setattr(module, "_np", None)
                if getattr(module, "HAS_NUMPY", False):
                    patch.setattr(module, "HAS_NUMPY", False)
        yield
