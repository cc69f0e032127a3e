"""The core statistics must stay P4-expressible.

These tests parse the actual sources and fail on any division, modulo,
float, math.* call or while loop — the constructs the paper's techniques
exist to avoid.  The Welford reference module is the documented exception.
"""

import inspect

import pytest

from repro.analysis.diagnostics import Severity
from repro.analysis.expressibility import scan_source
from repro.core import approx as approx_module
from repro.core import bitops as bitops_module
from repro.core import ewma as ewma_module
from repro.core import outlier as outlier_module
from repro.core import percentile as percentile_module
from repro.core import stats as stats_module
from repro.core import welford as welford_module


P4_MODULES = [
    bitops_module,
    approx_module,
    stats_module,
    outlier_module,
    ewma_module,
]


def constructs(source):
    """The construct of every unsuppressed finding in ``source``."""
    return [
        d.context["construct"]
        for d in scan_source(source)
        if d.severity is not Severity.INFO
    ]


def module_constructs(module):
    return constructs(inspect.getsource(module))


@pytest.mark.parametrize("module", P4_MODULES, ids=lambda m: m.__name__)
def test_core_modules_are_p4_expressible(module):
    assert module_constructs(module) == []


def test_percentile_update_path_is_p4_expressible():
    # The tracker module contains the (host-side) ground-truth helper too;
    # the data-plane path — observe/tick/rebalance — must be clean.  The
    # rebalance loop is bounded by the compile-time steps_per_update
    # constant, so a single-pass check of the observe/rebalance sources
    # would reject the `while steps < max_steps` guard; instead we verify
    # no arithmetic violation exists anywhere in the module.
    found = module_constructs(percentile_module)
    arithmetic = [c for c in found if c != "while loop"]
    assert arithmetic == []
    # The only loop is the bounded rebalance loop (unrollable).
    assert found.count("while loop") <= 1


def test_welford_is_the_documented_exception():
    # The reference module *should* trip the linter: it divides.
    found = module_constructs(welford_module)
    assert any(c in ("division", "library call") for c in found)


class TestLinter:
    def test_flags_division(self):
        assert "division" in constructs("x = a / b")

    def test_flags_floor_division(self):
        assert "integer division" in constructs("x = a // b")

    def test_flags_modulo(self):
        assert "modulo" in constructs("x = a % b")

    def test_flags_augmented_division(self):
        assert "integer division" in constructs("x //= 2")

    def test_flags_pow(self):
        assert "exponentiation" in constructs("x = a ** 2")

    def test_flags_float_literal(self):
        assert "float literal" in constructs("x = 0.5")

    def test_flags_math_call(self):
        assert "library call" in constructs("import math\nx = math.sqrt(2)")

    def test_flags_while(self):
        assert "while loop" in constructs("while x:\n    pass")

    def test_flags_float_builtin(self):
        assert "builtin call" in constructs("x = float(3)")

    def test_accepts_shifts_and_masks(self):
        source = "x = (a << 1) + (b >> 2) & 0xFF\ny = a - b\nz = a * 4"
        assert constructs(source) == []

    def test_accepts_bounded_for(self):
        # for-over-range is compiler unrolling, accepted.
        assert constructs("for i in range(8):\n    x = x + i") == []
