"""The paper's core contribution: P4-expressible online statistics.

This package is the algorithmic heart of the reproduction — every function
here restricts itself to operations a P4 switch can perform (no division, no
square root, no data-dependent loops), with the single documented exception
of :mod:`repro.core.welford`, the host-side floating-point ground truth.
"""

from repro.core.approx import approx_isqrt, approx_isqrt_parts, approx_square
from repro.core.bitops import msb_position, msb_position_if_chain
from repro.core.ewma import EwmaDetector
from repro.core.percentile import (
    MultiPercentileTracker,
    PercentileTracker,
    true_percentile_of_freqs,
)
from repro.core.stats import ScaledStats, exact_square, square_for_target
from repro.core.welford import (
    RunningPercentile,
    WelfordAccumulator,
    exact_percentile,
    population_stddev,
    population_variance,
)

__all__ = [
    "approx_isqrt",
    "approx_isqrt_parts",
    "approx_square",
    "msb_position",
    "msb_position_if_chain",
    "EwmaDetector",
    "ScaledStats",
    "exact_square",
    "square_for_target",
    "PercentileTracker",
    "MultiPercentileTracker",
    "true_percentile_of_freqs",
    "WelfordAccumulator",
    "RunningPercentile",
    "exact_percentile",
    "population_stddev",
    "population_variance",
]
