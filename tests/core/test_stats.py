"""Unit tests for the scaled-moments tracker (N / Xsum / Xsumsq)."""

import math
import random

import pytest

from repro.core.approx import approx_square
from repro.core.stats import ScaledStats, exact_square, square_for_target
from repro.p4.values import BMV2, TOFINO_LIKE, use_target
from repro.p4.errors import UnsupportedOperationError


def reference_moments(values):
    n = len(values)
    xsum = sum(values)
    xsumsq = sum(v * v for v in values)
    return n, xsum, xsumsq


class TestAddValue:
    def test_matches_definitions(self):
        rng = random.Random(7)
        values = [rng.randint(0, 300) for _ in range(500)]
        stats = ScaledStats()
        for v in values:
            stats.add_value(v)
        n, xsum, xsumsq = reference_moments(values)
        assert stats.count == n
        assert stats.xsum == xsum
        assert stats.xsumsq == xsumsq

    def test_variance_matches_scaled_formula(self):
        values = [3, 7, 7, 1, 9, 4]
        stats = ScaledStats()
        for v in values:
            stats.add_value(v)
        n, xsum, xsumsq = reference_moments(values)
        assert stats.variance_nx == n * xsumsq - xsum * xsum

    def test_variance_is_n_squared_times_population_variance(self):
        # sigma^2_NX == N^2 * sigma^2_X, the scaling insight of Sec. 2.
        values = [10, 12, 9, 14, 10]
        stats = ScaledStats()
        for v in values:
            stats.add_value(v)
        n = len(values)
        mean = sum(values) / n
        population_var = sum((v - mean) ** 2 for v in values) / n
        assert stats.variance_nx == pytest.approx(n * n * population_var)

    def test_mean_nx_is_xsum(self):
        stats = ScaledStats()
        for v in [5, 5, 8]:
            stats.add_value(v)
        assert stats.mean_nx == 18

    def test_empty_distribution(self):
        stats = ScaledStats()
        assert stats.count == 0
        assert stats.variance_nx == 0
        assert stats.stddev_nx == 0

    def test_constant_distribution_has_zero_variance(self):
        stats = ScaledStats()
        for _ in range(50):
            stats.add_value(42)
        assert stats.variance_nx == 0
        assert stats.stddev_nx == 0

    def test_rejects_negative_values(self):
        stats = ScaledStats()
        with pytest.raises(ValueError):
            stats.add_value(-1)

    def test_rejects_non_integer_values(self):
        stats = ScaledStats()
        with pytest.raises(TypeError):
            stats.add_value(1.5)
        with pytest.raises(TypeError):
            stats.add_value(True)


class TestReplaceValue:
    def test_circular_window_equivalence(self):
        # Sliding a window by replace_value must equal recomputing from the
        # window contents.
        rng = random.Random(3)
        window = [rng.randint(0, 100) for _ in range(10)]
        stats = ScaledStats(count_is_constant=True)
        for v in window:
            stats.add_value(v)
        for _ in range(200):
            new = rng.randint(0, 100)
            old = window.pop(0)
            window.append(new)
            stats.replace_value(old, new)
            n, xsum, xsumsq = reference_moments(window)
            assert stats.count == n
            assert stats.xsum == xsum
            assert stats.xsumsq == xsumsq
            assert stats.variance_nx == n * xsumsq - xsum * xsum

    def test_replace_keeps_count(self):
        stats = ScaledStats()
        stats.add_value(5)
        stats.replace_value(5, 9)
        assert stats.count == 1
        assert stats.xsum == 9

    def test_replace_on_empty_rejected(self):
        stats = ScaledStats()
        with pytest.raises(ValueError):
            stats.replace_value(1, 2)


class TestFrequencyUpdates:
    def test_shift_identity_matches_recomputation(self):
        # Xsumsq += 2*x_k + 1 must keep Xsumsq == sum of squared counts.
        rng = random.Random(11)
        counts = {}
        stats = ScaledStats()
        for _ in range(1000):
            key = rng.randint(0, 30)
            old = counts.get(key, 0)
            new = stats.observe_frequency(old)
            counts[key] = new
        values = list(counts.values())
        n, xsum, xsumsq = reference_moments(values)
        assert stats.count == n
        assert stats.xsum == xsum
        assert stats.xsumsq == xsumsq

    def test_count_grows_only_on_first_occurrence(self):
        stats = ScaledStats()
        assert stats.observe_frequency(0) == 1
        assert stats.count == 1
        assert stats.observe_frequency(1) == 2
        assert stats.count == 1
        assert stats.observe_frequency(0) == 1
        assert stats.count == 2


class TestLazyStddev:
    def test_sd_computed_once_per_read_after_updates(self):
        stats = ScaledStats()
        for v in [4, 9, 2, 7]:
            stats.add_value(v)
        assert stats.sd_recomputations == 0
        _ = stats.stddev_nx
        assert stats.sd_recomputations == 1
        # Repeated reads without updates hit the cache.
        _ = stats.stddev_nx
        _ = stats.stddev_nx
        assert stats.sd_recomputations == 1
        stats.add_value(5)
        _ = stats.stddev_nx
        assert stats.sd_recomputations == 2

    def test_sd_approximates_true_sd(self):
        rng = random.Random(5)
        stats = ScaledStats()
        values = [rng.randint(50, 150) for _ in range(100)]
        for v in values:
            stats.add_value(v)
        true_sd = math.sqrt(stats.variance_nx)
        assert abs(stats.stddev_nx - true_sd) <= 0.07 * true_sd + 1


class TestOutlierCheck:
    def test_far_outlier_detected(self):
        stats = ScaledStats()
        for v in [10, 11, 9, 10, 12, 10, 9, 11]:
            stats.add_value(v)
        assert stats.is_outlier(40)
        assert not stats.is_outlier(11)

    def test_k_sigma_scales_threshold(self):
        stats = ScaledStats()
        for v in [10, 20, 10, 20, 10, 20]:
            stats.add_value(v)
        # A sample may be an outlier at 1 sigma but not at a huge k.
        assert stats.is_outlier(30, k_sigma=1)
        assert not stats.is_outlier(30, k_sigma=50)

    def test_zero_variance_leaves_the_margin_as_the_threshold(self):
        stats = ScaledStats()
        for v in [50] * 10:
            stats.add_value(v)
        assert stats.variance_nx == 0
        # σ is zero, so the check is N·x > Xsum + N·margin.
        assert stats.is_outlier(51, margin=0)
        assert not stats.is_outlier(50, margin=0)
        assert not stats.is_outlier(51, margin=1)
        assert stats.is_outlier(52, margin=1)

    def test_mean_exceeds_compares_without_division(self):
        stats = ScaledStats()
        for v in [10, 12, 14]:  # mean 12
            stats.add_value(v)
        assert stats.mean_exceeds(11)
        assert not stats.mean_exceeds(12)
        assert not stats.mean_exceeds(13)


class TestTargetProfiles:
    def test_square_for_target_picks_exact_on_bmv2(self):
        with use_target(BMV2):
            assert square_for_target() is exact_square

    def test_square_for_target_picks_approx_on_hardware(self):
        with use_target(TOFINO_LIKE):
            assert square_for_target() is approx_square

    def test_exact_square_raises_on_hardware_target(self):
        with use_target(TOFINO_LIKE):
            with pytest.raises(UnsupportedOperationError):
                exact_square(7)

    def test_variance_on_hardware_needs_constant_count(self):
        # With a varying N, the N * Xsumsq product needs a runtime multiplier.
        with use_target(TOFINO_LIKE):
            stats = ScaledStats(count_is_constant=False)
            stats.add_value(3)
            stats.add_value(4)
            with pytest.raises(UnsupportedOperationError):
                _ = stats.variance_nx

    def test_variance_on_hardware_with_constant_count(self):
        with use_target(TOFINO_LIKE):
            stats = ScaledStats(count_is_constant=True)
            stats.add_value(3)
            stats.add_value(5)
            assert stats.variance_nx >= 0

    def test_approx_square_variance_never_negative(self):
        # Saturating subtraction clamps the transient underflows the
        # approximated square can cause.
        with use_target(TOFINO_LIKE):
            stats = ScaledStats(count_is_constant=True)
            for v in [15, 15, 15, 15]:
                stats.add_value(v)
            assert stats.variance_nx >= 0

    def test_snapshot_round_trip(self):
        stats = ScaledStats()
        for v in [1, 2, 3]:
            stats.add_value(v)
        snap = stats.snapshot()
        assert snap["count"] == 3
        assert snap["xsum"] == 6
        assert snap["xsumsq"] == 14
        assert snap["variance_nx"] == 3 * 14 - 36
