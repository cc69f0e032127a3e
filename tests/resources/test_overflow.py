"""Tests for the register-overflow bounds of the dataflow pass."""

import pytest

from repro.analysis.dataflow import analyze_overflow, safe_unit_shift
from repro.stat4.config import Stat4Config


class TestAnalyzeOverflow:
    def test_xsumsq_is_the_binding_constraint(self):
        config = Stat4Config(counter_width=32, stats_width=64)
        bounds = {b.register: b for b in analyze_overflow(config, max_value=1 << 20)}
        # Squares eat width twice as fast as sums.
        assert (
            bounds["stat4_xsumsq"].max_safe_values
            < bounds["stat4_xsum"].max_safe_values
        )
        limiting = [b for b in bounds.values() if b.limiting]
        assert len(limiting) == 1
        assert limiting[0].register in ("stat4_xsumsq", "stat4_var (N*Xsumsq)")

    def test_case_study_defaults_are_safe(self):
        # 8 ms intervals at ~40 packets: values are tiny; a 64-bit Xsumsq
        # absorbs any realistic window.
        config = Stat4Config(counter_size=100)
        bounds = analyze_overflow(config, max_value=10_000)
        for bound in bounds:
            assert bound.max_safe_values >= 100

    def test_small_widths_fail_early(self):
        config = Stat4Config(counter_width=32, stats_width=32)
        bounds = {b.register: b for b in analyze_overflow(config, max_value=1 << 17)}
        # (2^17)^2 = 2^34 > 2^32: one worst-case value already wraps Xsumsq.
        assert bounds["stat4_xsumsq"].max_safe_values == 0

    def test_value_must_fit_cell(self):
        config = Stat4Config(counter_width=16)
        with pytest.raises(ValueError):
            analyze_overflow(config, max_value=1 << 16)
        with pytest.raises(ValueError):
            analyze_overflow(config, max_value=0)

    def test_variance_bound_tighter_than_xsumsq(self):
        config = Stat4Config(counter_width=32, stats_width=64)
        bounds = {b.register: b for b in analyze_overflow(config, max_value=1 << 16)}
        assert (
            bounds["stat4_var (N*Xsumsq)"].max_safe_values
            <= bounds["stat4_xsumsq"].max_safe_values
        )


class TestSafeUnitShift:
    def test_no_shift_needed_for_small_values(self):
        config = Stat4Config(counter_size=100)
        assert safe_unit_shift(config, max_raw_value=1000) == 0

    def test_large_byte_counts_need_coarsening(self):
        # Counting raw bytes of 100 Gb/s-scale intervals needs units.
        config = Stat4Config(counter_size=256, counter_width=32, stats_width=64)
        shift = safe_unit_shift(config, max_raw_value=(1 << 32) - 1)
        assert shift > 0
        # And the returned shift actually is safe.
        bounds = analyze_overflow(config, max_value=((1 << 32) - 1) >> shift)
        assert all(b.max_safe_values >= 256 for b in bounds)

    def test_monotone_in_magnitude(self):
        config = Stat4Config(counter_size=256)
        small = safe_unit_shift(config, max_raw_value=1 << 10)
        large = safe_unit_shift(config, max_raw_value=1 << 30)
        assert small <= large
