"""Width/overflow dataflow pass: ST41x rules, firing and clean."""

import pytest

from repro.analysis import (
    analyze_overflow,
    check_overflow,
    required_register_widths,
    safe_unit_shift,
)
from repro.stat4.config import Stat4Config


def codes(diagnostics):
    return sorted(d.code for d in diagnostics)


class TestST410CellWidth:
    def test_fires_when_value_exceeds_cell(self):
        config = Stat4Config(counter_width=16)
        diagnostics = check_overflow(config, max_value=1 << 16)
        assert codes(diagnostics) == ["ST410"]

    def test_clean_when_value_fits(self):
        config = Stat4Config(counter_width=16)
        assert "ST410" not in codes(check_overflow(config, max_value=1000))


class TestST411Horizon:
    def test_fires_when_xsumsq_wraps_within_distribution(self):
        config = Stat4Config(counter_size=256, counter_width=32, stats_width=32)
        diagnostics = check_overflow(config, max_value=1 << 17)
        fired = [d for d in diagnostics if d.code == "ST411"]
        assert {d.context["register"] for d in fired} == {
            "stat4_xsumsq",
            "stat4_var (N*Xsumsq)",
        }

    def test_clean_with_wide_stats_registers(self):
        config = Stat4Config(counter_size=100, stats_width=64)
        diagnostics = check_overflow(config, max_value=10_000)
        assert "ST411" not in codes(diagnostics)


class TestST412Headroom:
    def test_fires_just_above_the_horizon(self):
        # var horizon = isqrt(cap / max^2) ~= 2^24 / max; max = 60000 puts it
        # at 279 — inside [counter_size, 2 * counter_size).
        config = Stat4Config(counter_size=256, counter_width=32, stats_width=48)
        diagnostics = check_overflow(config, max_value=60_000)
        assert "ST412" in codes(diagnostics)
        assert "ST411" not in codes(diagnostics)

    def test_clean_with_ample_headroom(self):
        config = Stat4Config(counter_size=100, stats_width=64)
        assert check_overflow(config, max_value=1000) == []


class TestST413ST414UnitShift:
    def test_shift_suggested_when_one_exists(self):
        config = Stat4Config(counter_size=256, counter_width=32, stats_width=32)
        diagnostics = check_overflow(config, max_value=1 << 17)
        suggested = [d for d in diagnostics if d.code == "ST413"]
        assert len(suggested) == 1
        shift = suggested[0].context["unit_shift"]
        coarse = (1 << 17) >> shift
        bounds = analyze_overflow(config, coarse)
        assert all(b.max_safe_values >= 256 for b in bounds)

    def test_no_shift_reports_st414(self):
        # 8-bit stats registers can never absorb 256 values: even at
        # magnitude 1 the xsum cap is 255.
        config = Stat4Config(counter_size=256, counter_width=8, stats_width=8)
        diagnostics = check_overflow(config, max_value=255)
        assert "ST414" in codes(diagnostics)
        assert "ST413" not in codes(diagnostics)


class TestMovedOverflowCore:
    """The raw overflow computations behind the ST41x rules."""

    def test_counters_bound_is_structural(self):
        config = Stat4Config(counter_size=64)
        bounds = {b.register: b for b in analyze_overflow(config, max_value=5)}
        assert bounds["stat4_counters"].max_safe_values == 64

    def test_rejects_nonpositive_max_value(self):
        with pytest.raises(ValueError):
            analyze_overflow(Stat4Config(), max_value=0)

    def test_safe_unit_shift_round_trips(self):
        config = Stat4Config(counter_size=256, counter_width=32, stats_width=64)
        shift = safe_unit_shift(config, max_raw_value=(1 << 32) - 1)
        coarse = ((1 << 32) - 1) >> shift
        bounds = analyze_overflow(config, coarse)
        assert all(b.max_safe_values >= 256 for b in bounds)


class TestRequiredWidths:
    def test_matches_hand_computation(self):
        widths = required_register_widths(counter_size=256, max_value=1 << 17)
        assert widths["stat4_counters"] == 18
        assert widths["stat4_xsum"] == (256 * (1 << 17)).bit_length()
        assert widths["stat4_xsumsq"] == (256 * (1 << 34)).bit_length()
        assert widths["stat4_var"] == (256 * 256 * (1 << 34)).bit_length()

    def test_defaults_fit_the_default_config(self):
        config = Stat4Config()
        widths = required_register_widths(config.counter_size, max_value=10_000)
        assert widths["stat4_xsumsq"] <= config.stats_width
        assert widths["stat4_var"] <= config.stats_width
