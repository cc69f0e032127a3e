"""Unit tests for the Stat4 library core behaviour."""

import random

import pytest

from repro.core.stats import ScaledStats
from repro.p4.errors import ResourceError
from repro.stat4 import (
    BindingMatch,
    DistributionKind,
    ExtractSpec,
    Stat4,
    Stat4Config,
    Stat4Runtime,
    TrackSpec,
)

from tests.stat4.conftest import make_ctx, tcp_packet, udp_packet


def build(counter_num=4, counter_size=16, **kwargs):
    stat4 = Stat4(Stat4Config(counter_num=counter_num, counter_size=counter_size, **kwargs))
    return stat4, Stat4Runtime(stat4)


class TestRegisterLayout:
    def test_figure4_registers_declared(self):
        stat4, _ = build()
        names = {reg.name for reg in stat4.registers}
        assert "stat4_counters" in names
        assert {"stat4_n", "stat4_xsum", "stat4_xsumsq", "stat4_var", "stat4_sd"} <= names

    def test_counter_sizing_follows_macros(self):
        stat4, _ = build(counter_num=3, counter_size=7)
        assert stat4.counters.size == 21

    def test_binding_stage_count(self):
        stat4, _ = build(binding_stages=3)
        assert len(stat4.binding_tables) == 3

    def test_longest_declared_chain_is_12(self):
        # Sec. 4: "The longest dependency chain in our code has 12
        # sequential steps, used to override the oldest counter in
        # distributions of traffic over time."
        stat4, _ = build()
        length, chain = stat4.graph.longest_chain()
        assert length == 12
        assert "advance_window" in chain


class TestFrequencyTracking:
    def bind_subnet_freq(self, rt, k_sigma=0, **kwargs):
        spec = rt.frequency_of(
            dist=0,
            extract=ExtractSpec.field("ipv4.dst", shift=8, mask=0xFF),
            k_sigma=k_sigma,
            **kwargs,
        )
        rt.bind(0, BindingMatch.ipv4_prefix("10.0.0.0", 8), spec)
        return spec

    def test_counts_per_subnet(self):
        stat4, rt = build()
        self.bind_subnet_freq(rt)
        for _ in range(3):
            stat4.process(make_ctx(udp_packet("10.0.5.1")))
        stat4.process(make_ctx(udp_packet("10.0.1.1")))
        cells = stat4.read_cells(0)
        assert cells[5] == 3
        assert cells[1] == 1

    def test_registers_match_reference_stats(self):
        # The Figure-5 validation invariant, in-miniature: register contents
        # equal a host-side recomputation.
        stat4, rt = build()
        self.bind_subnet_freq(rt)
        rng = random.Random(0)
        counts = {}
        for _ in range(200):
            subnet = rng.randint(1, 6)
            counts[subnet] = counts.get(subnet, 0) + 1
            stat4.process(make_ctx(udp_packet(f"10.0.{subnet}.9")))
        reference = ScaledStats()
        for value in counts.values():
            reference.add_value(value)
        measures = stat4.read_measures(0)
        assert measures["n"] == reference.count
        assert measures["xsum"] == reference.xsum
        assert measures["xsumsq"] == reference.xsumsq
        assert measures["variance"] == reference.variance_nx
        assert measures["stddev"] == reference.stddev_nx

    def test_non_matching_packets_ignored(self):
        stat4, rt = build()
        self.bind_subnet_freq(rt)
        stat4.process(make_ctx(udp_packet("11.2.3.4")))  # outside 10/8
        assert stat4.read_measures(0)["n"] == 0

    def test_out_of_domain_values_dropped(self):
        stat4, rt = build(counter_size=4)  # subnet index must be < 4
        self.bind_subnet_freq(rt)
        stat4.process(make_ctx(udp_packet("10.0.200.1")))
        state = stat4.state_of(0)
        assert state.values_dropped == 1
        assert stat4.read_measures(0)["n"] == 0

    def test_imbalance_alert_fires_with_index(self):
        stat4, rt = build()
        self.bind_subnet_freq(rt, k_sigma=2, min_samples=3, margin=2)
        rng = random.Random(1)
        digests = []
        for i in range(600):
            subnet = 3 if i > 300 and rng.random() < 0.8 else rng.randint(1, 6)
            ctx = make_ctx(udp_packet(f"10.0.{subnet}.9"), now=i * 0.001)
            stat4.process(ctx)
            digests.extend(ctx.digests)
        assert digests, "imbalance never detected"
        assert digests[0].fields["index"] == 3

    def test_uniform_traffic_stays_silent(self):
        stat4, rt = build()
        self.bind_subnet_freq(rt, k_sigma=2, min_samples=3, margin=2)
        digests = []
        for i in range(600):
            subnet = (i % 6) + 1
            ctx = make_ctx(udp_packet(f"10.0.{subnet}.9"), now=i * 0.001)
            stat4.process(ctx)
            digests.extend(ctx.digests)
        assert digests == []

    def test_percentile_registers_synced(self):
        stat4, rt = build(counter_size=64)
        spec = rt.frequency_of(
            dist=0, extract=ExtractSpec.field("ipv4.dst", mask=0x3F), percent=50
        )
        rt.bind(0, BindingMatch.ipv4_prefix("10.0.0.0", 8), spec)
        rng = random.Random(2)
        for _ in range(300):
            stat4.process(make_ctx(udp_packet(f"10.0.0.{rng.randint(10, 30)}")))
        state = stat4.state_of(0)
        assert stat4.read_measures(0)["percentile_pos"] == state.tracker.value
        assert 10 <= state.tracker.value <= 30


class TestTimeSeriesTracking:
    def bind_rate(self, rt, interval=0.01, k_sigma=0, **kwargs):
        spec = rt.rate_over_time(dist=0, interval=interval, k_sigma=k_sigma, **kwargs)
        rt.bind(0, BindingMatch.ipv4_prefix("10.0.0.0", 8), spec)
        return spec

    def feed_uniform(self, stat4, rate_pps, duration, start=0.0, dst="10.0.1.1"):
        digests = []
        t = start
        step = 1.0 / rate_pps
        while t < start + duration:
            ctx = make_ctx(udp_packet(dst), now=t)
            stat4.process(ctx)
            digests.extend(ctx.digests)
            t += step
        return digests

    def test_interval_counts_recorded(self):
        stat4, rt = build()
        self.bind_rate(rt, interval=0.01)
        self.feed_uniform(stat4, rate_pps=1000, duration=0.1)
        cells = stat4.read_cells(0)
        closed = stat4.state_of(0).intervals_closed
        assert closed >= 8
        # Each closed interval held ~10 packets at 1000 pps and 10 ms.
        assert all(8 <= c <= 12 for c in cells[:closed])

    def test_window_wraps_and_replaces(self):
        stat4, rt = build(counter_size=8)
        self.bind_rate(rt, interval=0.01)
        self.feed_uniform(stat4, rate_pps=1000, duration=0.3)
        state = stat4.state_of(0)
        assert state.intervals_closed > 8
        assert state.window_is_full(8)
        # N is pinned at the window size once full.
        assert stat4.read_measures(0)["n"] == 8

    def test_stats_match_window_contents(self):
        stat4, rt = build(counter_size=8)
        self.bind_rate(rt, interval=0.01)
        self.feed_uniform(stat4, rate_pps=900, duration=0.5)
        cells = stat4.read_cells(0)
        reference = ScaledStats()
        for value in cells:
            reference.add_value(value)
        measures = stat4.read_measures(0)
        assert measures["xsum"] == reference.xsum
        assert measures["xsumsq"] == reference.xsumsq

    def test_spike_detected_in_first_interval(self):
        stat4, rt = build(counter_size=32)
        self.bind_rate(rt, interval=0.01, k_sigma=2, min_samples=4, margin=3)
        baseline = self.feed_uniform(stat4, rate_pps=1000, duration=0.5)
        assert baseline == []
        spike = self.feed_uniform(stat4, rate_pps=10000, duration=0.1, start=0.5)
        spikes = [d for d in spike if d.name == "traffic_spike"]
        assert spikes, "spike not detected"
        # First alert arrives when the first spike interval closes: within
        # two interval lengths of onset.
        assert spikes[0].timestamp <= 0.5 + 2 * 0.01

    def test_silent_gap_snaps_forward(self):
        stat4, rt = build()
        self.bind_rate(rt, interval=0.01)
        self.feed_uniform(stat4, rate_pps=1000, duration=0.05)
        # One packet after a long silence must not close dozens of intervals.
        before = stat4.state_of(0).intervals_closed
        ctx = make_ctx(udp_packet("10.0.1.1"), now=5.0)
        stat4.process(ctx)
        assert stat4.state_of(0).intervals_closed == before + 1

    def test_byte_rate_tracking(self):
        stat4, rt = build()
        spec = rt.rate_over_time(dist=0, interval=0.01, per_byte=True)
        rt.bind(0, BindingMatch.ipv4_prefix("10.0.0.0", 8), spec)
        self.feed_uniform(stat4, rate_pps=1000, duration=0.05)
        state = stat4.state_of(0)
        # 42-byte frames (eth 14 + ipv4 20 + udp 8), ~10 per interval.
        cells = stat4.read_cells(0)[: state.intervals_closed]
        assert all(8 * 42 <= c <= 12 * 42 for c in cells)


class TestSlotManagement:
    def test_rebind_resets_slot(self):
        stat4, rt = build()
        spec = rt.frequency_of(dist=0, extract=ExtractSpec.field("ipv4.dst", mask=0xFF))
        handle, _ = rt.bind(0, BindingMatch.ipv4_prefix("10.0.0.0", 8), spec)
        stat4.process(make_ctx(udp_packet("10.0.0.5")))
        assert stat4.read_measures(0)["n"] == 1
        new_spec = rt.frequency_of(
            dist=0, extract=ExtractSpec.field("ipv4.dst", shift=8, mask=0xFF)
        )
        rt.rebind(handle, spec=new_spec)
        stat4.process(make_ctx(udp_packet("10.0.3.5")))
        measures = stat4.read_measures(0)
        assert measures["n"] == 1  # state was reset, not accumulated
        assert stat4.read_cells(0)[3] == 1
        assert stat4.read_cells(0)[5] == 0  # old cell cleared

    def test_two_stages_update_independently(self):
        stat4, rt = build()
        rt.bind(
            0,
            BindingMatch.ipv4_prefix("10.0.0.0", 8),
            rt.rate_over_time(dist=0, interval=0.01),
        )
        rt.bind(
            1,
            BindingMatch.ipv4_prefix("10.0.0.0", 8),
            rt.frequency_of(dist=1, extract=ExtractSpec.field("ipv4.dst", shift=8, mask=0xFF)),
        )
        stat4.process(make_ctx(udp_packet("10.0.5.1"), now=0.001))
        assert stat4.state_of(0) is not None
        assert stat4.read_measures(1)["n"] == 1

    def test_dist_slot_bounds_enforced(self):
        stat4, rt = build(counter_num=2)
        spec = rt.frequency_of(dist=5, extract=ExtractSpec.constant(1))
        rt.bind(0, BindingMatch.ipv4_prefix("10.0.0.0", 8), spec)
        with pytest.raises(ResourceError):
            stat4.process(make_ctx(udp_packet("10.0.0.1")))

    def test_syn_binding_matches_only_syns(self):
        from repro.p4.headers import TCP_FLAG_ACK, TCP_FLAG_SYN

        stat4, rt = build()
        spec = rt.frequency_of(dist=0, extract=ExtractSpec.field("ipv4.dst", mask=0xFF))
        rt.bind(0, BindingMatch.syn_packets(), spec)
        stat4.process(make_ctx(tcp_packet("10.0.0.7", flags=TCP_FLAG_SYN)))
        stat4.process(make_ctx(tcp_packet("10.0.0.7", flags=TCP_FLAG_ACK)))
        stat4.process(make_ctx(udp_packet("10.0.0.7")))
        assert stat4.read_cells(0)[7] == 1

    def test_track_spec_validation(self):
        with pytest.raises(Exception):
            TrackSpec(dist=0, kind=DistributionKind.TIME_SERIES, extract=ExtractSpec.constant(1))
        with pytest.raises(Exception):
            TrackSpec(
                dist=0,
                kind=DistributionKind.TIME_SERIES,
                extract=ExtractSpec.constant(1),
                interval=0.01,
                percent=50,
            )


class TestSnapshot:
    def test_taking_a_snapshot_changes_nothing(self):
        stat4, rt = build(sparse_dists=(1,))
        prefix = BindingMatch.ipv4_prefix("10.0.0.0", 8)
        dst = ExtractSpec.field("ipv4.dst", mask=0xF)
        rt.bind(0, prefix, rt.frequency_of(0, dst, percent=50))
        rt.bind(1, prefix, rt.sparse_frequency_of(1, dst))
        for i in range(40):
            stat4.process(make_ctx(udp_packet(f"10.0.{i % 3}.{i % 7}"), now=i * 0.001))
        slots = [stat4.state_of(0), stat4.state_of(1)]
        slots[0].stats.observe_frequency(0)  # σ is stale until the next read

        def counters():
            recomputations = [s.stats.sd_recomputations for s in slots]
            return stat4.registers.io_counters(), recomputations

        before = counters()
        first = stat4.snapshot()
        assert stat4.snapshot() == first
        assert counters() == before
        assert slots[0].stats._sd_dirty and first["slots"][0]["stats"]["_sd_dirty"]
