"""Unit tests for the batched fast path's moving parts.

The differential suite (test_batch_differential.py) proves whole-trace
bit-identity; these tests pin the individual mechanisms — backend
resolution, the telescoped frequency identity, the counter-wrap guard,
batch construction, and the integration hooks on trace/switch/library.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ewma import EwmaDetector
from repro.core.percentile import PercentileTracker
from repro.core.stats import ScaledStats
from repro.netsim.messages import DigestMessage
from repro.netsim.network import Network
from repro.netsim.switchnode import SwitchNode
from repro.p4.packet import Packet
from repro.p4.parser import standard_parser
from repro.p4.switch import CPU_PORT
from repro.stat4 import (
    HAS_NUMPY,
    BatchEngine,
    BindingMatch,
    ExtractSpec,
    PacketBatch,
    Stat4,
    Stat4Config,
    Stat4Runtime,
)
from repro.stat4 import batch as batch_module
from repro.stat4.batch import resolve_backend
from repro.traffic.builders import udp_to
from repro.traffic.trace import PacketTrace, TraceRecord
from tests.stat4.conftest import make_ctx, udp_packet


def freq_stat4(mask=0xFF, counter_size=256, counter_width=32, **spec_kwargs):
    config = Stat4Config(
        counter_num=2,
        counter_size=counter_size,
        counter_width=counter_width,
        binding_stages=1,
    )
    stat4 = Stat4(config)
    runtime = Stat4Runtime(stat4)
    spec = runtime.frequency_of(
        0, ExtractSpec.field("ipv4.dst", mask=mask), **spec_kwargs
    )
    runtime.bind(0, BindingMatch(ether_type=0x0800), spec)
    return stat4


def contexts_for(dsts, gap=0.001):
    # dst below 2^16 encoded into the low two address octets, so a value
    # mask of 0xFF (or 0x1FF) recovers it from ``ipv4.dst``.
    return [
        make_ctx(
            udp_packet(dst=f"10.0.{(dst >> 8) & 0xFF}.{dst & 0xFF}"),
            now=index * gap,
        )
        for index, dst in enumerate(dsts)
    ]


class TestBackendResolution:
    def test_python_always_available(self):
        assert resolve_backend("python") == "python"

    def test_auto_picks_best(self):
        assert resolve_backend("auto") == ("numpy" if HAS_NUMPY else "python")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend("fortran")

    def test_numpy_without_numpy_raises(self, monkeypatch):
        monkeypatch.setattr(batch_module, "HAS_NUMPY", False)
        with pytest.raises(RuntimeError):
            resolve_backend("numpy")

    def test_auto_without_numpy_falls_back(self, monkeypatch):
        monkeypatch.setattr(batch_module, "HAS_NUMPY", False)
        assert resolve_backend("auto") == "python"

    def test_engine_records_backend(self):
        stat4 = freq_stat4()
        assert BatchEngine(stat4, backend="python").backend == "python"


class TestObserveFrequencies:
    def test_matches_repeated_single_observations(self):
        for old, repeat in [(0, 1), (0, 7), (3, 1), (5, 12), (100, 3)]:
            one = ScaledStats()
            many = ScaledStats()
            count = old
            for _ in range(repeat):
                count = one.observe_frequency(count)
            assert many.observe_frequencies(old, repeat) == count
            assert many.snapshot() == one.snapshot()
            assert many.updates == one.updates

    def test_zero_repeat_is_noop(self):
        stats = ScaledStats()
        assert stats.observe_frequencies(5, 0) == 5
        assert stats.snapshot() == ScaledStats().snapshot()

    def test_negative_repeat_rejected(self):
        with pytest.raises(ValueError):
            ScaledStats().observe_frequencies(0, -1)


class TestFrequencyKernel:
    def test_fast_kernel_used_for_plain_spec(self):
        stat4 = freq_stat4()
        result = BatchEngine(stat4, backend="python").process(
            PacketBatch.from_contexts(contexts_for([1, 2, 1, 3]))
        )
        assert result.kernels.get("frequency_fast") == 4
        assert result.packets == 4

    def test_exact_loop_used_for_alerting_spec(self):
        stat4 = freq_stat4(k_sigma=2)
        result = BatchEngine(stat4, backend="python").process(
            PacketBatch.from_contexts(contexts_for([1, 2, 1, 3]))
        )
        assert result.kernels.get("exact_loop") == 4
        assert "frequency_fast" not in result.kernels

    def test_counter_wrap_guard(self):
        # 4-bit counters saturate at 15; a batch of 40 identical values
        # must leave the same (saturated) cell and stats as the scalar loop.
        scalar = freq_stat4(mask=0x7, counter_size=8, counter_width=4)
        batched = freq_stat4(mask=0x7, counter_size=8, counter_width=4)
        contexts = contexts_for([5] * 40)
        for ctx in contexts:
            scalar.process(ctx)
            ctx.digests.clear()
        BatchEngine(batched, backend="python").process(
            PacketBatch.from_contexts(contexts)
        )
        for reg_a, reg_b in zip(scalar.registers, batched.registers):
            assert reg_a.peek() == reg_b.peek(), reg_a.name
        state_a = scalar.state_of(0)
        state_b = batched.state_of(0)
        assert state_a.stats.snapshot() == state_b.stats.snapshot()
        assert state_a.stats.updates == state_b.stats.updates

    def test_out_of_domain_values_dropped(self):
        scalar = freq_stat4(mask=0x1FF, counter_size=256)
        batched = freq_stat4(mask=0x1FF, counter_size=256)
        dsts = [10, 300, 500, 20, 256, 255]
        contexts = contexts_for(dsts)
        for ctx in contexts:
            scalar.process(ctx)
            ctx.digests.clear()
        BatchEngine(batched, backend="python").process(
            PacketBatch.from_contexts(contexts)
        )
        assert scalar.state_of(0).values_dropped == 3
        assert batched.state_of(0).values_dropped == 3


@pytest.mark.skipif(not HAS_NUMPY, reason="numpy not installed")
class TestTrackerWalk:
    """The vectorized percentile stepper replays Fig. 3 exactly.

    ``_tracker_walk`` consumes a whole event stream (values, or -1 for a
    value-free tick) in vectorized rounds; the oracle is the scalar
    tracker driven one ``observe``/``tick`` at a time.  Small domains
    force the 0 and domain-1 boundary clamps; extreme percentiles skew
    the move weights; a 1-round cap forces the scalar-replay fallback.
    """

    @staticmethod
    def replay_scalar(events, domain, percent):
        tracker = PercentileTracker(domain, percent)
        for event in events:
            if event < 0:
                tracker.tick()
            else:
                tracker.observe(event)
        return tracker

    @staticmethod
    def walk_vectorized(events, domain, percent, walk_rounds=None):
        engine = BatchEngine(freq_stat4(), backend="numpy")
        if walk_rounds is not None:
            engine._WALK_ROUNDS = walk_rounds  # shadow the class cap
        tracker = PercentileTracker(domain, percent)
        engine._tracker_walk(
            tracker, engine._np.asarray(events, dtype=engine._np.int64)
        )
        return tracker

    def assert_same(self, events, domain, percent, walk_rounds=None):
        scalar = self.replay_scalar(events, domain, percent)
        vectorized = self.walk_vectorized(events, domain, percent, walk_rounds)
        assert vectorized.freqs == scalar.freqs
        assert (
            vectorized.low,
            vectorized.high,
            vectorized.total,
            vectorized.moves,
            vectorized._position,
        ) == (
            scalar.low,
            scalar.high,
            scalar.total,
            scalar.moves,
            scalar._position,
        )

    @settings(deadline=None, max_examples=120)
    @given(
        domain=st.integers(min_value=2, max_value=8),
        percent=st.sampled_from([1, 10, 50, 90, 99]),
        data=st.data(),
    )
    def test_walk_matches_scalar_replay(self, domain, percent, data):
        events = data.draw(
            st.lists(
                st.integers(min_value=-1, max_value=domain - 1), max_size=120
            )
        )
        self.assert_same(events, domain, percent)

    @settings(deadline=None, max_examples=40)
    @given(
        percent=st.sampled_from([1, 50, 99]),
        data=st.data(),
    )
    def test_round_cap_fallback_matches(self, percent, data):
        # A cap of 1 round means almost every stream bails into the
        # scalar-replay tail after the first move — the writeback at the
        # handoff point must leave the tracker mid-walk consistent.
        events = data.draw(
            st.lists(st.integers(min_value=-1, max_value=5), max_size=80)
        )
        self.assert_same(events, 6, percent, walk_rounds=1)

    def test_empty_and_tick_only_streams(self):
        self.assert_same([], 4, 50)
        self.assert_same([-1, -1, -1], 4, 50)  # ticks before any value: no-op

    def test_alternating_extremes_pin_boundaries(self):
        # Heavy mass at both ends drags the position into the clamps.
        events = ([0] * 30 + [5] * 30 + [-1] * 10) * 4
        self.assert_same(events, 6, 50)
        self.assert_same(events, 6, 99)
        self.assert_same(events, 6, 1)


class TestEwmaBatch:
    def test_update_many_matches_update_loop(self):
        values = [3, 5, 2, 90, 4, 6, 5, 4, 3, 88, 5, 4] * 4
        one = EwmaDetector()
        many = EwmaDetector()
        anomalies = sum(1 for x in values if one.update(x))
        assert many.update_many(values) == anomalies
        assert (many.samples, many.mean_fp, many.deviation_fp) == (
            one.samples,
            one.mean_fp,
            one.deviation_fp,
        )


class TestPacketBatchConstruction:
    def test_from_packets_counts_parse_errors(self):
        parser = standard_parser()
        packets = [
            udp_to(0x0A000001),
            Packet(b"\x00\x01"),  # truncated: parser rejects it
            udp_to(0x0A000002),
        ]
        batch = PacketBatch.from_packets(packets, parser)
        assert len(batch) == 2
        assert batch.parse_errors == 1

    def test_from_packets_frame_bytes_recorded(self):
        parser = standard_parser()
        packet = udp_to(0x0A000001)
        batch = PacketBatch.from_packets([packet], parser)
        assert batch.raw_column("frame.size") == [len(packet)]

    def test_from_trace_uses_record_timestamps(self):
        parser = standard_parser()
        records = [
            TraceRecord(timestamp=1.5, data=udp_to(0x0A000001).data),
            TraceRecord(timestamp=2.5, data=udp_to(0x0A000002).data),
        ]
        batch = PacketBatch.from_trace(records, parser)
        assert batch.timestamps == [1.5, 2.5]

    def test_values_respect_accept_filter(self):
        from dataclasses import replace

        config = Stat4Config(counter_num=2, counter_size=256, binding_stages=1)
        stat4 = Stat4(config)
        runtime = Stat4Runtime(stat4)
        spec = replace(
            runtime.frequency_of(0, ExtractSpec.field("ipv4.dst", mask=0xFF)),
            accept_lo=10,
            accept_hi=20,
        )
        runtime.bind(0, BindingMatch(ether_type=0x0800), spec)
        batch = PacketBatch.from_contexts(contexts_for([5, 10, 15, 19, 20, 30]))
        values = batch.values_for(spec)
        assert values == [None, 10, 15, 19, None, None]


class TestTraceBatching:
    def test_iter_batches_chunks(self):
        trace = PacketTrace(
            records=[TraceRecord(timestamp=i * 0.1, data=b"x") for i in range(7)]
        )
        chunks = list(trace.iter_batches(3))
        assert [len(chunk) for chunk in chunks] == [3, 3, 1]
        assert chunks[0][0].timestamp == 0.0

    def test_iter_batches_rejects_bad_size(self):
        trace = PacketTrace(records=[])
        with pytest.raises(ValueError):
            list(trace.iter_batches(0))


class _Collector:
    """Minimal CPU-port peer that records pushed control messages."""

    def __init__(self, name):
        self.name = name
        self.network = None
        self.inbox = []

    def attach(self, network):
        self.network = network

    def receive(self, message, port, now):
        self.inbox.append(message)


class TestSwitchNodeIngestBatch:
    def build(self):
        from repro.apps.echo import build_echo_app

        bundle = build_echo_app()
        net = Network()
        switch = net.add(SwitchNode("s", bundle.program))
        collector = net.add(_Collector("c"))
        net.connect(switch, CPU_PORT, collector, 0)
        return bundle, net, switch, collector

    def test_digests_pushed_on_cpu_port(self):
        from repro.traffic.builders import echo_frame

        bundle, net, switch, collector = self.build()
        engine = BatchEngine(bundle.stat4, backend="python")
        parser = bundle.program.parser
        # A heavy repeat of one value raises the echo app's k-sigma digest.
        packets = [echo_frame(7, created_at=i * 0.001) for i in range(64)]
        batch = PacketBatch.from_packets(packets, parser)
        result = switch.ingest_batch(batch, engine)
        net.run()
        assert result.packets == 64
        assert switch.digests_pushed == len(result.digests)
        assert len(collector.inbox) == len(result.digests)
        assert all(isinstance(m, DigestMessage) for m in collector.inbox)

    def test_process_batch_convenience(self):
        stat4 = freq_stat4()
        result = stat4.process_batch(
            PacketBatch.from_contexts(contexts_for([1, 2, 3])), backend="python"
        )
        assert result.packets == 3
        assert stat4.packets_seen == 3
