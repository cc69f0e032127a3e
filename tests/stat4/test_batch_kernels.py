"""Unit tests for the batched fast path's moving parts.

The differential suite (test_batch_differential.py) proves whole-trace
bit-identity; these tests pin the individual mechanisms — the telescoped
frequency identity, the counter-wrap guard, the tracker walk, batch
construction, and the integration hooks on trace/switch/library.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stats import ScaledStats
from repro.netsim.messages import DigestMessage
from repro.netsim.network import Network
from repro.netsim.switchnode import SwitchNode
from repro.p4.packet import Packet, ParsedPacket
from repro.p4.parser import standard_parser
from repro.p4.switch import CPU_PORT, PacketContext, StandardMetadata
from repro.stat4 import (
    MATCH_ALL,
    BatchEngine,
    BindingMatch,
    ExtractSpec,
    PacketBatch,
    Stat4,
    Stat4Config,
    Stat4Runtime,
)
from repro.stat4.library import diff
from repro.traffic.builders import udp_to
from repro.traffic.trace import PacketTrace, TraceRecord
from tests.numpy_paths import NUMPY_MODES, numpy_mode
from tests.stat4.conftest import make_ctx, udp_packet
from tests.stat4.test_batch_differential import assert_equal_state, process_scalar


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


class TestObserveFrequencies:
    def test_matches_repeated_single_observations(self):
        for old, repeat in [(0, 1), (0, 7), (3, 1), (5, 12), (100, 3)]:
            one = ScaledStats()
            many = ScaledStats()
            count = old
            for _ in range(repeat):
                count = one.observe_frequency(count)
            assert many.observe_frequencies(old, repeat) == count
            assert many == one

    def test_zero_repeat_is_noop(self):
        stats = ScaledStats()
        assert stats.observe_frequencies(5, 0) == 5
        assert stats == ScaledStats()

    def test_negative_repeat_rejected(self):
        with pytest.raises(ValueError):
            ScaledStats().observe_frequencies(0, -1)


class TestFrequencyKernel:
    def test_fast_kernel_used_for_plain_spec(self):
        stat4 = freq_stat4()
        result = BatchEngine(stat4).process(
            PacketBatch.from_contexts(contexts_for([1, 2, 1, 3]))
        )
        assert result.kernels.get("frequency_fast") == 4
        assert result.packets == 4

    def test_exact_loop_used_for_alerting_spec(self):
        stat4 = freq_stat4(k_sigma=2)
        result = BatchEngine(stat4).process(
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
        BatchEngine(batched).process(
            PacketBatch.from_contexts(contexts)
        )
        assert diff(scalar.snapshot(), batched.snapshot()) == []

    def test_out_of_domain_values_dropped(self):
        scalar = freq_stat4(mask=0x1FF, counter_size=256)
        batched = freq_stat4(mask=0x1FF, counter_size=256)
        dsts = [10, 300, 500, 20, 256, 255]
        contexts = contexts_for(dsts)
        for ctx in contexts:
            scalar.process(ctx)
            ctx.digests.clear()
        BatchEngine(batched).process(
            PacketBatch.from_contexts(contexts)
        )
        assert scalar.state_of(0).values_dropped == 3
        assert diff(scalar.snapshot(), batched.snapshot()) == []


#: The engine under both settings of numpy's optional array paths.
MODES = [param.values[0] for param in NUMPY_MODES]

#: One packet per event: -1 is value-free; values at or past the cell
#: domain (2 to 8 cells below) are dropped before the tracker.
EVENTS = st.lists(st.integers(min_value=-1, max_value=10), max_size=120)


class TestTrackerWalk:
    """The tracker walk of Fig. 3, run by the generated loop.

    A tracked slot with no alerts (the ``frequency+tracked`` shape) runs
    ``exact_loop``, which steps the slot's tracker one observe or tick per
    packet from whatever state it holds.  The oracle is the scalar
    ``Stat4`` fed the same packets: a value observes, a value-free packet
    ticks a tracker that already holds a position, a value at or past
    ``counter_size`` never reaches the tracker, and the percentile
    registers are synced whenever either happened.  After every batch,
    the snapshot, the tracked position included, and the digests must
    equal the oracle's (``assert_equal_state``), with numpy's optional
    array paths on and hidden.  Small domains force the 0 and
    ``counter_size - 1`` boundary clamps; extreme percentiles skew the
    move weights.
    """

    @staticmethod
    def build(counter_size, percent):
        config = Stat4Config(
            counter_num=2, counter_size=counter_size, binding_stages=1
        )
        stat4 = Stat4(config)
        runtime = Stat4Runtime(stat4)
        spec = runtime.frequency_of(0, ExtractSpec.metadata("v"), percent=percent)
        runtime.bind(0, MATCH_ALL, spec)
        return stat4

    @staticmethod
    def contexts(events):
        contexts = []
        for index, value in enumerate(events):
            ctx = PacketContext(
                parsed=ParsedPacket(),
                meta=StandardMetadata(ingress_port=0, timestamp=index * 0.001),
            )
            if value >= 0:
                ctx.user["v"] = value
            contexts.append(ctx)
        return contexts

    def assert_same(self, events, counter_size, percent, cuts=()):
        """Feed ``events`` to the oracle and the engine in batches cut at
        ``cuts``, once per mode, comparing after every batch; returns the
        engine side's position register after each batch, per mode."""
        contexts = self.contexts(events)
        bounds = [0, *sorted(min(cut, len(events)) for cut in cuts), len(events)]
        positions = []
        for mode in MODES:
            scalar = self.build(counter_size, percent)
            batched = self.build(counter_size, percent)
            engine = BatchEngine(batched)
            walked = []
            for start, stop in zip(bounds, bounds[1:]):
                scalar_digests = process_scalar(scalar, contexts[start:stop])
                with numpy_mode(mode):
                    result = engine.process(
                        PacketBatch.from_contexts(contexts[start:stop])
                    )
                assert set(result.kernels) <= {"exact_loop"}
                assert_equal_state(scalar, batched, scalar_digests, result.digests)
                walked.append(batched.reg_pos.peek()[0])
            positions.append(walked)
        return positions

    @settings(deadline=None, max_examples=120)
    @given(
        counter_size=st.integers(min_value=2, max_value=8),
        percent=st.sampled_from([1, 10, 50, 90, 99]),
        events=EVENTS,
    )
    def test_walk_matches_scalar_replay(self, counter_size, percent, events):
        self.assert_same(events, counter_size, percent)

    @settings(deadline=None, max_examples=40)
    @given(
        counter_size=st.integers(min_value=2, max_value=8),
        percent=st.sampled_from([1, 50, 99]),
        events=EVENTS,
        cuts=st.lists(st.integers(min_value=0, max_value=120), max_size=4),
    )
    def test_windowed_walk_matches_one_pass(
        self, counter_size, percent, events, cuts
    ):
        # The walk resumes from whatever state the tracker holds: a batch
        # cut anywhere, empty batches included, must land where the
        # scalar pass does.
        self.assert_same(events, counter_size, percent, cuts)

    def test_empty_and_tick_only_streams(self):
        assert self.assert_same([], 4, 50) == [[0]] * len(MODES)
        # Ticks before any value: the tracker holds no position to move.
        assert self.assert_same([-1, -1, -1], 4, 50) == [[0]] * len(MODES)
        # A tick-only batch after the values still walks a position that
        # lags behind its mass, and syncs it.
        walked = self.assert_same([0, 5, 5, 5, 5, -1, -1], 6, 50, cuts=[5])
        assert walked == [[3, 5]] * len(MODES)

    def test_alternating_extremes_pin_boundaries(self):
        # Heavy mass at both ends drags the position into the clamps; the
        # cuts give every phase of the stream a batch of its own.
        events = ([0] * 30 + [5] * 30 + [-1] * 10) * 4
        cuts = [
            start + offset
            for start in range(0, len(events), 70)
            for offset in (30, 60, 70)
        ]
        for percent in (50, 99, 1):
            self.assert_same(events, 6, percent)
            self.assert_same(events, 6, percent, cuts)


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

    @settings(deadline=None, max_examples=300)
    @given(
        raw=st.lists(
            st.one_of(st.none(), st.integers(min_value=-(1 << 20), max_value=1 << 40)),
            max_size=30,
        ),
        shift=st.integers(min_value=0, max_value=12),
        mask=st.one_of(st.none(), st.integers(min_value=0, max_value=0xFFFF)),
        lo=st.integers(min_value=0, max_value=1 << 12),
        width=st.one_of(st.just(0), st.integers(min_value=1, max_value=1 << 12)),
        constant=st.one_of(st.none(), st.integers(min_value=0, max_value=1 << 20)),
    )
    def test_values_for_matches_per_packet_extract(
        self, raw, shift, mask, lo, width, constant
    ):
        """``values_for`` against ``ExtractSpec.extract`` and the accept
        filter, packet by packet: ``None`` stays ``None``, and a value
        the filter rejects becomes ``None``."""
        from dataclasses import replace

        if constant is None:
            extract = ExtractSpec.metadata("v", shift=shift, mask=mask)
        else:
            extract = ExtractSpec("const", shift=shift, mask=mask, constant_value=constant)
        spec = replace(
            Stat4Runtime(None).frequency_of(0, extract),
            accept_lo=lo,
            accept_hi=lo + width if width else 0,
        )
        contexts = []
        for value in raw:
            ctx = PacketContext(
                parsed=ParsedPacket(),
                meta=StandardMetadata(ingress_port=0, timestamp=0.0),
            )
            if value is not None:
                ctx.user["v"] = value
            contexts.append(ctx)
        expected = []
        for ctx in contexts:
            value = extract.extract(ctx, 0)
            expected.append(None if value is None or not spec.accepts(value) else value)
        batch = PacketBatch.from_contexts(contexts)
        assert batch.values_for(spec) == expected
        assert batch.values_for(spec) is batch.values_for(spec)


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
        engine = BatchEngine(bundle.stat4)
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
            PacketBatch.from_contexts(contexts_for([1, 2, 3]))
        )
        assert result.packets == 3
        assert stat4.packets_seen == 3
