"""Unit tests for traffic builders, profiles and the source node."""

import random
from collections import Counter

import pytest

from repro.netsim.hosts import Host
from repro.netsim.network import Network
from repro.p4 import headers as hdr
from repro.p4.parser import standard_parser
from repro.p4.errors import ValueRangeError
from repro.traffic.builders import PacketBuilder, echo_frame, tcp_syn_to, udp_frame, udp_to
from repro.traffic.profiles import (
    TrafficPhase,
    spike_chooser,
    spike_phase,
    uniform_chooser,
    uniform_phase,
    zipf_chooser,
)
from repro.traffic.source import TrafficSource

PARSER = standard_parser()


class TestBuilders:
    def test_udp_parses(self):
        pkt = udp_to(hdr.ip_to_int("10.0.1.2"), payload_len=10)
        parsed = PARSER.parse(pkt)
        assert parsed.has("udp")
        assert parsed["ipv4"].get("dst") == hdr.ip_to_int("10.0.1.2")
        assert len(parsed.payload) == 10

    @pytest.mark.parametrize("seed", range(20))
    def test_udp_frame_packs_the_header_builders_bytes(self, seed):
        rng = random.Random(seed)
        dst, src = rng.getrandbits(32), rng.getrandbits(32)
        sport, dport = rng.getrandbits(16), rng.getrandbits(16)
        payload = rng.randrange(0, 100)
        reference = (
            hdr.ethernet(0x020000000001, 0x020000000002, hdr.ETHERTYPE_IPV4).pack()
            + hdr.ipv4(src=src, dst=dst, protocol=hdr.PROTO_UDP, total_len=28 + payload).pack()
            + hdr.udp(sport, dport, length=8 + payload).pack()
            + bytes(payload)
        )
        assert udp_frame(dst, src, sport, dport, payload) == reference
        assert udp_to(dst, src, sport, dport, payload).data == reference

    @pytest.mark.parametrize(
        "fields",
        [
            {"dst_ip": 1 << 32},
            {"dst_ip": -1},
            {"dst_ip": 1, "src_ip": 1 << 32},
            {"dst_ip": 1, "sport": 1 << 16},
            {"dst_ip": 1, "dport": -1},
            {"dst_ip": 1, "payload_len": 65536},
        ],
    )
    def test_udp_frame_rejects_out_of_range_fields(self, fields):
        with pytest.raises(ValueRangeError):
            udp_frame(**fields)

    def test_syn_flag_set(self):
        pkt = tcp_syn_to(hdr.ip_to_int("10.0.1.2"))
        parsed = PARSER.parse(pkt)
        assert parsed["tcp"].get("flags") == hdr.TCP_FLAG_SYN

    def test_echo_frame(self):
        parsed = PARSER.parse(echo_frame(-50))
        assert parsed["stat4_echo"].get("value") == 206

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            PacketBuilder.build("carrier-pigeon", 1, 0.0)


class TestChoosers:
    def test_uniform_covers_all(self):
        rng = random.Random(0)
        choose = uniform_chooser([1, 2, 3])
        seen = {choose(rng) for _ in range(200)}
        assert seen == {1, 2, 3}

    def test_uniform_empty_rejected(self):
        with pytest.raises(ValueError):
            uniform_chooser([])

    def test_spike_share(self):
        rng = random.Random(1)
        choose = spike_chooser(victim=9, background=[1, 2, 3], victim_share=0.8)
        counts = Counter(choose(rng) for _ in range(5000))
        assert counts[9] / 5000 == pytest.approx(0.8, abs=0.05)

    def test_spike_share_validation(self):
        with pytest.raises(ValueError):
            spike_chooser(1, [2], victim_share=0.0)

    def test_zipf_rank_ordering(self):
        rng = random.Random(2)
        choose = zipf_chooser([10, 20, 30, 40], exponent=1.2)
        counts = Counter(choose(rng) for _ in range(8000))
        assert counts[10] > counts[20] > counts[40]


class TestPhases:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrafficPhase(duration=0, rate_pps=1, chooser=uniform_chooser([1]))
        with pytest.raises(ValueError):
            TrafficPhase(duration=1, rate_pps=0, chooser=uniform_chooser([1]))

    def test_constant_gap(self):
        phase = uniform_phase([1], duration=1, rate_pps=100, poisson=False)
        rng = random.Random(0)
        assert phase.next_gap(rng) == pytest.approx(0.01)

    def test_poisson_gap_varies(self):
        phase = uniform_phase([1], duration=1, rate_pps=100, poisson=True)
        rng = random.Random(0)
        gaps = {phase.next_gap(rng) for _ in range(10)}
        assert len(gaps) == 10


class TestTrafficSource:
    def build(self, phases, seed=0):
        net = Network()
        sink = net.add(Host("sink"))
        source = net.add(TrafficSource("src", phases, seed=seed))
        net.connect(source, 0, sink, 0, delay=0.0001)
        return net, source, sink

    def test_rate_approximately_honored(self):
        phases = [uniform_phase([1], duration=1.0, rate_pps=500, poisson=False)]
        net, source, sink = self.build(phases)
        source.start()
        net.run()
        assert source.packets_sent == pytest.approx(500, abs=2)
        assert sink.packets_received == source.packets_sent

    def test_phases_play_in_sequence(self):
        destinations = [hdr.ip_to_int("10.0.1.1")]
        victim = hdr.ip_to_int("10.0.2.2")
        phases = [
            uniform_phase(destinations, duration=0.5, rate_pps=200, poisson=False),
            spike_phase(victim, destinations, duration=0.5, rate_pps=200,
                        victim_share=1.0, poisson=False),
        ]
        net, source, sink = self.build(phases)
        source.start()
        net.run()
        onset = source.phase_start_of("spike")
        assert onset == pytest.approx(0.5)
        before = [p for (t, p) in sink.received if t < onset]
        after = [p for (t, p) in sink.received if t >= onset + 0.001]
        dsts_before = {PARSER.parse(p)["ipv4"].get("dst") for p in before}
        dsts_after = {PARSER.parse(p)["ipv4"].get("dst") for p in after}
        assert dsts_before == set(destinations)
        assert dsts_after == {victim}

    def test_deterministic_given_seed(self):
        phases = [uniform_phase([1, 2, 3], duration=0.2, rate_pps=300)]
        _, s1, sink1 = self.build(phases, seed=42)
        s1.start()
        s1.network.run()
        phases2 = [uniform_phase([1, 2, 3], duration=0.2, rate_pps=300)]
        _, s2, sink2 = self.build(phases2, seed=42)
        s2.start()
        s2.network.run()
        assert [p.data for _, p in sink1.received] == [p.data for _, p in sink2.received]

    def test_needs_phases(self):
        with pytest.raises(ValueError):
            TrafficSource("src", [])

    def test_cannot_start_twice(self):
        phases = [uniform_phase([1], duration=0.1, rate_pps=10)]
        net, source, _ = self.build(phases)
        source.start()
        with pytest.raises(RuntimeError):
            source.start()

    def test_unattached_start_rejected(self):
        source = TrafficSource("s", [uniform_phase([1], duration=1, rate_pps=1)])
        with pytest.raises(RuntimeError):
            source.start()
