"""Seeded workload inputs, built by the benchmark's own code.

Frames are packed here byte by byte (Ethernet / IPv4 / UDP with
``struct``) instead of through ``repro.traffic`` or ``repro.scenarios``,
so a change to the program cannot change the workload it is measured on.
Every generator takes only a seed; the same seed gives the same inputs.

A *record* is ``(timestamp, frame)``: the switch-local time in seconds
and the frame bytes.  Timestamps are whole microseconds and strictly
increasing, so each alert's timestamp names the packet that raised it.
"""

from __future__ import annotations

import json
import random
import struct
from typing import Dict, List, Sequence, Tuple

Record = Tuple[float, bytes]

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_VLAN = 0x8100
ETHERTYPE_IPV6 = 0x86DD
PROTO_UDP = 17

#: Minimum Ethernet frame without the FCS.
MIN_FRAME = 60

_ETH = struct.Struct("!6s6sH")
_IPV4 = struct.Struct("!BBHHHBBH4s4s")
_UDP = struct.Struct("!HHHH")
_MAC_DST = bytes.fromhex("020000000001")
_MAC_SRC = bytes.fromhex("020000000002")

#: The 254 benign hosts every workload spreads over: 10.0.1.1 - 10.0.1.254.
HOSTS = [0x0A000100 | host for host in range(1, 255)]
#: Destination ports benign traffic draws from, with their weights.
PORTS = (53, 80, 123, 443, 8080, 9000)
PORT_WEIGHTS = (30, 10, 10, 40, 5, 5)


def udp_frame(src: int, dst: int, sport: int, dport: int, pad_to: int = 0) -> bytes:
    """An Ethernet/IPv4/UDP frame, zero payload padded up to ``pad_to`` bytes."""
    payload = max(0, pad_to - (_ETH.size + _IPV4.size + _UDP.size))
    ip = _IPV4.pack(
        0x45, 0, _IPV4.size + _UDP.size + payload, 0, 0, 64, PROTO_UDP, 0,
        src.to_bytes(4, "big"), dst.to_bytes(4, "big"),
    )
    udp = _UDP.pack(sport, dport, _UDP.size + payload, 0)
    return _ETH.pack(_MAC_DST, _MAC_SRC, ETHERTYPE_IPV4) + ip + udp + bytes(payload)


def _vlan_frame(rng: random.Random) -> bytes:
    """An 802.1Q-tagged frame: the parser stops after Ethernet."""
    inner = udp_frame(rng.getrandbits(32), rng.choice(HOSTS), 4000, 53)[_ETH.size :]
    tag = struct.pack("!HH", rng.randrange(1, 4095), ETHERTYPE_IPV4)
    frame = _ETH.pack(_MAC_DST, _MAC_SRC, ETHERTYPE_VLAN) + tag + inner
    return frame + bytes(max(0, MIN_FRAME - len(frame)))


def _ipv6_frame(rng: random.Random) -> bytes:
    """A non-IPv4 frame: Ethernet header plus an opaque IPv6/UDP body."""
    body = bytes(rng.getrandbits(8) for _ in range(48))
    return _ETH.pack(_MAC_DST, _MAC_SRC, ETHERTYPE_IPV6) + body


def _truncated_frame(rng: random.Random) -> bytes:
    """An IPv4 frame cut inside the IPv4 header: the parser rejects it."""
    return udp_frame(rng.getrandbits(32), rng.choice(HOSTS), 4000, 53)[: 14 + rng.randrange(1, 20)]


class _Clock:
    """Strictly increasing microsecond timestamps with exponential gaps."""

    def __init__(self, rng: random.Random, start_us: int = 1_000_000):
        self.rng = rng
        self.us = start_us

    def tick(self, rate_pps: float) -> float:
        self.us += max(1, int(self.rng.expovariate(rate_pps) * 1e6))
        return self.us / 1e6


def _benign_fields(rng: random.Random) -> Tuple[int, int, int, int]:
    src = 0x0B000000 | rng.randrange(1 << 16)
    dport = rng.choices(PORTS, PORT_WEIGHTS)[0]
    return src, rng.choice(HOSTS), rng.randrange(1024, 65536), dport


# -- pcap_flood --------------------------------------------------------------

#: Phases of one pcap_flood capture: (packets, trace-time rate pps, victim share).
#: The flood lasts about one 2,048-packet batch, so a capture raises 640-901
#: alerts (200 seeds), fewer than the 1,024 the ``/alerts`` ring keeps.
PCAP_PHASES = ((8_000, 1_200.0, 0.0), (2_000, 4_000.0, 0.30), (14_000, 1_200.0, 0.0))
#: pcap_overload: the same flood held four batches long after a longer
#: benign phase, ~2,600 alerts a capture, more than one long-poll client
#: drains before the ring wraps.
PCAP_OVERLOAD_PHASES = ((12_000, 1_200.0, 0.0), (8_000, 4_000.0, 0.30), (4_000, 1_200.0, 0.0))


def pcap_flood_records(seed: int, phases: Sequence[Tuple[int, float, float]] = PCAP_PHASES) -> List[Record]:
    """Benign load over 254 hosts, a volumetric flood at one victim, recovery.

    About 1% of frames are IPv6, 802.1Q-tagged or truncated.  The victim
    takes 30% of the flood phase, about 600 alerts per 2,048 flood packets,
    so the digest and alert-log path carries real load.
    """
    rng = random.Random(f"pcap_flood:{seed}")
    clock = _Clock(rng)
    victim = rng.choice(HOSTS)
    records: List[Record] = []
    for count, rate, victim_share in phases:
        for _ in range(count):
            when = clock.tick(rate)
            roll = rng.random()
            if roll < 0.004:
                frame = _ipv6_frame(rng)
            elif roll < 0.008:
                frame = _vlan_frame(rng)
            elif roll < 0.010:
                frame = _truncated_frame(rng)
            else:
                src, dst, sport, dport = _benign_fields(rng)
                if rng.random() < victim_share:
                    dst = victim
                frame = udp_frame(src, dst, sport, dport, pad_to=MIN_FRAME)
            records.append((when, frame))
    return records


_PCAP_GLOBAL = struct.Struct("<IHHiIII")
_PCAP_RECORD = struct.Struct("<IIII")


def write_pcap(path: str, records: Sequence[Record]) -> None:
    """A classic little-endian microsecond pcap (LINKTYPE_ETHERNET)."""
    with open(path, "wb") as handle:
        handle.write(_PCAP_GLOBAL.pack(0xA1B2C3D4, 2, 4, 0, 0, 65535, 1))
        for when, frame in records:
            micros = round(when * 1e6)
            handle.write(
                _PCAP_RECORD.pack(micros // 1_000_000, micros % 1_000_000, len(frame), len(frame))
            )
            handle.write(frame)


def read_pcap(path: str) -> List[Record]:
    """Records of a file :func:`write_pcap` wrote, timestamps as pcap readers compute them."""
    with open(path, "rb") as handle:
        blob = handle.read()
    offset = _PCAP_GLOBAL.size
    records: List[Record] = []
    while offset < len(blob):
        seconds, micros, caplen, _ = _PCAP_RECORD.unpack_from(blob, offset)
        offset += _PCAP_RECORD.size
        records.append((seconds + micros / 1_000_000, blob[offset : offset + caplen]))
        offset += caplen
    return records


# -- feed_paced --------------------------------------------------------------

#: Offered rate of the feed's open loop, about half its measured capacity.
FEED_RATE_PPS = 3_000.0
#: Share of feed packets sent to the standing heavy host.
FEED_HOT_SHARE = 0.06


def feed_lines(seed: int, packets: int) -> List[bytes]:
    """JSON feed lines; packet ``i`` is due ``i / FEED_RATE_PPS`` s after the start.

    Its ``ts`` is that due offset, so each alert's timestamp names its
    packet.  Traffic is benign over 254 hosts plus one standing heavy host.
    """
    rng = random.Random(f"feed_paced:{seed}")
    hot = rng.choice(HOSTS)
    lines = []
    for index in range(packets):
        src, dst, sport, dport = _benign_fields(rng)
        if rng.random() < FEED_HOT_SHARE:
            dst = hot
        record = {
            "dst": _dotted(dst),
            "ts": feed_due(index),
            "src": _dotted(src),
            "sport": sport,
            "dport": dport,
        }
        lines.append(json.dumps(record, separators=(",", ":")).encode() + b"\n")
    return lines


def feed_due(index: int) -> float:
    """Schedule offset (s) at which feed packet ``index`` is due."""
    return index / FEED_RATE_PPS


def feed_records(lines: Sequence[bytes]) -> List[Record]:
    """The frames a UDP feed line describes: a zero-payload datagram."""
    records = []
    for line in lines:
        item = json.loads(line)
        frame = udp_frame(
            _address(item["src"]), _address(item["dst"]), item["sport"], item["dport"]
        )
        records.append((float(item["ts"]), frame))
    return records


def _dotted(address: int) -> str:
    return ".".join(str((address >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def _address(dotted: str) -> int:
    a, b, c, d = (int(part) for part in dotted.split("."))
    return (a << 24) | (b << 16) | (c << 8) | d


# -- columns_mixed / columns_parallel ------------------------------------------

#: Phases of one columns pass: (packets, trace-time rate pps, kind).
COLUMN_PHASES = ((16_000, 2_000.0, "benign"), (8_000, 8_000.0, "flood"), (16_000, 2_000.0, "skew"))


def column_fields(seed: int) -> Dict[str, list]:
    """Per-packet header fields of one columns pass, benign -> flood -> skew.

    The flood sends a quarter of a faster burst at one victim from one
    heavy source; the skew phase shifts the port mix so the tracked median
    walks.
    """
    rng = random.Random(f"columns:{seed}")
    clock = _Clock(rng)
    victim = rng.choice(HOSTS)
    heavy_src = 0x0B000000 | rng.randrange(1 << 16)
    out: Dict[str, list] = {"ts": [], "src": [], "dst": [], "sport": [], "dport": []}
    for count, rate, kind in COLUMN_PHASES:
        for _ in range(count):
            src, dst, sport, dport = _benign_fields(rng)
            if kind == "flood" and rng.random() < 0.25:
                src, dst = heavy_src, victim
            elif kind == "skew" and rng.random() < 0.5:
                dport = 8080
            out["ts"].append(clock.tick(rate))
            out["src"].append(src)
            out["dst"].append(dst)
            out["sport"].append(sport)
            out["dport"].append(dport)
    return out


def column_records(fields: Dict[str, list]) -> List[Record]:
    """The frames the columns describe, for the scalar oracle."""
    return [
        (when, udp_frame(src, dst, sport, dport, pad_to=MIN_FRAME))
        for when, src, dst, sport, dport in zip(
            fields["ts"], fields["src"], fields["dst"], fields["sport"], fields["dport"]
        )
    ]
