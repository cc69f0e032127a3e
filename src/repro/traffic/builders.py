# p4-ok-file — host-side traffic generation, not data-plane code.
"""Packet construction helpers shared by generators and experiments."""

from __future__ import annotations

import struct
from typing import Optional

from repro.p4 import headers as hdr
from repro.p4.errors import ValueRangeError
from repro.p4.packet import Packet

__all__ = ["udp_frame", "udp_to", "tcp_to", "tcp_syn_to", "echo_frame", "PacketBuilder"]

_MAC_DST = 0x0200_0000_0001
_MAC_SRC = 0x0200_0000_0002

#: Ethernet, IPv4 and UDP as ``hdr.ethernet/ipv4/udp(...).pack()`` lay them
#: out: both MACs as one 96-bit prefix, version and IHL in one byte, flags
#: and fragment offset in one 16-bit word.
_UDP_FRAME = struct.Struct("!12sHBBHHHBBHIIHHHH")
_MAC_PAIR = (_MAC_DST << 48 | _MAC_SRC).to_bytes(12, "big")


def udp_frame(
    dst_ip: int,
    src_ip: int = 0x01010101,
    sport: int = 40000,
    dport: int = 9000,
    payload_len: int = 0,
) -> bytes:
    """The bytes of a UDP datagram with ``payload_len`` filler bytes.

    One precompiled ``struct`` layout; the same bytes as packing the
    :mod:`repro.p4.headers` builders field by field.

    Raises:
        ValueRangeError: if an address, port or length does not fit its field.
    """
    try:
        head = _UDP_FRAME.pack(
            _MAC_PAIR,
            hdr.ETHERTYPE_IPV4,
            0x45,  # version 4, IHL 5
            0,  # diffserv
            20 + 8 + payload_len,  # total_len
            0,  # identification
            0,  # flags, frag_offset
            64,  # ttl
            hdr.PROTO_UDP,
            0,  # hdr_checksum (left zero, as hdr.ipv4 does)
            src_ip,
            dst_ip,
            sport,
            dport,
            8 + payload_len,  # length
            0,  # checksum
        )
    except struct.error as exc:
        raise ValueRangeError(f"UDP frame field out of range: {exc}") from None
    return head + b"\x00" * payload_len


def udp_to(
    dst_ip: int,
    src_ip: int = 0x01010101,
    sport: int = 40000,
    dport: int = 9000,
    payload_len: int = 0,
    created_at: float = 0.0,
    trace_id: Optional[int] = None,
) -> Packet:
    """A UDP datagram with ``payload_len`` filler bytes (:func:`udp_frame`)."""
    return Packet(
        udp_frame(dst_ip, src_ip, sport, dport, payload_len),
        created_at=created_at,
        trace_id=trace_id,
    )


def tcp_to(
    dst_ip: int,
    flags: int = hdr.TCP_FLAG_ACK,
    src_ip: int = 0x01010101,
    sport: int = 40000,
    dport: int = 80,
    created_at: float = 0.0,
    trace_id: Optional[int] = None,
) -> Packet:
    """A bare TCP segment with the given flags."""
    eth = hdr.ethernet(dst=_MAC_DST, src=_MAC_SRC, ether_type=hdr.ETHERTYPE_IPV4)
    ip = hdr.ipv4(src=src_ip, dst=dst_ip, protocol=hdr.PROTO_TCP, total_len=40)
    tcp = hdr.tcp(sport, dport, flags=flags)
    return Packet(eth.pack() + ip.pack() + tcp.pack(), created_at=created_at, trace_id=trace_id)


def tcp_syn_to(dst_ip: int, src_ip: int = 0x01010101, **kwargs) -> Packet:
    """A TCP SYN — the unit of a SYN flood."""
    return tcp_to(dst_ip, flags=hdr.TCP_FLAG_SYN, src_ip=src_ip, **kwargs)


def echo_frame(value: int, created_at: float = 0.0) -> Packet:
    """A Stat4 validation echo request (Figure 5)."""
    eth = hdr.ethernet(dst=_MAC_DST, src=_MAC_SRC, ether_type=hdr.ETHERTYPE_STAT4_ECHO)
    return Packet(eth.pack() + hdr.echo_request(value).pack(), created_at=created_at)


class PacketBuilder:
    """A named packet-construction strategy for traffic phases."""

    UDP = "udp"
    SYN = "syn"

    #: Defaults used when a phase does not vary the field per packet.
    DEFAULT_SRC = 0x01010101
    DEFAULT_DPORT = 9000

    @staticmethod
    def build(
        kind: str,
        dst_ip: int,
        created_at: float,
        payload_len: int = 0,
        dport: Optional[int] = None,
        src_ip: Optional[int] = None,
    ) -> Packet:
        """Build one packet of the phase's kind toward ``dst_ip``.

        ``dport``/``src_ip`` override the fixed defaults — attack phases
        (port scans, spoofed-source floods) choose them per packet.
        """
        if src_ip is None:
            src_ip = PacketBuilder.DEFAULT_SRC
        if kind == PacketBuilder.UDP:
            return udp_to(
                dst_ip,
                src_ip=src_ip,
                dport=dport if dport is not None else PacketBuilder.DEFAULT_DPORT,
                payload_len=payload_len,
                created_at=created_at,
            )
        if kind == PacketBuilder.SYN:
            return tcp_syn_to(
                dst_ip,
                src_ip=src_ip,
                dport=dport if dport is not None else 80,
                created_at=created_at,
            )
        raise ValueError(f"unknown packet kind {kind!r}")
