"""Differential tests: columnar frame decoding against the per-packet parse.

``PacketBatch.from_frames`` (and through it ``from_trace`` and
``from_packets``) decodes a batch of frames column-wise with
:func:`repro.stat4.frames.decode_frames` when numpy is importable.  The
per-packet path — ``Parser.parse`` and a ``PacketContext`` per frame, the
numpy-less fallback — is the oracle: on random and malformed frames both
must give the same rows, rejects, binding keys, timestamps (bit for bit),
header-field, ``frame.size`` and ``meta.*`` columns, also after ``select``
and ``slice_view``, and the same digests and detector state through
``BatchEngine`` on both backends.
"""

import struct
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.p4 import headers as hdr
from repro.p4.packet import HeaderType, Packet
from repro.p4.parser import Parser, ParserState, standard_parser
from repro.stat4 import batch as batch_module
from repro.stat4 import (
    HAS_NUMPY,
    BatchEngine,
    BindingMatch,
    ExtractSpec,
    MATCH_ALL,
    PacketBatch,
    Stat4,
    Stat4Config,
    Stat4Runtime,
)
from repro.traffic.trace import TraceRecord
from tests.stat4.test_batch_differential import assert_equal_state

pytestmark = pytest.mark.skipif(not HAS_NUMPY, reason="decoding needs numpy")

STANDARD_HEADERS = (hdr.ETHERNET, hdr.IPV4, hdr.TCP, hdr.UDP, hdr.STAT4_ECHO)

#: Every source a binding can extract from a standard-parser batch.
SOURCES = tuple(
    f"{header.name}.{spec.name}"
    for header in STANDARD_HEADERS
    for spec in header.fields
) + ("frame.size", "meta.frame_bytes", "meta.retransmit")

ETHERTYPE_VLAN = 0x8100
ETHERTYPE_IPV6 = 0x86DD

KINDS = (
    "udp",
    "tcp",
    "ipv4_other",
    "ipv4_options",
    "vlan",
    "ipv6",
    "echo",
    "ether_other",
    "noise",
)


def _header(draw, header_type: HeaderType, **fixed) -> bytes:
    """One header with every field random except ``fixed``."""
    values = {
        spec.name: draw(st.integers(0, (1 << spec.width) - 1))
        for spec in header_type.fields
    }
    values.update(fixed)
    return header_type.instance(**values).pack()


def _ipv4_datagram(draw, parts, protocol, ihl=5):
    parts.append(_header(draw, hdr.IPV4, version=4, ihl=ihl, protocol=protocol))
    if ihl > 5:
        # The parser ignores IHL: these option bytes are read as the L4 header.
        parts.append(draw(st.binary(min_size=4 * (ihl - 5), max_size=4 * (ihl - 5))))
    if protocol == hdr.PROTO_TCP:
        parts.append(_header(draw, hdr.TCP))
    elif protocol == hdr.PROTO_UDP:
        parts.append(_header(draw, hdr.UDP))


@st.composite
def frames(draw):
    """A random frame, well-formed or not, possibly cut at a header boundary."""
    kind = draw(st.sampled_from(KINDS))
    if kind == "noise":
        return draw(st.binary(max_size=80))
    ether_type = {
        "vlan": ETHERTYPE_VLAN,
        "ipv6": ETHERTYPE_IPV6,
        "echo": hdr.ETHERTYPE_STAT4_ECHO,
        "ether_other": draw(st.integers(0, 0xFFFF)),
    }.get(kind, hdr.ETHERTYPE_IPV4)
    parts = [_header(draw, hdr.ETHERNET, ether_type=ether_type)]
    if kind == "udp":
        _ipv4_datagram(draw, parts, hdr.PROTO_UDP)
    elif kind == "tcp":
        _ipv4_datagram(draw, parts, hdr.PROTO_TCP)
    elif kind == "ipv4_other":
        _ipv4_datagram(draw, parts, draw(st.integers(0, 0xFF)))
    elif kind == "ipv4_options":
        _ipv4_datagram(
            draw,
            parts,
            draw(st.sampled_from((hdr.PROTO_TCP, hdr.PROTO_UDP))),
            ihl=draw(st.integers(6, 15)),
        )
    elif kind == "vlan":
        parts.append(struct.pack("!HH", draw(st.integers(0, 0xFFFF)), hdr.ETHERTYPE_IPV4))
        _ipv4_datagram(draw, parts, hdr.PROTO_UDP)
    elif kind == "ipv6":
        parts.append(draw(st.binary(min_size=40, max_size=48)))
    elif kind == "echo":
        parts.append(_header(draw, hdr.STAT4_ECHO))
    parts.append(draw(st.binary(max_size=12)))
    frame = b"".join(parts)
    boundaries = {0}
    offset = 0
    for part in parts:
        offset += len(part)
        boundaries.update((offset - 1, offset, offset + 1))
    cut = draw(
        st.one_of(
            st.none(),
            st.sampled_from(sorted(b for b in boundaries if 0 <= b <= len(frame))),
        )
    )
    return frame if cut is None else frame[:cut]


timestamps = st.floats(allow_nan=False, allow_infinity=False)
traces = st.lists(st.tuples(timestamps, frames()), max_size=40)


def per_packet(build, *args):
    """``build(*args)`` on the per-packet path (the numpy-less fallback)."""
    with mock.patch.object(batch_module, "HAS_NUMPY", False):
        batch = build(*args)
    assert batch.contexts is not None
    return batch


def bits(values):
    return [struct.pack("<d", value) for value in values]


def assert_same_batch(decoded, oracle, sources=SOURCES):
    assert decoded.contexts is None  # frame-backed, no per-packet objects
    assert len(decoded) == len(oracle)
    assert decoded.keys == oracle.keys
    assert bits(decoded.timestamps) == bits(oracle.timestamps)
    for source in sources:
        assert decoded.raw_column(source) == oracle.raw_column(source), source


@settings(deadline=None, max_examples=300)
@given(traces)
def test_decoded_batch_equals_per_packet_parse(trace):
    records = [TraceRecord(timestamp=when, data=frame) for when, frame in trace]
    parser = standard_parser()
    decoded = PacketBatch.from_trace(records, parser)
    oracle = per_packet(PacketBatch.from_trace, records, parser)
    assert decoded.parse_errors == oracle.parse_errors
    assert_same_batch(decoded, oracle)


@settings(deadline=None, max_examples=100)
@given(traces, st.data())
def test_select_and_slice_view_keep_the_rows(trace, data):
    records = [TraceRecord(timestamp=when, data=frame) for when, frame in trace]
    parser = standard_parser()
    decoded = PacketBatch.from_trace(records, parser)
    oracle = per_packet(PacketBatch.from_trace, records, parser)
    n = len(decoded)
    indices = data.draw(st.lists(st.integers(0, max(0, n - 1)), max_size=n * 2 if n else 0))
    assert_same_batch(decoded.select(indices), oracle.select(indices))
    start = data.draw(st.integers(0, n))
    stop = data.draw(st.integers(start, n))
    assert_same_batch(decoded.slice_view(start, stop), oracle.slice_view(start, stop))
    # A view of a selection, and columns read before slicing.
    decoded.raw_column("ipv4.dst")
    assert_same_batch(
        decoded.select(indices).slice_view(0, len(indices) // 2),
        oracle.select(indices).slice_view(0, len(indices) // 2),
    )


def test_from_packets_uses_packet_times_and_rejects_like_the_parser():
    packets = [
        Packet(b"", created_at=0.5),
        Packet(b"\x00" * 13, created_at=1.0),
        Packet(hdr.ethernet(1, 2, hdr.ETHERTYPE_IPV4).pack(), created_at=1.5),
        Packet(hdr.ethernet(1, 2, ETHERTYPE_IPV6).pack(), created_at=2.0),
    ]
    parser = standard_parser()
    decoded = PacketBatch.from_packets(packets, parser)
    oracle = per_packet(PacketBatch.from_packets, packets, parser)
    assert (decoded.parse_errors, oracle.parse_errors) == (3, 3)
    assert decoded.timestamps == [2.0]
    assert_same_batch(decoded, oracle)


#: Fields that straddle bytes at every bit offset the decoder's shifts handle.
ODD = HeaderType("odd", [("a", 7), ("b", 10), ("c", 15)])


def _custom_parser(max_depth):
    """A graph with a cycle, an undefined state, a select on nothing and a
    header of unaligned fields selecting on one of them."""
    states = {
        "start": ParserState(
            name="start",
            extracts=hdr.ETHERNET,
            select_field="ether_type",
            transitions={
                1: "start",
                2: "missing",
                3: "blind",
                0x0800: "parse_udp",
                0x0801: "parse_odd",
            },
        ),
        "blind": ParserState(name="blind", select_field="ether_type"),
        "parse_odd": ParserState(
            name="parse_odd",
            extracts=ODD,
            select_field="a",
            transitions={value: "parse_udp" for value in range(0, 128, 3)},
        ),
        "parse_udp": ParserState(name="parse_udp", extracts=hdr.UDP),
    }
    return Parser(states, start="start", max_depth=max_depth)


@settings(deadline=None, max_examples=100)
@given(
    st.lists(
        st.tuples(
            st.sampled_from((0, 1, 2, 3, 0x0800, 0x0801)),
            st.integers(0, 4),
            st.binary(max_size=40),
        ),
        max_size=20,
    ),
    st.integers(0, 5),
)
@example(
    # Every first byte under the unaligned header: each bit offset shows.
    shape=[(0x0801, 0, bytes([b, 255 - b, b ^ 0x5A, b]) + bytes(8)) for b in range(256)],
    max_depth=5,
)
def test_decoder_follows_any_parse_graph(shape, max_depth):
    """Loops, undefined states, selects on nothing and the depth cap reject
    exactly the frames ``Parser.parse`` rejects."""
    frames_ = []
    for ether_type, repeats, tail in shape:
        header = hdr.ethernet(1, 2, ether_type).pack()
        frames_.append(header * (repeats + 1) + tail)
    parser = _custom_parser(max_depth)
    times = [float(i) for i in range(len(frames_))]
    decoded = PacketBatch.from_frames(frames_, times, parser)
    oracle = per_packet(PacketBatch.from_frames, frames_, times, parser)
    assert decoded.parse_errors == oracle.parse_errors
    assert_same_batch(decoded, oracle, SOURCES + ("odd.a", "odd.b", "odd.c"))


def test_graphs_the_decoder_cannot_reproduce_take_the_per_packet_path():
    wide = HeaderType("wide", [("pad", 4), ("value", 64), ("rest", 4)])
    parser = Parser(
        {"start": ParserState(name="start", extracts=wide)}, start="start"
    )
    batch = PacketBatch.from_frames([bytes(range(9)), b"\x01"], [0.0, 1.0], parser)
    assert batch.contexts is not None
    assert batch.parse_errors == 1
    assert batch.raw_column("wide.value") == [
        int.from_bytes(bytes(range(9)), "big") >> 4 & ((1 << 64) - 1)
    ]


# -- through the engine -----------------------------------------------------------


def _detector():
    config = Stat4Config(
        counter_num=4, counter_size=256, binding_stages=4, sparse_dists=(3,)
    )
    stat4 = Stat4(config)
    runtime = Stat4Runtime(stat4)
    runtime.bind(
        0,
        MATCH_ALL,
        runtime.rate_over_time(dist=0, interval=0.002, k_sigma=1, min_samples=2),
    )
    runtime.bind(
        1,
        BindingMatch(ether_type=hdr.ETHERTYPE_IPV4),
        runtime.frequency_of(
            dist=1,
            extract=ExtractSpec.field("ipv4.dst", mask=0xFF),
            k_sigma=1,
            min_samples=4,
            percent=50,
            percentile_alert="median_moved",
        ),
    )
    runtime.bind(
        2, MATCH_ALL, runtime.frequency_of(dist=2, extract=ExtractSpec.frame_size())
    )
    runtime.bind(
        3,
        BindingMatch(ether_type=hdr.ETHERTYPE_IPV4, protocol=hdr.PROTO_UDP),
        runtime.sparse_frequency_of(
            dist=3, extract=ExtractSpec.field("udp.src_port"), k_sigma=1, min_samples=4
        ),
    )
    return stat4


@pytest.mark.parametrize("backend", ["numpy", "python"])
@settings(deadline=None, max_examples=40)
@given(
    st.lists(frames(), max_size=60),
    st.lists(st.integers(1, 30), min_size=1, max_size=8),
)
def test_engine_digests_and_state_match(backend, frames_, cuts):
    times = [i * 0.0005 for i in range(len(frames_))]
    parser = standard_parser()
    decoded_stat4, oracle_stat4 = _detector(), _detector()
    decoded_engine = BatchEngine(decoded_stat4, backend=backend)
    oracle_engine = BatchEngine(oracle_stat4, backend=backend)
    decoded_digests, oracle_digests = [], []
    start = 0
    for size in cuts * (len(frames_) // sum(cuts) + 1):
        if start >= len(frames_):
            break
        chunk, when = frames_[start : start + size], times[start : start + size]
        start += size
        decoded = PacketBatch.from_frames(chunk, when, parser)
        oracle = per_packet(PacketBatch.from_frames, chunk, when, parser)
        decoded_digests.extend(decoded_engine.process(decoded).digests)
        oracle_digests.extend(oracle_engine.process(oracle).digests)
    assert_equal_state(oracle_stat4, decoded_stat4, oracle_digests, decoded_digests)
