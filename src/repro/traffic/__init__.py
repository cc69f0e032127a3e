"""Workload generation: packet builders, phase profiles, and source nodes."""

from repro.traffic.builders import (
    PacketBuilder,
    echo_frame,
    tcp_syn_to,
    tcp_to,
    udp_to,
)
from repro.traffic.columns import (
    AttachedColumn,
    ColumnDescriptor,
    SharedColumnSegment,
    attach_column,
    decode_column,
    encode_column,
    live_segment_count,
    release_all_segments,
)
from repro.traffic.profiles import (
    Chooser,
    TrafficPhase,
    spike_chooser,
    spike_phase,
    uniform_chooser,
    uniform_phase,
    zipf_chooser,
)
from repro.traffic.source import TrafficSource
from repro.traffic.trace import PacketTrace, TraceRecord, TraceReplayer, TraceTap

__all__ = [
    "PacketTrace",
    "TraceRecord",
    "TraceReplayer",
    "TraceTap",
    "AttachedColumn",
    "ColumnDescriptor",
    "SharedColumnSegment",
    "attach_column",
    "decode_column",
    "encode_column",
    "live_segment_count",
    "release_all_segments",
    "PacketBuilder",
    "udp_to",
    "tcp_to",
    "tcp_syn_to",
    "echo_frame",
    "Chooser",
    "TrafficPhase",
    "uniform_chooser",
    "spike_chooser",
    "zipf_chooser",
    "uniform_phase",
    "spike_phase",
    "TrafficSource",
]
