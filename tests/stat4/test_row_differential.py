"""The row contract: ``BatchEngine.process(batch, rows)`` applies only the
packets at ``rows``.

Each shard of a :class:`~repro.cluster.sharded.ShardedStat4` runs the
cluster's one batch over its own rows.  For a random batch of every
backing — frames decoded column-wise, or parsed per packet once numpy is
hidden; parsed contexts; synthetic columns — and a random ascending row
subset, an engine must leave exactly the state (``diff`` of the
snapshots is empty) and emit exactly the digests (name, fields, timestamp
and order) of the scalar ``Stat4.process`` over the packets at those rows
alone.  Two engines split every batch between them, as two shards do, so
each also reads the value columns the other cached on the shared batch.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.p4 import headers as hdr
from repro.p4.parser import standard_parser
from repro.stat4 import (
    BatchEngine,
    BindingMatch,
    ExtractSpec,
    MATCH_ALL,
    PacketBatch,
    Stat4,
    Stat4Config,
    Stat4Runtime,
)
from repro.stat4 import batch as batch_module
from repro.stat4.library import diff
from repro.traffic.builders import tcp_to, udp_frame
from tests.numpy_paths import NUMPY_MODES, numpy_mode
from tests.stat4.test_batch_differential import assert_equal_state, process_scalar

GAP = 0.0005


def detector():
    """One slot per kernel: counting, the tracked k·σ loop, a time series
    fed by every key (so its run merges every signature's rows) and a
    small sparse table that evicts."""
    stat4 = Stat4(
        Stat4Config(
            counter_num=4,
            counter_size=256,
            binding_stages=4,
            sparse_dists=(3,),
            sparse_slots=8,
        )
    )
    runtime = Stat4Runtime(stat4)
    ipv4 = BindingMatch(ether_type=hdr.ETHERTYPE_IPV4)
    dst = ExtractSpec.field("ipv4.dst")
    runtime.bind(0, ipv4, runtime.frequency_of(0, ExtractSpec.frame_size()))
    runtime.bind(
        1,
        ipv4,
        runtime.frequency_of(
            1,
            ExtractSpec.field("ipv4.dst", mask=0xFF),
            k_sigma=1,
            min_samples=4,
            percent=50,
            percentile_alert="median_moved",
        ),
    )
    runtime.bind(
        2,
        MATCH_ALL,
        runtime.rate_over_time(2, interval=4 * GAP, k_sigma=1, min_samples=2, window=8),
    )
    runtime.bind(
        3,
        BindingMatch(ether_type=hdr.ETHERTYPE_IPV4, protocol=hdr.PROTO_UDP),
        runtime.sparse_frequency_of(3, dst, k_sigma=1, min_samples=4),
    )
    return stat4


def frame(kind, dst, size):
    if kind == "udp":
        return udp_frame(dst, payload_len=size)
    if kind == "tcp":
        return tcp_to(dst, flags=size).data
    if kind == "ipv6":
        return hdr.ethernet(1, 2, 0x86DD).pack() + bytes(40)
    return bytes(size % 14)  # shorter than an Ethernet header: rejected


packets = st.lists(
    st.tuples(
        st.sampled_from(("udp", "udp", "tcp", "ipv6", "runt")),
        st.integers(0, 300),
        st.integers(0, 40),
    ),
    max_size=60,
)


def parsed_per_packet(frames, times):
    """The batch the per-packet parse builds: the scalar oracle's contexts."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(batch_module, "HAS_NUMPY", False)
        return PacketBatch.from_frames(frames, times, standard_parser())


def backed_by(backing, frames, times, parsed):
    if backing == "frames":
        return PacketBatch.from_frames(frames, times, standard_parser())
    if backing == "contexts":
        return PacketBatch.from_contexts(parsed.contexts)
    return PacketBatch(
        parsed.timestamps,
        parsed.keys,
        columns={"ipv4.dst": parsed.raw_column("ipv4.dst")},
        frame_bytes=parsed.raw_column("frame.size"),
    )


def row_subsets(n):
    """Ascending rows: any subset, or a contiguous range of them."""
    return st.one_of(
        st.sets(st.integers(0, max(n - 1, 0)), max_size=n).map(sorted),
        st.tuples(st.integers(0, n), st.integers(0, n)).map(
            lambda ends: range(min(ends), max(ends))
        ),
    )


@pytest.mark.parametrize("mode", NUMPY_MODES)
@pytest.mark.parametrize("backing", ["frames", "contexts", "columns"])
@settings(deadline=None, max_examples=80)
@given(packets, st.data())
def test_rows_equal_the_scalar_loop_over_those_packets(backing, mode, drawn, data):
    frames = [frame(*each) for each in drawn]
    times = [index * GAP for index in range(len(frames))]
    parsed = parsed_per_packet(frames, times)
    contexts = parsed.contexts
    n = len(contexts)
    rows = data.draw(row_subsets(n), label="rows")
    chosen = set(rows)
    rest = [i for i in range(n) if i not in chosen]
    with numpy_mode(mode):
        batch = backed_by(backing, frames, times, parsed)
        assert len(batch) == n
        engines = BatchEngine(detector()), BatchEngine(detector())
        results = [engines[0].process(batch, rows), engines[1].process(batch, rest)]
    for engine, result, subset in zip(engines, results, (rows, rest)):
        oracle = detector()
        digests = process_scalar(oracle, [contexts[i] for i in subset])
        assert result.packets == len(subset)
        assert_equal_state(oracle, engine.stat4, digests, result.digests)


def test_an_empty_subset_changes_nothing():
    frames = [udp_frame(dst, payload_len=dst % 8) for dst in range(40)]
    batch = PacketBatch.from_frames(
        frames, [i * GAP for i in range(40)], standard_parser()
    )
    engine = BatchEngine(detector())
    result = engine.process(batch, [])
    assert (result.packets, result.digests, result.kernels) == (0, [], {})
    assert diff(detector().snapshot(), engine.stat4.snapshot()) == []
