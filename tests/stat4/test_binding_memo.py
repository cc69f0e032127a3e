"""The engine's binding memo: what it keys on, what invalidates it, its cap.

:class:`BatchEngine` resolves each binding key once per control-plane
generation — the memo outlives the batch and is cleared whole when a
binding table is replaced or its ``version`` moves.  The differential
here feeds one engine batch after batch while random control-plane
writes land between batches, and holds it to the scalar oracle.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import ShardedStat4, deploy_cluster
from repro.p4.packet import HeaderType, ParsedPacket
from repro.p4.switch import PacketContext, StandardMetadata
from repro.p4.tables import Table
from repro.stat4 import (
    BatchEngine,
    BindingHandle,
    BindingMatch,
    ExtractSpec,
    MATCH_ALL,
    PacketBatch,
    Stat4,
    Stat4Config,
    Stat4Runtime,
    build_binding_table,
)
from repro.stat4.batch import MEMO_LIMIT, _runs_of
from tests.cluster.test_sharded import make_trace
from tests.numpy_paths import NUMPY_MODES, numpy_mode
from tests.stat4.test_batch_differential import assert_equal_state, process_scalar

ETH = HeaderType("ethernet", [("ether_type", 16)])
IPV4 = HeaderType("ipv4", [("dst", 32), ("protocol", 8)])
TCP = HeaderType("tcp", [("sport", 16), ("flags", 8)])


@pytest.fixture
def match_calls(monkeypatch):
    """Counts every ``Table.match`` call while the test runs."""
    calls = []
    original = Table.match

    def counting(table, key_values):
        calls.append(key_values)
        return original(table, key_values)

    monkeypatch.setattr(Table, "match", counting)
    return calls


def frequency_stat4(stages=1):
    stat4 = Stat4(Stat4Config(counter_num=4, counter_size=64, binding_stages=stages))
    runtime = Stat4Runtime(stat4)
    spec = runtime.frequency_of(0, ExtractSpec.field("ipv4.dst", mask=0x3F))
    handle, _ = runtime.bind(0, BindingMatch(ether_type=0x0800), spec)
    return stat4, runtime, handle


def column_batch(dsts, start=0.0):
    """A synthetic batch of IPv4/UDP packets to ``dsts``."""
    return PacketBatch(
        [start + i * 1e-4 for i in range(len(dsts))],
        [(0x0800, dst, 17, 0) for dst in dsts],
        columns={"ipv4.dst": list(dsts)},
    )


class TestMemoLifetime:
    def test_a_repeat_batch_makes_no_match_calls(self, match_calls):
        stat4, _runtime, _handle = frequency_stat4()
        engine = BatchEngine(stat4)
        engine.process(column_batch([1, 2, 3, 2, 1]))
        assert len(match_calls) == 3
        engine.process(column_batch([3, 1, 1]))
        assert len(match_calls) == 3
        engine.process(column_batch([4]))
        assert len(match_calls) == 4
        table = stat4.binding_tables[0]
        assert (table.lookups, table.hits) == (9, 9)

    def test_a_table_write_clears_the_memo(self, match_calls):
        stat4, runtime, handle = frequency_stat4()
        engine = BatchEngine(stat4)
        engine.process(column_batch([1, 2]))
        runtime.rebind(handle, spec=replace(handle.spec, k_sigma=2))
        engine.process(column_batch([1, 2]))
        assert len(match_calls) == 4
        assert stat4.state_of(0).spec.k_sigma == 2

    def test_a_replaced_binding_table_invalidates_the_memo(self, match_calls):
        # The new table has the old one's version (one add each), so only
        # its identity tells the engine that the entries changed.
        stat4, runtime, _handle = frequency_stat4()
        engine = BatchEngine(stat4)
        engine.process(column_batch([1, 2]))
        old = stat4.binding_tables[0]
        stat4.binding_tables[0] = build_binding_table(0)
        replacement = runtime.frequency_of(1, ExtractSpec.field("ipv4.dst", mask=0x3))
        runtime.bind(0, MATCH_ALL, replacement)
        assert stat4.binding_tables[0].version == old.version
        engine.process(column_batch([1, 2, 5]))
        assert len(match_calls) == 5
        assert stat4.read_cells(1)[:3] == [0, 2, 1]
        assert stat4.binding_tables[0].lookups == 3
        assert old.lookups == 2

    def test_the_memo_never_outgrows_its_cap(self):
        stat4, _runtime, _handle = frequency_stat4()
        engine = BatchEngine(stat4)
        rng = random.Random(4)
        sizes = []
        for index in range(50):
            dsts = [rng.getrandbits(32) for _ in range(2048)]
            engine.process(column_batch(dsts, start=index))
            sizes.append(len(engine._memo))
            assert sizes[-1] <= MEMO_LIMIT
        assert max(sizes) > MEMO_LIMIT - 2048  # it filled up, and was cleared
        table = stat4.binding_tables[0]
        assert (table.lookups, table.hits) == (50 * 2048, 50 * 2048)

    def test_a_batch_wider_than_the_cap_resolves_aside(self):
        stat4, _runtime, _handle = frequency_stat4()
        engine = BatchEngine(stat4)
        dsts = list(range(MEMO_LIMIT + 5))
        result = engine.process(column_batch(dsts))
        assert result.kernels == {"frequency_fast": len(dsts)}
        assert len(engine._memo) == 0


class TestRuns:
    def test_one_stage_one_spec_is_one_run_over_the_merged_groups(self):
        spec = SPECS[0]
        (run,) = _runs_of([([0, 3], 1, spec), ([1, 2], 1, spec)], range(5))
        assert (run.spec, run.packets, run.stage) == (spec, [0, 1, 2, 3], 1)
        (whole,) = _runs_of([([0, 3], 0, spec), ([1, 2], 0, spec)], range(4))
        assert whole.packets == range(4)
        assert whole.pick(["a", "b", "c", "d"]) == ["a", "b", "c", "d"]
        # Over a row subset, the merged run is the rows themselves.
        rows = [1, 2, 4, 6]
        (subset,) = _runs_of([([1, 6], 0, spec), ([2, 4], 0, spec)], rows)
        assert subset.packets is rows
        assert subset.pick("abcdefg") == ["b", "c", "e", "g"]

    def test_two_stages_with_one_spec_interleave_on_packet_then_stage(self):
        spec = SPECS[0]
        (run,) = _runs_of([(range(3), 0, spec), (range(3), 1, spec)], range(3))
        assert run.packets == [0, 0, 1, 1, 2, 2]
        assert run.stage == [0, 1, 0, 1, 0, 1]
        assert [run.event(j) for j in range(6)] == [
            (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)
        ]
        assert run.pick("xyz") == ["x", "x", "y", "y", "z", "z"]

    def test_every_change_of_spec_starts_a_run(self):
        a, b = SPECS[0], SPECS[1]
        runs = _runs_of([([0, 2], 0, a), ([1, 2, 3], 1, b)], range(4))
        assert [(run.spec, run.packets, run.stage) for run in runs] == [
            (a, [0], [0]),
            (b, [1], [1]),
            (a, [2], [0]),
            (b, [2, 3], [1, 1]),
        ]

    def test_equal_specs_share_a_run(self):
        a = SPECS[0]
        copy = replace(a)
        assert copy is not a and copy == a
        runs = _runs_of([([0], 0, a), ([1], 0, SPECS[1]), ([2], 0, copy)], range(3))
        assert [(run.packets, run.stage) for run in runs] == [
            ([0], 0),
            ([1], 0),
            ([2], 0),
        ]
        (run,) = _runs_of([([0, 2], 0, a), ([1], 0, copy)], range(4))
        assert (run.spec, run.packets) == (a, [0, 1, 2])


class TestOneEnginePerDetector:
    def build_cluster(self):
        cluster = ShardedStat4(3, config=Stat4Config(counter_num=2, counter_size=256))
        spec = cluster.specs.frequency_of(0, ExtractSpec.field("ipv4.dst", mask=0xFF))
        handles = cluster.bind(0, BindingMatch(ether_type=0x0800), spec)
        return cluster, handles

    def rebind_all(self, cluster, handles):
        for runtime, handle in zip(cluster.runtimes, handles):
            runtime.rebind(handle, spec=handle.spec)

    def test_sharded_ingest_keeps_one_engine_per_shard(self, match_calls):
        cluster, handles = self.build_cluster()
        contexts = make_trace(packets=400)
        cluster.ingest(PacketBatch.from_contexts(contexts))
        resolved = len(match_calls)
        assert resolved > 0
        cluster.ingest(PacketBatch.from_contexts(contexts))
        assert len(match_calls) == resolved
        self.rebind_all(cluster, handles)
        cluster.ingest(PacketBatch.from_contexts(contexts))
        assert len(match_calls) == 2 * resolved

    def test_deployed_cluster_ingest_keeps_one_engine_per_shard(self, match_calls):
        cluster, handles = self.build_cluster()
        deployment = deploy_cluster(cluster)
        contexts = make_trace(packets=400)
        deployment.ingest(PacketBatch.from_contexts(contexts))
        resolved = len(match_calls)
        deployment.ingest(PacketBatch.from_contexts(contexts))
        assert len(match_calls) == resolved
        self.rebind_all(cluster, handles)
        deployment.ingest(PacketBatch.from_contexts(contexts))
        assert len(match_calls) == 2 * resolved


# -- the control-plane differential -----------------------------------------------


def make_ctx(now, ether_type, dst=None, protocol=17, flags=None):
    parsed = ParsedPacket()
    parsed.add("ethernet", ETH.instance(ether_type=ether_type))
    if dst is not None:
        parsed.add("ipv4", IPV4.instance(dst=dst, protocol=protocol))
    if flags is not None:
        parsed.add("tcp", TCP.instance(sport=1000, flags=flags))
    ctx = PacketContext(
        parsed=parsed, meta=StandardMetadata(ingress_port=0, timestamp=now)
    )
    ctx.user["frame_bytes"] = 64
    return ctx


def control_trace(rng, packets):
    """Packets whose keys land in overlapping prefixes, protocols and flags:
    10.{0,1,2}.{0,1}.x destinations, TCP with one of three flag sets or
    UDP, some IPv4-typed frames with no IPv4 header (matched, value-free)
    and some IPv6-typed ones."""
    now = 0.0
    contexts = []
    for _ in range(packets):
        now += rng.random() * 0.002
        roll = rng.random()
        if roll < 0.85:
            dst = 0x0A000000 | rng.randrange(3) << 16 | rng.randrange(2) << 8
            dst |= rng.randrange(64)
            if rng.random() < 0.5:
                flags = rng.choice((0x02, 0x10, 0x12))
                contexts.append(make_ctx(now, 0x0800, dst, protocol=6, flags=flags))
            else:
                contexts.append(make_ctx(now, 0x0800, dst))
        elif roll < 0.93:
            contexts.append(make_ctx(now, 0x0800))
        else:
            contexts.append(make_ctx(now, 0x86DD))
    return contexts


#: The entries' matches: ternary EtherType, protocol and flags, and LPM
#: destinations nested /8 ⊃ /16 ⊃ /24, so most keys match several.
MATCHES = [
    MATCH_ALL,
    BindingMatch(ether_type=0x0800),
    BindingMatch(ether_type=0x0800, dst_prefix=(0x0A000000, 8)),
    BindingMatch(ether_type=0x0800, dst_prefix=(0x0A010000, 16)),
    BindingMatch(dst_prefix=(0x0A010100, 24)),
    BindingMatch(protocol=6),
    BindingMatch(tcp_flags=(0x02, 0x02)),
    BindingMatch(ether_type=0x86DD),
]


def spec_pool():
    """Specs of every kernel: slots 0-2 dense, slot 3 sparse."""
    build = Stat4Runtime()
    dst = ExtractSpec.field("ipv4.dst", mask=0x3F)
    pool = []
    for dist in range(3):
        pool += [
            build.frequency_of(dist, dst),
            build.frequency_of(dist, dst, percent=50),
            build.frequency_of(dist, dst, k_sigma=2, min_samples=3, cooldown=0.01),
            build.frequency_of(
                dist,
                dst,
                k_sigma=1,
                percent=50,
                percentile_alert="moved",
                min_samples=3,
            ),
            build.rate_over_time(
                dist, interval=0.01, k_sigma=2, min_samples=3, window=8
            ),
        ]
    pool.append(
        build.sparse_frequency_of(
            3, ExtractSpec.field("ipv4.dst"), k_sigma=2, min_samples=3
        )
    )
    return pool


SPECS = spec_pool()


def control_detector():
    """Two stages; both feed slot 0, with one spec (stage 0's /8 entry and
    stage 1's catch-all) and with another (stage 1's SYN entry).  Stage 0
    ranks a ternary protocol entry over two nested LPM ones; stage 1 a
    SYN entry over a sparse /24 one over the catch-all."""
    config = Stat4Config(
        counter_num=4,
        counter_size=64,
        binding_stages=2,
        sparse_dists=(3,),
        sparse_slots=8,
    )
    stat4 = Stat4(config)
    runtime = Stat4Runtime(stat4)
    shared = SPECS[0]
    runtime.bind(0, MATCHES[2], shared, priority=1)
    runtime.bind(0, MATCHES[3], SPECS[9], priority=1)
    runtime.bind(0, MATCHES[5], SPECS[12], priority=4)
    runtime.bind(1, MATCH_ALL, shared)
    runtime.bind(1, MATCHES[6], SPECS[3], priority=3)
    runtime.bind(1, MATCHES[4], SPECS[-1], priority=2)
    return stat4, runtime


def random_write(rng):
    """One control-plane write, drawn as a function of (stat4, runtime);
    applied to both detectors it leaves equal tables."""
    stage = rng.randrange(2)
    kind = rng.choice(
        ["add", "add", "spec", "match", "priority", "delete"]
        + ["rebind", "unbind", "clear"]
    )
    spec = rng.choice(SPECS)
    match = rng.choice(MATCHES)
    priority = rng.randrange(6)
    pick = rng.random()

    def apply(stat4, runtime):
        table = stat4.binding_tables[stage]
        entries = table.entries()
        if kind == "add" or not entries:
            runtime.bind(stage, match, spec, priority=priority)
            return
        entry = entries[int(pick * len(entries))]
        handle = BindingHandle(stage, entry.entry_id, entry.params["spec"], match)
        if kind == "spec":
            table.modify_entry(entry.entry_id, params={"spec": spec})
        elif kind == "match":
            table.modify_entry(entry.entry_id, matches=match.to_matches())
        elif kind == "priority":
            table.modify_entry(entry.entry_id, priority=priority)
        elif kind == "delete":
            table.delete_entry(entry.entry_id)
        elif kind == "rebind":
            runtime.rebind(handle, priority=priority if pick < 0.5 else None)
        elif kind == "unbind":
            runtime.unbind(handle)
        else:
            table.clear()

    return apply


@pytest.mark.parametrize("mode", NUMPY_MODES)
@settings(deadline=None, max_examples=10)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@example(seed=1)
def test_writes_between_batches_equal_the_scalar_oracle(mode, seed):
    rng = random.Random(seed)
    contexts = control_trace(rng, 3_000)
    scalar, scalar_runtime = control_detector()
    batched, batched_runtime = control_detector()
    engine = BatchEngine(batched)
    scalar_digests = []
    batched_digests = []
    index = 0
    while index < len(contexts):
        size = rng.choice([1, 2, rng.randrange(1, 64), rng.randrange(1, 400)])
        chunk = contexts[index : index + size]
        index += size
        scalar_digests += process_scalar(scalar, chunk)
        with numpy_mode(mode):
            batched_digests += engine.process(PacketBatch.from_contexts(chunk)).digests
        for _ in range(rng.choice([0, 0, 1, 2])):
            write = random_write(rng)
            write(scalar, scalar_runtime)
            write(batched, batched_runtime)
    assert_equal_state(scalar, batched, scalar_digests, batched_digests)
