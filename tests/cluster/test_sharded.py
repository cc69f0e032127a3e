"""Unit tests for the in-process sharded engine (routing, merging)."""

import random

import pytest

from repro.controller.aggregate import percentile_of_cells
from repro.core.stats import ScaledStats
from repro.cluster import MergedDistribution, ShardedStat4
from repro.p4.packet import HeaderType, ParsedPacket
from repro.p4.switch import PacketContext, StandardMetadata
from repro.stat4 import (
    BindingMatch,
    ExtractSpec,
    PacketBatch,
    Stat4,
    Stat4Config,
    Stat4Runtime,
)
from repro.stat4.binding import binding_key_of
from repro.stat4.distributions import DistributionKind

ETH = HeaderType("ethernet", [("ether_type", 16)])
IPV4 = HeaderType("ipv4", [("dst", 32), ("protocol", 8)])


def make_ctx(now, dst, ether_type=0x0800, protocol=6):
    parsed = ParsedPacket()
    parsed.add("ethernet", ETH.instance(ether_type=ether_type))
    parsed.add("ipv4", IPV4.instance(dst=dst, protocol=protocol))
    ctx = PacketContext(
        parsed=parsed, meta=StandardMetadata(ingress_port=0, timestamp=now)
    )
    ctx.user["frame_bytes"] = 64
    return ctx


def make_trace(packets=600, seed=0, dst_domain=256):
    rng = random.Random(seed)
    return [
        make_ctx(index * 0.0005, dst=rng.randrange(dst_domain))
        for index in range(packets)
    ]


CONFIG = Stat4Config(counter_num=2, counter_size=256, binding_stages=1)


def build_cluster(shards, config=CONFIG):
    cluster = ShardedStat4(shards, config=config)
    spec = cluster.specs.frequency_of(
        0, ExtractSpec.field("ipv4.dst", mask=0xFF), percent=50
    )
    cluster.bind(0, BindingMatch(ether_type=0x0800), spec)
    return cluster


class TestConstruction:
    def test_rejects_nonpositive_shards(self):
        with pytest.raises(ValueError):
            ShardedStat4(0)
        with pytest.raises(ValueError):
            ShardedStat4(-1)

    def test_bind_installs_on_every_shard(self):
        cluster = build_cluster(4)
        assert len(cluster.nodes) == 4
        spec = cluster.spec_of(0)
        handles = cluster.bind(0, BindingMatch(ether_type=0x86DD), spec, priority=1)
        assert len(handles) == 4

    def test_spec_of_unbound_raises(self):
        with pytest.raises(KeyError):
            ShardedStat4(2).spec_of(0)

    def test_merged_unbound_raises(self):
        with pytest.raises(KeyError):
            build_cluster(2).merged(1)


class TestRoute:
    def test_partition_covers_every_row_once(self):
        cluster = build_cluster(4)
        contexts = make_trace()
        batch = PacketBatch.from_contexts(contexts)
        routed = cluster.route(batch)
        assert sum(len(sub) for sub in routed.values()) == len(batch)
        assert set(routed) <= set(range(4))
        # Each sub-batch holds exactly the owner's keys, in arrival order.
        for shard, sub in routed.items():
            assert all(cluster.shard_of_key(key) == shard for key in sub.keys)
        expected_order = {shard: [] for shard in routed}
        for key in batch.keys:
            expected_order[cluster.shard_of_key(key)].append(key)
        for shard, sub in routed.items():
            assert list(sub.keys) == expected_order[shard]

    def test_single_shard_shortcut(self):
        cluster = build_cluster(1)
        batch = PacketBatch.from_contexts(make_trace(packets=8))
        routed = cluster.route(batch)
        assert list(routed) == [0]
        assert routed[0] is batch
        assert cluster.route(PacketBatch.from_contexts([])) == {}

    def test_scalar_process_agrees_with_router(self):
        router = build_cluster(4)
        scalar = build_cluster(4)
        for ctx in make_trace(packets=64):
            expected = router.shard_of_key(binding_key_of(ctx))
            assert scalar.process(ctx) == expected

    def test_hash_seed_changes_assignment(self):
        base = ShardedStat4(4, config=CONFIG, hash_seed=0)
        reshuffled = ShardedStat4(4, config=CONFIG, hash_seed=1)
        keys = [binding_key_of(ctx) for ctx in make_trace(packets=128)]
        assert any(
            base.shard_of_key(key) != reshuffled.shard_of_key(key) for key in keys
        )


class TestIngest:
    def test_counts_and_loads(self):
        cluster = build_cluster(4)
        contexts = make_trace()
        result = cluster.ingest(PacketBatch.from_contexts(contexts))
        assert result.packets == len(contexts)
        assert cluster.packets_routed == len(contexts)
        assert sum(cluster.shard_loads()) == len(contexts)
        assert set(result.per_shard) <= set(range(4))
        # With 256 destinations over 4 shards every shard gets traffic.
        assert all(load > 0 for load in cluster.shard_loads())

    def test_digests_tagged_with_shard(self):
        cluster = ShardedStat4(4, config=CONFIG)
        spec = cluster.specs.frequency_of(
            0, ExtractSpec.field("ipv4.dst", mask=0xFF), k_sigma=2, min_samples=3
        )
        cluster.bind(0, BindingMatch(ether_type=0x0800), spec)
        contexts = make_trace(packets=200, dst_domain=64)
        contexts.extend(make_ctx(0.2 + i * 0.0005, dst=3) for i in range(400))
        result = cluster.ingest(PacketBatch.from_contexts(contexts))
        assert result.alerts == len(result.digests)
        for shard, digest in result.digests:
            assert shard in result.per_shard
            assert digest.name

    def test_multi_worker_ingest_bit_identical_to_serial(self):
        # Shards are shared-nothing, so fanning them onto a thread pool and
        # collecting in sorted shard order must leave every shard's
        # registers, counters, and digest list exactly as the serial loop.
        contexts = make_trace(packets=800)
        serial = build_cluster(4)
        fanned = build_cluster(4)
        result_serial = serial.ingest(PacketBatch.from_contexts(contexts))
        result_fanned = fanned.ingest(
            PacketBatch.from_contexts(contexts), workers=4
        )
        assert result_fanned.packets == result_serial.packets
        assert result_fanned.per_shard == result_serial.per_shard
        assert result_fanned.alerts == result_serial.alerts
        assert [
            (shard, d.name, d.fields, d.timestamp)
            for shard, d in result_fanned.digests
        ] == [
            (shard, d.name, d.fields, d.timestamp)
            for shard, d in result_serial.digests
        ]
        for node_a, node_b in zip(serial.nodes, fanned.nodes):
            for reg_a, reg_b in zip(node_a.registers, node_b.registers):
                assert reg_a.peek() == reg_b.peek(), reg_a.name
        assert serial.merged_measures(0) == fanned.merged_measures(0)

    def test_workers_on_single_shard_stays_serial(self):
        # One shard means nothing to fan out; workers>1 must be harmless.
        cluster = build_cluster(1)
        result = cluster.ingest(
            PacketBatch.from_contexts(make_trace(packets=64)), workers=4
        )
        assert result.packets == 64

    def test_merged_frequency_equals_single_switch(self):
        contexts = make_trace()
        oracle = Stat4(CONFIG)
        runtime = Stat4Runtime(oracle)
        spec = runtime.frequency_of(
            0, ExtractSpec.field("ipv4.dst", mask=0xFF), percent=50
        )
        runtime.bind(0, BindingMatch(ether_type=0x0800), spec)
        for ctx in contexts:
            oracle.process(ctx)
        cluster = build_cluster(4)
        cluster.ingest(PacketBatch.from_contexts(contexts))
        merged = cluster.merged(0)
        assert merged.kind is DistributionKind.FREQUENCY
        assert merged.cells == oracle.read_cells(0)
        expected = oracle.read_measures(0)
        for name, got in merged.measures().items():
            assert got == expected[name], name
        assert merged.percentile == percentile_of_cells(oracle.read_cells(0), 50)
        assert cluster.merged_measures(0) == merged.measures()


class TestMergedDistribution:
    def test_exact_iff_no_evictions(self):
        merged = MergedDistribution(
            dist=0, kind=DistributionKind.SPARSE_FREQUENCY, stats=ScaledStats()
        )
        assert merged.exact
        merged.evictions = 3
        assert not merged.exact

    def test_measures_shape_excludes_percentile_pos(self):
        merged = MergedDistribution(
            dist=0, kind=DistributionKind.FREQUENCY, stats=ScaledStats()
        )
        assert set(merged.measures()) == {"n", "xsum", "xsumsq", "variance", "stddev"}
