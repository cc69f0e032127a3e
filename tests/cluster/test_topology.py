"""Tests for deploying a sharded cluster into the simulated network."""

import pytest

from repro.cluster import ShardedStat4, deploy_cluster
from repro.stat4 import BindingMatch, ExtractSpec, PacketBatch

from tests.cluster.test_sharded import CONFIG, make_ctx, make_trace


def build_deployed(shards=4, with_measures=True, **kwargs):
    cluster = ShardedStat4(shards, config=CONFIG)
    spec = cluster.specs.frequency_of(
        0, ExtractSpec.field("ipv4.dst", mask=0xFF), percent=50
    )
    cluster.bind(0, BindingMatch(ether_type=0x0800), spec)
    return deploy_cluster(cluster, with_measures=with_measures, **kwargs)


class TestDeploy:
    def test_one_switch_per_shard(self):
        deployment = build_deployed(shards=3)
        assert [switch.name for switch in deployment.switches] == [
            "shard0",
            "shard1",
            "shard2",
        ]
        assert set(deployment.controller.switch_ports) == {
            "shard0",
            "shard1",
            "shard2",
        }

    def test_switches_share_the_cluster_stat4s(self):
        deployment = build_deployed()
        batch = PacketBatch.from_contexts(make_trace(packets=300))
        deployment.ingest(batch)
        assert sum(deployment.cluster.shard_loads()) == len(batch)

    def test_name_prefix(self):
        deployment = build_deployed(shards=2, name_prefix="sw")
        assert deployment.switches[0].name == "sw0"
        assert deployment.network.node("sw1") is deployment.switches[1]


class TestCollect:
    def test_merged_equals_in_process_engine(self):
        contexts = make_trace()
        deployment = build_deployed()
        deployment.ingest(PacketBatch.from_contexts(contexts))
        deployment.network.run()

        reference = ShardedStat4(4, config=CONFIG)
        spec = reference.specs.frequency_of(
            0, ExtractSpec.field("ipv4.dst", mask=0xFF), percent=50
        )
        reference.bind(0, BindingMatch(ether_type=0x0800), spec)
        reference.ingest(PacketBatch.from_contexts(contexts))

        collected = deployment.collect()
        assert set(collected) == {switch.name for switch in deployment.switches}
        merged = reference.merged(0)
        controller = deployment.controller
        assert controller.global_counts == merged.cells
        stats = controller.global_stats()
        assert (stats.count, stats.xsum, stats.xsumsq) == (
            merged.stats.count,
            merged.stats.xsum,
            merged.stats.xsumsq,
        )
        # The moment-sum route agrees because the key hash gives every
        # destination a single owner shard (no cross terms to drop).
        summed = controller.merged_measures()
        assert (summed.count, summed.xsum, summed.xsumsq) == (
            merged.stats.count,
            merged.stats.xsum,
            merged.stats.xsumsq,
        )

    def test_merged_measures_requires_with_measures(self):
        deployment = build_deployed(with_measures=False)
        deployment.ingest(PacketBatch.from_contexts(make_trace(packets=100)))
        deployment.network.run()
        deployment.collect()
        with pytest.raises(RuntimeError):
            deployment.controller.merged_measures()

    def test_digests_ride_the_control_channel(self):
        cluster = ShardedStat4(4, config=CONFIG)
        spec = cluster.specs.frequency_of(
            0, ExtractSpec.field("ipv4.dst", mask=0xFF), k_sigma=2, min_samples=3
        )
        cluster.bind(0, BindingMatch(ether_type=0x0800), spec)
        deployment = deploy_cluster(cluster, control_delay=0.001)
        contexts = make_trace(packets=200, dst_domain=64)
        contexts.extend(make_ctx(0.2 + i * 0.0005, dst=3) for i in range(400))
        result = deployment.ingest(PacketBatch.from_contexts(contexts))
        assert result.alerts > 0
        before = len(deployment.controller.alerts)
        deployment.network.run()
        assert len(deployment.controller.alerts) == before + result.alerts
        # Each digest leaves its own shard's switch, in the cluster's order.
        pushed = deployment.controller.alerts[before:]
        assert [(switch, digest) for _, switch, digest in pushed] == [
            (f"shard{shard}", digest) for shard, digest in result.digests
        ]
