"""Differential tests: the K-shard merge is bit-identical to one switch.

The tentpole guarantee of :mod:`repro.cluster`: for any trace, routing the
packets across K shards and merging the per-shard state reproduces exactly
the registers a single switch that saw the whole trace holds — per
distribution kind, under that kind's documented exactness condition (see
the :mod:`repro.cluster.sharded` module docstring):

- **frequency** (dense, tracked percentile): merged cells, recomputed
  moments and the derived percentile equal the oracle's for *any* traffic
  split — counting is order-independent.
- **time_series**: bit-identity needs the slot's traffic owned by one
  shard, which the key-hash router guarantees for a single binding key;
  the trace therefore keeps the key fields constant.
- **sparse_frequency**: exact while nothing evicted; the trace keeps the
  key domain well under the slot budget so evictions cannot occur, and the
  test asserts the eviction counters stayed zero.

Hypothesis draws the seed; each seed expands deterministically into the
trace, and every scenario runs with numpy's optional array paths on and
hidden, at several cluster sizes.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import ShardedStat4
from repro.controller.aggregate import percentile_of_cells
from repro.p4.packet import HeaderType, ParsedPacket
from repro.p4.switch import PacketContext, StandardMetadata
from repro.stat4 import (
    MATCH_ALL,
    BindingMatch,
    ExtractSpec,
    PacketBatch,
    Stat4,
    Stat4Config,
    Stat4Runtime,
)
from tests.numpy_paths import NUMPY_MODES, numpy_mode

SHARD_COUNTS = [2, 3, 4, 8]

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


def spread_trace(seed, packets=3_000, dst_domain=512):
    """Many destinations → many binding keys → traffic on every shard."""
    rng = random.Random(seed)
    now = 0.0
    contexts = []
    for _ in range(packets):
        now += rng.random() * 0.001
        contexts.append(make_ctx(now, dst=rng.randrange(dst_domain)))
    return contexts


def single_key_trace(seed, packets=3_000):
    """One binding key → one owner shard (time-series exactness condition)."""
    rng = random.Random(seed)
    now = 0.0
    contexts = []
    for _ in range(packets):
        now += rng.random() * 0.004
        if rng.random() < 0.03:
            now += 0.05  # silent gap — exercises the interval snap
        contexts.append(make_ctx(now, dst=7))
    return contexts


def ingest_chunked(cluster, contexts, mode, seed):
    rng = random.Random(seed ^ 0x5A4D)
    index = 0
    with numpy_mode(mode):
        while index < len(contexts):
            size = rng.randrange(1, 1024)
            cluster.ingest(PacketBatch.from_contexts(contexts[index : index + size]))
            index += size


def assert_measures_equal(merged, oracle, dist):
    expected = oracle.read_measures(dist)
    for name, got in merged.measures().items():
        assert got == expected[name], f"{name}: merged={got} oracle={expected[name]}"


@pytest.mark.parametrize("mode", NUMPY_MODES)
@settings(deadline=None, max_examples=2)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    shards=st.sampled_from(SHARD_COUNTS),
)
@example(seed=0, shards=4)
def test_frequency_merge_equals_oracle(mode, seed, shards):
    config = Stat4Config(counter_num=2, counter_size=512, binding_stages=1)
    match = BindingMatch(ether_type=0x0800)

    def provision(runtime):
        spec = runtime.frequency_of(
            0, ExtractSpec.field("ipv4.dst", mask=0x1FF), percent=50
        )
        return spec, match

    oracle = Stat4(config)
    spec, _ = provision(Stat4Runtime(oracle))
    Stat4Runtime(oracle).bind(0, match, spec)
    contexts = spread_trace(seed)
    for ctx in contexts:
        oracle.process(ctx)

    cluster = ShardedStat4(shards, config=config)
    cluster.bind(0, match, spec)
    ingest_chunked(cluster, contexts, mode, seed)

    merged = cluster.merged(0)
    assert merged.exact
    assert merged.cells == oracle.read_cells(0)
    assert_measures_equal(merged, oracle, 0)
    assert merged.percentile == percentile_of_cells(oracle.read_cells(0), 50)
    assert sum(cluster.shard_loads()) == len(contexts)


@pytest.mark.parametrize("mode", NUMPY_MODES)
@settings(deadline=None, max_examples=2)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    shards=st.sampled_from(SHARD_COUNTS),
)
@example(seed=0, shards=4)
def test_time_series_merge_equals_oracle(mode, seed, shards):
    config = Stat4Config(counter_num=2, counter_size=64, binding_stages=1)

    def build_spec(runtime):
        return runtime.rate_over_time(
            0, interval=0.01, k_sigma=2, min_samples=3, window=16
        )

    oracle = Stat4(config)
    Stat4Runtime(oracle).bind(0, MATCH_ALL, build_spec(Stat4Runtime(oracle)))
    contexts = single_key_trace(seed)
    for ctx in contexts:
        oracle.process(ctx)
        ctx.digests.clear()  # contexts are shared with the cluster side

    cluster = ShardedStat4(shards, config=config)
    cluster.bind(0, MATCH_ALL, build_spec(cluster.specs))
    ingest_chunked(cluster, contexts, mode, seed)

    # All packets share one binding key, so exactly one shard saw traffic.
    assert sorted(cluster.shard_loads(), reverse=True)[1:] == [0] * (shards - 1)
    merged = cluster.merged(0)
    assert merged.exact
    assert merged.cells == oracle.read_cells(0)
    assert_measures_equal(merged, oracle, 0)


@pytest.mark.parametrize("mode", NUMPY_MODES)
@settings(deadline=None, max_examples=2)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    shards=st.sampled_from(SHARD_COUNTS),
)
@example(seed=0, shards=4)
def test_sparse_merge_equals_oracle(mode, seed, shards):
    # 24 distinct keys against 64 slots × 2 stages: evictions cannot occur,
    # so the merge's exactness condition holds by construction.
    config = Stat4Config(
        counter_num=2, counter_size=64, binding_stages=1, sparse_dists=(0,)
    )
    match = BindingMatch(ether_type=0x0800)

    oracle = Stat4(config)
    spec = Stat4Runtime(oracle).sparse_frequency_of(0, ExtractSpec.field("ipv4.dst"))
    Stat4Runtime(oracle).bind(0, match, spec)
    contexts = spread_trace(seed, dst_domain=24)
    for ctx in contexts:
        oracle.process(ctx)

    cluster = ShardedStat4(shards, config=config)
    cluster.bind(0, match, spec)
    ingest_chunked(cluster, contexts, mode, seed)

    assert oracle.sparse_cells[0].evictions == 0
    merged = cluster.merged(0)
    assert merged.exact  # zero evictions summed across all shards
    assert merged.items == sorted(oracle.read_sparse_items(0))
    assert_measures_equal(merged, oracle, 0)
