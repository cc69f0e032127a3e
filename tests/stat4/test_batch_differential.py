"""Differential tests: batched ingestion is bit-identical to the scalar path.

The tentpole guarantee of :mod:`repro.stat4.batch`: for any trace, feeding
it through :class:`BatchEngine` (in arbitrary chunk sizes, with numpy's
optional array paths on or hidden) leaves *exactly* the state the scalar
``Stat4.process`` loop leaves — equal ``Stat4.snapshot()``s, which hold
every register cell and every working-state field, σ's cache and the
tracker's position included — and every digest in the same order with
the same fields.  Hypothesis generates the traces; a seed expands
deterministically into a ≥10k-packet mixture of matching, non-matching,
value-free and out-of-domain packets for every DistributionKind.

What the snapshot leaves out, and why, is named in one place:
``repro.stat4.library.SNAPSHOT_EXCLUDED`` (documented in
``docs/BENCHMARKS.md``).
"""

import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.p4.packet import HeaderType, ParsedPacket
from repro.p4.switch import PacketContext, StandardMetadata
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
from repro.stat4.library import diff
from tests.numpy_paths import NUMPY_MODES, numpy_mode

TRACE_PACKETS = 10_000

# Synthetic header types carrying exactly the fields binding_key_of and the
# extract specs read — building contexts directly is ~20x faster than
# packing and re-parsing bytes, which keeps 10k-packet traces cheap.
ETH = HeaderType("ethernet", [("ether_type", 16)])
IPV4 = HeaderType("ipv4", [("dst", 32), ("protocol", 8)])
TCP = HeaderType("tcp", [("sport", 16), ("flags", 8)])


def make_ctx(now, ether_type=None, dst=None, protocol=6, tcp_sport=None):
    parsed = ParsedPacket()
    if ether_type is not None:
        parsed.add("ethernet", ETH.instance(ether_type=ether_type))
    if dst is not None:
        parsed.add("ipv4", IPV4.instance(dst=dst, protocol=protocol))
    if tcp_sport is not None:
        parsed.add("tcp", TCP.instance(sport=tcp_sport, flags=0x02))
    ctx = PacketContext(
        parsed=parsed, meta=StandardMetadata(ingress_port=0, timestamp=now)
    )
    ctx.user["frame_bytes"] = 64
    return ctx


def generate_trace(seed, packets=TRACE_PACKETS):
    """Expand a seed into an adversarial mixed trace.

    ~80% IPv4 packets with a dst drawn from twice the cell domain (so the
    value mask keeps some, drops some), ~10% matching packets with no IPv4
    header at all (matched-but-value-free), ~10% non-matching EtherTypes.
    Timestamps increase with jitter; occasional large gaps exercise the
    time-series silent-gap snap.
    """
    rng = random.Random(seed)
    now = 0.0
    contexts = []
    for _ in range(packets):
        now += rng.random() * 0.003
        if rng.random() < 0.02:
            now += 0.05  # silent gap
        roll = rng.random()
        if roll < 0.80:
            contexts.append(
                make_ctx(
                    now,
                    ether_type=0x0800,
                    dst=rng.randrange(1024),
                    tcp_sport=rng.randrange(1 << 16),
                )
            )
        elif roll < 0.90:
            # Matches an ether-only binding but carries no IPv4 header:
            # the extracted value is None.
            contexts.append(make_ctx(now, ether_type=0x0800))
        else:
            contexts.append(make_ctx(now, ether_type=0x86DD, dst=rng.randrange(64)))
    return contexts


def process_scalar(stat4, contexts):
    digests = []
    for ctx in contexts:
        stat4.process(ctx)
        digests.extend(ctx.digests)
        ctx.digests.clear()  # contexts are shared with the batched side
    return digests


def process_batched(stat4, contexts, mode, seed):
    with numpy_mode(mode):
        return feed_batches(BatchEngine(stat4), contexts, seed)


def feed_batches(engine, contexts, seed):
    """Feed ``contexts`` to ``engine`` in seeded random batch sizes."""
    rng = random.Random(seed ^ 0xBA7C4)
    digests = []
    index = 0
    while index < len(contexts):
        size = rng.randrange(1, 2048)
        chunk = contexts[index : index + size]
        result = engine.process(PacketBatch.from_contexts(chunk))
        digests.extend(result.digests)
        index += size
    return digests


def assert_equal_state(scalar, batched, scalar_digests, batched_digests):
    assert diff(scalar.snapshot(), batched.snapshot()) == []
    assert [
        (digest.name, digest.fields, digest.timestamp) for digest in scalar_digests
    ] == [
        (digest.name, digest.fields, digest.timestamp) for digest in batched_digests
    ], "digest sequences differ"


SCENARIOS = {}


def scenario(name):
    def register(build):
        SCENARIOS[name] = build
        return build

    return register


@scenario("frequency")
def _frequency_scenario():
    """Plain dense counting — exercises the batched counting kernel."""
    config = Stat4Config(counter_num=4, counter_size=256, binding_stages=1)
    stat4 = Stat4(config)
    runtime = Stat4Runtime(stat4)
    spec = runtime.frequency_of(0, ExtractSpec.field("ipv4.dst", mask=0x1FF))
    runtime.bind(0, BindingMatch(ether_type=0x0800), spec)
    return stat4


@scenario("percentile")
def _percentile_scenario():
    """Tracked median, no alerts — the generated loop (``exact_loop``).

    The loop walks the tracker one observe or tick per packet, as the
    scalar path does; it must land on the scalar tracker state bit for
    bit.
    """
    config = Stat4Config(counter_num=4, counter_size=256, binding_stages=1)
    stat4 = Stat4(config)
    runtime = Stat4Runtime(stat4)
    spec = runtime.frequency_of(
        0, ExtractSpec.field("ipv4.dst", mask=0x1FF), percent=50
    )
    runtime.bind(0, BindingMatch(ether_type=0x0800), spec)
    return stat4


@scenario("frequency_alerting")
def _frequency_alerting_scenario():
    """Dense counting with k·σ alerts and a cooldown, no tracker.

    The generated loop gates each k·σ digest on the live moments and the
    cooldown stamp; scalar and batched runs must agree on every digest
    and ``last_alert`` stamp.
    """
    config = Stat4Config(counter_num=4, counter_size=256, binding_stages=1)
    stat4 = Stat4(config)
    runtime = Stat4Runtime(stat4)
    spec = runtime.frequency_of(
        0,
        ExtractSpec.field("ipv4.dst", mask=0x1FF),
        k_sigma=2,
        min_samples=3,
        cooldown=0.05,
    )
    runtime.bind(0, BindingMatch(ether_type=0x0800), spec)
    return stat4


@scenario("frequency_tracked")
def _frequency_tracked_scenario():
    """Percentile walk + k·σ alerts — the order-dependent frequency path."""
    config = Stat4Config(counter_num=4, counter_size=256, binding_stages=1)
    stat4 = Stat4(config)
    runtime = Stat4Runtime(stat4)
    spec = runtime.frequency_of(
        0,
        ExtractSpec.field("ipv4.dst", mask=0xFF),
        k_sigma=2,
        percent=50,
        percentile_alert="median_moved",
    )
    runtime.bind(0, BindingMatch(ether_type=0x0800), spec)
    return stat4


@scenario("frequency_tracked_ksigma")
def _frequency_tracked_ksigma_scenario():
    """Tracked percentile + k·σ alerts, no percentile alert.

    The tracker walk and the k·σ stream interleave per packet, so the
    shape runs the generated per-packet loop (``exact_loop``).
    """
    config = Stat4Config(counter_num=4, counter_size=256, binding_stages=1)
    stat4 = Stat4(config)
    runtime = Stat4Runtime(stat4)
    spec = runtime.frequency_of(
        0,
        ExtractSpec.field("ipv4.dst", mask=0xFF),
        k_sigma=2,
        percent=50,
    )
    runtime.bind(0, BindingMatch(ether_type=0x0800), spec)
    return stat4


@scenario("frequency_tracked_pa")
def _frequency_tracked_pa_scenario():
    """Tracked percentile + percentile-movement alerts, no k·σ.

    Only the percentile digest stream is live: each tracker move fires
    it, gated by ``min_samples`` and the cooldown.
    """
    config = Stat4Config(counter_num=4, counter_size=256, binding_stages=1)
    stat4 = Stat4(config)
    runtime = Stat4Runtime(stat4)
    spec = runtime.frequency_of(
        0,
        ExtractSpec.field("ipv4.dst", mask=0xFF),
        percent=50,
        percentile_alert="median_moved",
    )
    runtime.bind(0, BindingMatch(ether_type=0x0800), spec)
    return stat4


@scenario("time_series")
def _time_series_scenario():
    """Interval closes, window wrap, silent gaps, spike alerts."""
    config = Stat4Config(counter_num=4, counter_size=64, binding_stages=1)
    stat4 = Stat4(config)
    runtime = Stat4Runtime(stat4)
    spec = runtime.rate_over_time(
        0, interval=0.008, k_sigma=2, min_samples=3, window=12
    )
    runtime.bind(0, MATCH_ALL, spec)
    return stat4


@scenario("sparse_frequency")
def _sparse_scenario():
    """Hashed slots with evictions — strictly order-dependent."""
    config = Stat4Config(
        counter_num=4, counter_size=64, binding_stages=1, sparse_dists=(0,)
    )
    stat4 = Stat4(config)
    runtime = Stat4Runtime(stat4)
    spec = runtime.sparse_frequency_of(
        0, ExtractSpec.field("ipv4.dst"), k_sigma=2
    )
    runtime.bind(0, BindingMatch(ether_type=0x0800), spec)
    return stat4


@pytest.mark.parametrize("mode", NUMPY_MODES)
@pytest.mark.parametrize("scenario_name", sorted(SCENARIOS))
@settings(deadline=None, max_examples=2)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@example(seed=0)
def test_batched_equals_scalar(scenario_name, mode, seed):
    contexts = generate_trace(seed)
    scalar = SCENARIOS[scenario_name]()
    batched = SCENARIOS[scenario_name]()
    scalar_digests = process_scalar(scalar, contexts)
    batched_digests = process_batched(batched, contexts, mode, seed)
    assert_equal_state(scalar, batched, scalar_digests, batched_digests)


@pytest.mark.parametrize("mode", NUMPY_MODES)
@settings(deadline=None, max_examples=3)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@example(seed=7)
def test_two_stages_feeding_one_slot_ping_pong(mode, seed):
    """Two stages with *different* specs on the same dist repurpose the slot
    on every packet — the hardest ordering case for the batch partitioner."""

    def build():
        config = Stat4Config(counter_num=2, counter_size=64, binding_stages=2)
        stat4 = Stat4(config)
        runtime = Stat4Runtime(stat4)
        spec_a = runtime.frequency_of(0, ExtractSpec.field("ipv4.dst", mask=0x3F))
        spec_b = runtime.frequency_of(0, ExtractSpec.field("ipv4.protocol"))
        runtime.bind(0, BindingMatch(ether_type=0x0800), spec_a)
        runtime.bind(1, BindingMatch(ether_type=0x0800), spec_b)
        return stat4

    contexts = generate_trace(seed, packets=2_000)
    scalar = build()
    batched = build()
    scalar_digests = process_scalar(scalar, contexts)
    batched_digests = process_batched(batched, contexts, mode, seed)
    assert_equal_state(scalar, batched, scalar_digests, batched_digests)


@pytest.mark.parametrize("mode", NUMPY_MODES)
@settings(deadline=None, max_examples=3)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@example(seed=3)
def test_two_stages_two_slots(mode, seed):
    """The case-study shape: stage 0 tracks a rate, stage 1 the spread."""

    def build():
        config = Stat4Config(counter_num=4, counter_size=64, binding_stages=2)
        stat4 = Stat4(config)
        runtime = Stat4Runtime(stat4)
        rate = runtime.rate_over_time(0, interval=0.01, k_sigma=2, min_samples=3)
        spread = runtime.frequency_of(
            1, ExtractSpec.field("ipv4.dst", mask=0x3F), k_sigma=3
        )
        runtime.bind(0, MATCH_ALL, rate)
        runtime.bind(1, BindingMatch(ether_type=0x0800), spread)
        return stat4

    contexts = generate_trace(seed, packets=2_000)
    scalar = build()
    batched = build()
    scalar_digests = process_scalar(scalar, contexts)
    batched_digests = process_batched(batched, contexts, mode, seed)
    assert_equal_state(scalar, batched, scalar_digests, batched_digests)


#: Sparse tables the generated loop must unroll exactly: every probe
#: depth, a slot count that is not a power of two, and a 3-bit count row.
#: Over the trace's ~1,000 keys every table evicts constantly; the 3-bit
#: row sees only 32 keys (the value mask), so its heavy keys stay
#: resident and wrap (about 100 wraps and 60 evictions of a wrapped 0 in
#: the trace of seed 11).
SPARSE_GEOMETRIES = [
    pytest.param(1, 16, 32, None, id="stages1"),
    pytest.param(2, 16, 32, None, id="stages2"),
    pytest.param(3, 16, 32, None, id="stages3"),
    pytest.param(4, 16, 32, None, id="stages4"),
    pytest.param(3, 13, 32, None, id="slots13"),
    pytest.param(2, 8, 3, 0x1F, id="width3"),
]


@pytest.mark.parametrize("mode", NUMPY_MODES)
@pytest.mark.parametrize("k_sigma", [0, 2], ids=["counting", "alerting"])
@pytest.mark.parametrize("stages, slots, width, mask", SPARSE_GEOMETRIES)
@settings(deadline=None, max_examples=2)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@example(seed=11)
def test_inlined_sparse_table_across_a_rebind(
    stages, slots, width, mask, k_sigma, mode, seed
):
    """The generated sparse loop probes, claims and evicts over the rows'
    cell lists.  Halfway through, the slot is rebound with the other
    alerting mode: the slot resets, ``RegisterArray.fill`` replaces every
    row, and the same engine must write to the new lists."""

    def build():
        config = Stat4Config(
            counter_num=2,
            counter_size=64,
            counter_width=width,
            binding_stages=1,
            sparse_dists=(0,),
            sparse_slots=slots,
            sparse_stages=stages,
        )
        stat4 = Stat4(config)
        runtime = Stat4Runtime(stat4)
        spec = runtime.sparse_frequency_of(
            0, ExtractSpec.field("ipv4.dst", mask=mask), k_sigma=k_sigma, min_samples=3
        )
        handle, _ = runtime.bind(0, BindingMatch(ether_type=0x0800), spec)
        return stat4, runtime, handle

    contexts = generate_trace(seed, packets=3_000)
    half = len(contexts) // 2
    scalar, scalar_rt, scalar_handle = build()
    batched, batched_rt, batched_handle = build()
    engine = BatchEngine(batched)
    scalar_digests = process_scalar(scalar, contexts[:half])
    with numpy_mode(mode):
        batched_digests = feed_batches(engine, contexts[:half], seed)
    assert batched.sparse_cells[0].evictions > 0
    changed = replace(scalar_handle.spec, k_sigma=2 - k_sigma)
    scalar_rt.rebind(scalar_handle, spec=changed)
    batched_rt.rebind(batched_handle, spec=changed)
    scalar_digests += process_scalar(scalar, contexts[half:])
    with numpy_mode(mode):
        batched_digests += feed_batches(engine, contexts[half:], seed + 1)
    assert_equal_state(scalar, batched, scalar_digests, batched_digests)


#: An Ethernet header whose ``src`` is 64 bits wide: a value source
#: outside the binding key, so keys can pass the 33-bit key row.
WIDE_ETH = HeaderType("ethernet", [("ether_type", 16), ("src", 64)])


@pytest.mark.parametrize("mode", NUMPY_MODES)
def test_sparse_keys_wider_than_the_key_row(mode):
    """A stored key (key + 1) wraps to the key row's 33 bits on write but
    is compared unwrapped, so a key of ``2**33 - 1`` or more never matches
    its own slot, and ``2**33 - 1`` itself stores as empty; the inlined
    loop must do the same."""
    rng = random.Random(17)
    keys = [(1 << 33) - 2, (1 << 33) - 1, 1 << 33, (1 << 64) - 1, 5, 7]
    keys += [rng.getrandbits(64) for _ in range(20)]
    contexts = []
    for i in range(3_000):
        parsed = ParsedPacket()
        parsed.add("ethernet", WIDE_ETH.instance(ether_type=0x0800, src=rng.choice(keys)))
        ctx = PacketContext(
            parsed=parsed, meta=StandardMetadata(ingress_port=0, timestamp=i * 1e-3)
        )
        ctx.user["frame_bytes"] = 64
        contexts.append(ctx)

    def build():
        config = Stat4Config(
            counter_num=2,
            counter_size=64,
            binding_stages=1,
            sparse_dists=(0,),
            sparse_slots=4,
            sparse_stages=2,
        )
        stat4 = Stat4(config)
        runtime = Stat4Runtime(stat4)
        spec = runtime.sparse_frequency_of(
            0, ExtractSpec.field("ethernet.src"), k_sigma=2, min_samples=3
        )
        runtime.bind(0, BindingMatch(ether_type=0x0800), spec)
        return stat4

    scalar = build()
    batched = build()
    scalar_digests = process_scalar(scalar, contexts)
    batched_digests = process_batched(batched, contexts, mode, seed=17)
    assert batched.sparse_cells[0].evictions > 0
    assert_equal_state(scalar, batched, scalar_digests, batched_digests)
