"""The σ-free bounds ahead of the generated k·σ check.

Both generated loops share one k·σ check
(:func:`repro.stat4.compiled._ksigma_lines`), which rules an alert out
with two bounds before it computes σ: ``x ≤ margin`` and
``N·x ≤ Xsum + N·margin``.  A skipped σ must change nothing a controller
sees, so the differential here holds each generated loop to the scalar
oracle after every batch, across the constants the bounds read:
``k_sigma``, ``margin`` (0, small, and above any count), the
``min_samples`` gate and the cooldown.  The last tests hold the
target-profile gate: a target without a runtime multiplier refuses the
batched k·σ check exactly as it refuses the scalar one, and the refused
run leaves its slot as it was.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.p4.errors import UnsupportedOperationError
from repro.p4.packet import HeaderType, ParsedPacket
from repro.p4.switch import PacketContext, StandardMetadata
from repro.p4.values import BMV2, TOFINO_LIKE, use_target
from repro.stat4 import (
    BatchEngine,
    BindingMatch,
    ExtractSpec,
    PacketBatch,
    Stat4,
    Stat4Config,
    Stat4Runtime,
)
from repro.stat4.batch import kernel_of
from repro.stat4.distributions import KernelShape
from repro.stat4.library import diff
from tests.numpy_paths import NUMPY_MODES, numpy_mode
from tests.stat4.test_batch_differential import assert_equal_state, process_scalar

ETH = HeaderType("ethernet", [("ether_type", 16)])
IPV4 = HeaderType("ipv4", [("dst", 32), ("protocol", 8)])

PACKETS = 1_500
#: A margin no sample can pass: a frequency never exceeds the packet count.
ABOVE_ANY_COUNT = PACKETS + 1

#: Dense slots have 64 cells; values from 0 to 79 leave some out of range.
DENSE_VALUES = 80
#: Sparse keys: far more than the 16-cell table holds, so it evicts.
SPARSE_KEYS = 400

#: The generated kernels under test: name -> (spec builder, sparse slot?).
KERNELS = {
    "untracked": (
        lambda rt, **kw: rt.frequency_of(0, ExtractSpec.field("ipv4.dst"), **kw),
        False,
    ),
    "tracked": (
        lambda rt, **kw: rt.frequency_of(
            0, ExtractSpec.field("ipv4.dst"), percent=50, **kw
        ),
        False,
    ),
    "percentile_alert": (
        lambda rt, **kw: rt.frequency_of(
            0,
            ExtractSpec.field("ipv4.dst"),
            percent=50,
            percentile_alert="median_moved",
            **kw,
        ),
        False,
    ),
    "sparse": (
        lambda rt, **kw: rt.sparse_frequency_of(0, ExtractSpec.field("ipv4.dst"), **kw),
        True,
    ),
}


def build(kernel, **constants):
    make_spec, sparse = KERNELS[kernel]
    config = Stat4Config(
        counter_num=2,
        counter_size=64,
        binding_stages=1,
        sparse_dists=(0,) if sparse else (),
        sparse_slots=8,
        sparse_stages=2,
    )
    stat4 = Stat4(config)
    runtime = Stat4Runtime(stat4)
    runtime.bind(0, BindingMatch(ether_type=0x0800), make_spec(runtime, **constants))
    return stat4


def trace(seed, values, packets=PACKETS):
    """A hot value among uniform ones, with value-free packets mixed in.

    The hot value's share drifts per seed, so some traces cross the
    σ-free bound often and others rarely.
    """
    rng = random.Random(seed)
    hot = rng.randrange(values)
    hot_share = rng.choice([0.0, 0.05, 0.2, 0.5])
    now = 0.0
    contexts = []
    for _ in range(packets):
        now += rng.random() * 0.002
        parsed = ParsedPacket()
        parsed.add("ethernet", ETH.instance(ether_type=0x0800))
        roll = rng.random()
        if roll >= 0.05:
            dst = hot if roll < 0.05 + hot_share else rng.randrange(values)
            parsed.add("ipv4", IPV4.instance(dst=dst, protocol=17))
        ctx = PacketContext(
            parsed=parsed, meta=StandardMetadata(ingress_port=0, timestamp=now)
        )
        ctx.user["frame_bytes"] = 64
        contexts.append(ctx)
    return contexts


@pytest.mark.parametrize("mode", NUMPY_MODES)
@pytest.mark.parametrize("kernel", sorted(KERNELS))
@settings(deadline=None, max_examples=6)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    k_sigma=st.integers(min_value=1, max_value=4),
    margin=st.sampled_from([0, 1, 2, 8, ABOVE_ANY_COUNT]),
    min_samples=st.integers(min_value=0, max_value=48),
    cooldown=st.sampled_from([0.0, 0.004, 0.05]),
)
@example(seed=5, k_sigma=1, margin=0, min_samples=0, cooldown=0.0)
# Samples just past the literal bound alert: x = margin + 2 over counts of 1.
@example(seed=1, k_sigma=1, margin=1, min_samples=0, cooldown=0.0)
@example(seed=2, k_sigma=1, margin=1, min_samples=0, cooldown=0.0)
@example(seed=5, k_sigma=2, margin=2, min_samples=8, cooldown=0.0)
@example(seed=9, k_sigma=4, margin=ABOVE_ANY_COUNT, min_samples=3, cooldown=0.05)
def test_bounds_leave_every_batch_bit_identical(
    kernel, mode, seed, k_sigma, margin, min_samples, cooldown
):
    constants = dict(
        k_sigma=k_sigma, margin=margin, min_samples=min_samples, cooldown=cooldown
    )
    scalar = build(kernel, **constants)
    batched = build(kernel, **constants)
    spec = batched.binding_tables[0].entries()[0].params["spec"]
    sparse = KERNELS[kernel][1]
    assert kernel_of(KernelShape.of_spec(spec)) == (
        "sparse_fast" if sparse else "exact_loop"
    )
    contexts = trace(seed, SPARSE_KEYS if sparse else DENSE_VALUES)
    engine = BatchEngine(batched)
    rng = random.Random(seed ^ 0x5161)
    alerts = 0
    index = 0
    while index < len(contexts):
        chunk = contexts[index : index + rng.randrange(1, 300)]
        index += len(chunk)
        scalar_digests = process_scalar(scalar, chunk)
        with numpy_mode(mode):
            batched_digests = engine.process(PacketBatch.from_contexts(chunk)).digests
        assert_equal_state(scalar, batched, scalar_digests, batched_digests)
        alerts += sum(digest.name == spec.alert for digest in batched_digests)
    if sparse:
        assert batched.sparse_cells[0].evictions > 0
    if margin == ABOVE_ANY_COUNT:
        assert alerts == 0


def test_an_open_check_fires_and_a_closed_one_never_does():
    """The differential's traces reach both outcomes: a hot key alerts
    under a small margin and never under one above any count."""
    contexts = trace(5, SPARSE_KEYS)
    for margin, fires in ((2, True), (ABOVE_ANY_COUNT, False)):
        stat4 = build("sparse", k_sigma=2, margin=margin, min_samples=8)
        digests = BatchEngine(stat4).process(PacketBatch.from_contexts(contexts)).digests
        assert bool(digests) is fires, margin


@pytest.mark.parametrize("built_under", [BMV2, TOFINO_LIKE], ids=lambda t: t.name)
@pytest.mark.parametrize("kernel", ["untracked", "sparse"])
def test_tofino_like_target_refuses_the_batched_check(kernel, built_under):
    """No runtime multiplier, no k·σ check: a batch over a k·σ slot raises
    as the scalar path does, for a detector built under either target
    (one built under bmv2 has already run, with the exact square)."""
    sparse = KERNELS[kernel][1]
    contexts = trace(3, SPARSE_KEYS if sparse else DENSE_VALUES, packets=400)
    with use_target(built_under):
        scalar = build(kernel, k_sigma=2, margin=1, min_samples=4)
        batched = build(kernel, k_sigma=2, margin=1, min_samples=4)
        if built_under is BMV2:
            process_scalar(scalar, contexts[:100])
            BatchEngine(batched).process(PacketBatch.from_contexts(contexts[:100]))
    rest = contexts[100:]
    with use_target(TOFINO_LIKE):
        with pytest.raises(UnsupportedOperationError):
            process_scalar(scalar, rest)
        with pytest.raises(UnsupportedOperationError):
            BatchEngine(batched).process(PacketBatch.from_contexts(rest))


@pytest.mark.parametrize("built_under", [BMV2, TOFINO_LIKE], ids=lambda t: t.name)
@pytest.mark.parametrize("kernel", ["untracked", "sparse"])
def test_a_refused_run_leaves_its_slot_as_it_was(kernel, built_under):
    """A generated loop that raises installs nothing.  Of the snapshot,
    only ``packets_seen`` and the binding table's counters (which have
    already counted the batch) change on a detector that has run under
    bmv2; a fresh detector also gains its empty slot."""
    sparse = KERNELS[kernel][1]
    contexts = trace(3, SPARSE_KEYS if sparse else DENSE_VALUES, packets=400)
    with use_target(built_under):
        stat4 = build(kernel, k_sigma=2, margin=1, min_samples=4)
        engine = BatchEngine(stat4)
        if built_under is BMV2:
            engine.process(PacketBatch.from_contexts(contexts[:100]))
    before = stat4.snapshot()
    with use_target(TOFINO_LIKE):
        with pytest.raises(UnsupportedOperationError):
            engine.process(PacketBatch.from_contexts(contexts[100:]))
    after = stat4.snapshot()
    table = "tables.stat4_binding_0"
    counted = ["packets_seen", f"{table}.lookups", f"{table}.hits"]
    if built_under is BMV2:
        assert diff(before, after) == counted
    else:
        # A fresh detector: ``_state_for`` binds slot 0 before the k·σ
        # check raises (the scalar path binds it too), so the refused
        # batch leaves the slot bound, every moment zero and σ clean.
        assert diff(before, after) == [*counted, "slots.0"]
        assert not any(after["slots"][0]["stats"].values())
