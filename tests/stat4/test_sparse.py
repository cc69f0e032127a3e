"""Unit tests for the sparse hashed distributions (Sec. 5 extension)."""

import random

import pytest

from repro.core.stats import ScaledStats
from repro.p4.errors import ResourceError, ValueRangeError
from repro.p4.registers import RegisterFile
from repro.stat4 import (
    BindingMatch,
    ExtractSpec,
    Stat4,
    Stat4Config,
    Stat4Runtime,
)
from repro.stat4 import sparse as sparse_module
from repro.stat4.sparse import _VECTOR_THRESHOLD, HashedCells

from tests.stat4.conftest import make_ctx, udp_packet
from repro.p4 import headers as hdr


class TestHashedCells:
    def test_increment_and_count(self):
        cells = HashedCells(slots_per_stage=16, stages=2)
        assert cells.increment(0xDEADBEEF) == (0, 1, 0)
        assert cells.increment(0xDEADBEEF) == (1, 2, 0)
        assert cells.count_of(0xDEADBEEF) == 2
        assert cells.count_of(0x12345678) == 0

    def test_key_zero_usable(self):
        cells = HashedCells(slots_per_stage=8, stages=1)
        cells.increment(0)
        assert cells.count_of(0) == 1

    def test_exact_when_unsaturated(self):
        rng = random.Random(0)
        cells = HashedCells(slots_per_stage=256, stages=2)
        truth = {}
        keys = [rng.getrandbits(32) for _ in range(40)]
        for _ in range(2000):
            key = keys[rng.randrange(len(keys))]
            truth[key] = truth.get(key, 0) + 1
            cells.increment(key)
        if cells.evictions == 0:
            for key, count in truth.items():
                assert cells.count_of(key) == count

    def test_eviction_keeps_heavy_keys(self):
        # One stage, one slot: a heavy and a light key fight for it.
        cells = HashedCells(slots_per_stage=1, stages=1)
        for _ in range(100):
            cells.increment(1)
        old, new, evicted = cells.increment(2)
        assert (old, new) == (0, 1)
        assert evicted == 100
        assert cells.evictions == 1
        assert cells.evicted_mass == 100

    def test_items_dump(self):
        cells = HashedCells(slots_per_stage=32, stages=2)
        cells.increment(5)
        cells.increment(5)
        cells.increment(9)
        assert sorted(cells.items()) == [(5, 2), (9, 1)]

    def test_clear(self):
        cells = HashedCells(slots_per_stage=8, stages=2)
        cells.increment(1)
        cells.clear()
        assert cells.items() == []
        assert cells.count_of(1) == 0

    def test_geometry_validation(self):
        with pytest.raises(ValueRangeError):
            HashedCells(slots_per_stage=0)
        with pytest.raises(ValueRangeError):
            HashedCells(stages=0)
        with pytest.raises(ValueRangeError):
            HashedCells(stages=9)
        cells = HashedCells(slots_per_stage=4)
        with pytest.raises(ValueRangeError):
            cells.increment(-1)

    def test_probe_path_matches_increment_probes(self):
        # The scalar increment() probes exactly probe_path(); the bulk slot
        # hash the generated kernel uses is held to it in TestSlotPaths.
        cells = HashedCells(slots_per_stage=16, stages=3)
        for key in (0, 1, 0xDEADBEEF, 12345):
            path = cells.probe_path(key)
            assert [stage for stage, _ in path] == [0, 1, 2]
            assert all(0 <= index < 16 for _, index in path)
            assert path == cells.probe_path(key)  # deterministic

    def test_probe_path_rejects_negative_key(self):
        cells = HashedCells(slots_per_stage=4)
        with pytest.raises(ValueRangeError):
            cells.probe_path(-1)
        with pytest.raises(ValueRangeError):
            cells.increment(-1)
        with pytest.raises(ValueRangeError):
            cells.slot_paths([3, -1])

    def test_memory_accounting(self):
        registers = RegisterFile()
        cells = HashedCells(slots_per_stage=64, stages=2, registers=registers)
        assert cells.capacity == 128
        assert cells.bytes_used == registers.total_bytes


@pytest.fixture
def numpy_calls(monkeypatch):
    """Counts the bulk slot hash's numpy passes (one ``asarray`` each)."""
    np = pytest.importorskip("numpy")
    calls = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def asarray(self, *args, **kwargs):
            calls.append(len(args[0]))
            return np.asarray(*args, **kwargs)

    monkeypatch.setattr(sparse_module, "_np", CountingNumpy())
    return calls


def probe_slots(cells, keys):
    """What :meth:`HashedCells.slot_paths` must return: probe_path's slots."""
    return {key: tuple(slot for _, slot in cells.probe_path(key)) for key in keys}


def distinct_keys(count, seed):
    """``count`` distinct keys, always including the 64-bit extremes."""
    rng = random.Random(seed)
    keys = {0, 1, (1 << 32) - 1, 1 << 63, (1 << 64) - 1}
    while len(keys) < count:
        keys.add(rng.getrandbits(rng.choice((16, 32, 64))))
    return sorted(keys)


class TestSlotPaths:
    """The bulk slot hash the generated sparse kernel probes with."""

    @pytest.mark.parametrize("stages", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "unique", [_VECTOR_THRESHOLD - 1, _VECTOR_THRESHOLD], ids=["loop", "vector"]
    )
    def test_equals_probe_path(self, stages, unique):
        keys = distinct_keys(unique, seed=stages)
        for slots in (13, 64):
            cells = HashedCells(slots_per_stage=slots, stages=stages)
            assert cells.slot_paths(keys) == probe_slots(cells, keys)
            # A repeated key maps to the same slots.
            assert cells.slot_paths(keys + keys[:5]) == probe_slots(cells, keys)

    @pytest.mark.parametrize("stages", [1, 4])
    def test_vector_pass_starts_at_the_threshold(self, numpy_calls, stages):
        cells = HashedCells(slots_per_stage=64, stages=stages)
        below = distinct_keys(_VECTOR_THRESHOLD - 1, seed=5)
        assert cells.slot_paths(below) == probe_slots(cells, below)
        assert numpy_calls == []
        at = distinct_keys(_VECTOR_THRESHOLD, seed=5)
        assert cells.slot_paths(at) == probe_slots(cells, at)
        assert numpy_calls == [_VECTOR_THRESHOLD]

    @pytest.mark.parametrize(
        "slots, vectorised",
        [((1 << 31) - 1, True), (1 << 31, False), (1 << 40, False)],
        ids=["below_guard", "at_guard", "far_past_guard"],
    )
    def test_slots_per_stage_guard(self, numpy_calls, slots, vectorised):
        # The attribute is set on a small table, so no wide rows exist;
        # the hash reads only slots_per_stage.  At and past the guard the
        # loop runs; far past it the 32-bit split would overflow uint64
        # lanes.
        cells = HashedCells(slots_per_stage=4, stages=4)
        cells.slots_per_stage = slots
        keys = distinct_keys(2 * _VECTOR_THRESHOLD, seed=slots & 0xFFFF)
        assert cells.slot_paths(keys) == probe_slots(cells, keys)
        assert bool(numpy_calls) is vectorised

    def test_keys_past_64_bits_hash_in_the_loop(self, numpy_calls):
        cells = HashedCells(slots_per_stage=64, stages=3)
        keys = distinct_keys(_VECTOR_THRESHOLD, seed=9) + [1 << 64, (1 << 80) + 3]
        assert cells.slot_paths(keys) == probe_slots(cells, keys)
        assert numpy_calls == []

    def test_without_numpy_the_loop_runs(self, monkeypatch):
        monkeypatch.setattr(sparse_module, "_np", None)
        cells = HashedCells(slots_per_stage=13, stages=4)
        keys = distinct_keys(2 * _VECTOR_THRESHOLD, seed=11)
        assert cells.slot_paths(keys) == probe_slots(cells, keys)
        assert cells.slot_paths([]) == {}


class TestSparseDistributions:
    def build(self):
        config = Stat4Config(
            counter_num=2, counter_size=16, sparse_dists=(1,), sparse_slots=64
        )
        stat4 = Stat4(config)
        runtime = Stat4Runtime(stat4)
        return stat4, runtime

    def bind_sparse(self, runtime, **kwargs):
        spec = runtime.sparse_frequency_of(
            dist=1, extract=ExtractSpec.field("ipv4.dst"), **kwargs
        )
        runtime.bind(0, BindingMatch.ipv4_prefix("0.0.0.0", 0), spec)
        return spec

    def test_full_addresses_tracked(self):
        stat4, runtime = self.build()
        self.bind_sparse(runtime)
        for _ in range(3):
            stat4.process(make_ctx(udp_packet("203.0.113.9")))
        stat4.process(make_ctx(udp_packet("198.51.100.4")))
        items = dict(stat4.read_sparse_items(1))
        assert items[hdr.ip_to_int("203.0.113.9")] == 3
        assert items[hdr.ip_to_int("198.51.100.4")] == 1

    def test_moments_match_resident_set(self):
        stat4, runtime = self.build()
        self.bind_sparse(runtime)
        rng = random.Random(1)
        ips = [f"10.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randrange(256)}"
               for _ in range(30)]
        for _ in range(1500):
            stat4.process(make_ctx(udp_packet(ips[rng.randrange(len(ips))])))
        mirror = ScaledStats()
        for _key, count in stat4.read_sparse_items(1):
            mirror.add_value(count)
        measures = stat4.read_measures(1)
        assert measures["n"] == mirror.count
        assert measures["xsum"] == mirror.xsum
        assert measures["xsumsq"] == mirror.xsumsq

    def test_heavy_key_alert_carries_full_address(self):
        stat4, runtime = self.build()
        # min_samples must cover the background population: with few keys
        # resident the early counts are noisy (small-N effect).
        self.bind_sparse(runtime, k_sigma=2, min_samples=20, margin=3, cooldown=0.2)
        rng = random.Random(2)
        victim = "203.0.113.77"
        digests = []
        for i in range(2000):
            if i > 800 and rng.random() < 0.7:
                ip = victim
            else:
                ip = f"198.51.100.{rng.randrange(1, 30)}"
            ctx = make_ctx(udp_packet(ip), now=i * 0.001)
            stat4.process(ctx)
            digests.extend(ctx.digests)
        heavy = [d for d in digests if d.name == "heavy_key"]
        assert heavy
        # The digest names the heavy hitter by its *full* address — no
        # drill-down round trip needed.
        assert hdr.ip_to_int(victim) in {d.fields["index"] for d in heavy}
        top_key, _ = max(stat4.read_sparse_items(1), key=lambda kv: kv[1])
        assert top_key == hdr.ip_to_int(victim)

    def test_unconfigured_slot_rejected(self):
        stat4, runtime = self.build()
        spec = runtime.sparse_frequency_of(
            dist=0, extract=ExtractSpec.field("ipv4.dst")
        )
        runtime.bind(0, BindingMatch.ipv4_prefix("0.0.0.0", 0), spec)
        with pytest.raises(ResourceError):
            stat4.process(make_ctx(udp_packet("10.0.0.1")))

    def test_config_validates_sparse_slots(self):
        with pytest.raises(ResourceError):
            Stat4Config(counter_num=2, sparse_dists=(5,))
        with pytest.raises(ResourceError):
            Stat4Config(sparse_dists=(0,), sparse_slots=0)

    def test_read_sparse_items_requires_sparse_slot(self):
        stat4, _ = self.build()
        with pytest.raises(ResourceError):
            stat4.read_sparse_items(0)

    def test_sparse_memory_beats_dense_domain(self):
        # Tracking full /32 destinations densely would need 2^32 cells;
        # sparse storage fits in a few KB.
        stat4, _ = self.build()
        sparse_bytes = stat4.sparse_cells[1].bytes_used
        dense_bytes = (1 << 32) * 4
        assert sparse_bytes < 4096
        assert sparse_bytes * 1_000_000 < dense_bytes

    def test_percentile_rejected_for_sparse(self):
        from repro.stat4.distributions import DistributionKind, TrackSpec

        with pytest.raises(ValueRangeError):
            TrackSpec(
                dist=1,
                kind=DistributionKind.SPARSE_FREQUENCY,
                extract=ExtractSpec.field("ipv4.dst"),
                percent=50,
            )
