"""Differential tests: multi-worker ingest is bit-identical to serial.

The contract of :mod:`repro.stat4.parallel`: for any trace, any chunking,
and any worker count, :class:`ParallelBatchEngine` leaves exactly the state
the scalar ``Stat4.process`` loop leaves — registers, working state, digest
order, alert counts.  The hypothesis suite drives the same adversarial
trace generator as the serial differential tests: the scalar oracle vs
``workers=1`` (the serial engine) vs ``workers=2`` and ``workers=4`` (the
process pool over shared-memory columns).

``min_chunk`` is lowered so the ~5k-packet traces actually cross the
fan-out threshold; ``TestFanOut`` pins that the eligible runs really went
through the worker pool (``merge_parallel`` in the kernel counters, every
chunk resolved once) rather than silently delegating to the serial path.
The hypothesis suites run with numpy's optional array paths on and hidden
(``tests.numpy_paths``): the worker tally and the shared-memory segments
each have a Python path.
"""

import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.stat4 import (
    BatchEngine,
    BindingMatch,
    ExtractSpec,
    PacketBatch,
    ParallelBatchEngine,
    Stat4,
    Stat4Config,
    Stat4Runtime,
    split_batch,
)
from repro.stat4 import parallel
from repro.traffic.columns import SharedColumnSegment, live_segment_count
from tests.numpy_paths import NUMPY_MODES, numpy_mode
from tests.stat4.test_batch_differential import (
    SCENARIOS,
    assert_equal_state,
    generate_trace,
    process_scalar,
)

TRACE_PACKETS = 5_000
CHUNK = 1_500  # trace-level chunk: several per trace, each above 2*min_chunk


def process_parallel(
    stat4, contexts, mode, workers, chunk_size=CHUNK, min_chunk=128
):
    engine = ParallelBatchEngine(stat4, workers=workers, min_chunk=min_chunk)
    digests = []
    with numpy_mode(mode):
        for chunk in split_batch(PacketBatch.from_contexts(contexts), chunk_size):
            digests.extend(engine.process(chunk).digests)
    return digests


@pytest.mark.parametrize("mode", NUMPY_MODES)
@pytest.mark.parametrize("scenario_name", sorted(SCENARIOS))
@settings(deadline=None, max_examples=2)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@example(seed=0)
@example(seed=3)
def test_workers_equal_scalar_and_each_other(scenario_name, mode, seed):
    # The serial engine and the process pool at two and four workers
    # (columns in shared-memory segments, ~100-byte descriptors on the
    # pickle wire) must each agree bit-for-bit with the scalar oracle.
    contexts = generate_trace(seed, packets=TRACE_PACKETS)
    scalar = SCENARIOS[scenario_name]()
    scalar_digests = process_scalar(scalar, contexts)
    for workers in (1, 2, 4):
        fanned = SCENARIOS[scenario_name]()
        digests = process_parallel(fanned, contexts, mode, workers=workers)
        assert_equal_state(scalar, fanned, scalar_digests, digests)


@pytest.mark.parametrize("mode", NUMPY_MODES)
def test_process_pool_executor_smoke(mode):
    # The process pool ships chunks through shared memory; one fixed-seed
    # run per mode, outside the hypothesis loop, proves the round trip
    # exact at two workers.
    contexts = generate_trace(11, packets=TRACE_PACKETS)
    scalar = SCENARIOS["frequency"]()
    fanned = SCENARIOS["frequency"]()
    scalar_digests = process_scalar(scalar, contexts)
    fanned_digests = process_parallel(fanned, contexts, mode, workers=2)
    assert_equal_state(scalar, fanned, scalar_digests, fanned_digests)


def _resolutions(engine):
    """The engine's cumulative (adopted, folded, replayed) chunk counts."""
    return (
        engine.merge_adopted_chunks,
        engine.merge_folded_chunks,
        engine.merge_replayed_chunks,
    )


class TestFanOut:
    """Every dense frequency shape takes the one chunk loop.

    At four and at two workers, per batch: each dispatched chunk is
    adopted, folded or replayed exactly once, and every matched event is
    counted as ``merge_parallel``.  A shape with no digest stream (no k·σ,
    no percentile alert) has nothing to speculate or replay, so its
    chunks only fold.
    """

    WORKERS = (4, 2)

    def assert_every_chunk_resolved(self, scenario_name, digest_free=False):
        contexts = generate_trace(5, packets=4_000)
        scalar = SCENARIOS[scenario_name]()
        scalar_digests = process_scalar(scalar, contexts)
        for workers in self.WORKERS:
            stat4 = SCENARIOS[scenario_name]()
            table = stat4.binding_tables[0]
            engine = ParallelBatchEngine(stat4, workers=workers, min_chunk=128)
            digests = []
            for chunk in split_batch(PacketBatch.from_contexts(contexts), 2_000):
                hits = table.hits
                before = _resolutions(engine)
                result = engine.process(chunk)
                digests.extend(result.digests)
                adopted, folded, replayed = (
                    after - start
                    for after, start in zip(_resolutions(engine), before)
                )
                events = table.hits - hits
                assert result.kernels == {"merge_parallel": events}
                dispatched = len(engine._chunk_bounds(events))
                assert adopted + folded + replayed == dispatched
                if digest_free:
                    assert (adopted, replayed) == (0, 0)
            assert_equal_state(scalar, stat4, scalar_digests, digests)

    def test_eligible_run_goes_through_pool(self):
        self.assert_every_chunk_resolved("frequency", digest_free=True)

    def test_tracked_run_fans_out(self):
        self.assert_every_chunk_resolved("percentile", digest_free=True)

    def test_alerting_run_fans_out(self):
        self.assert_every_chunk_resolved("frequency_alerting")

    @pytest.mark.parametrize(
        "scenario_name",
        [
            "frequency_tracked",
            "frequency_tracked_ksigma",
            "frequency_tracked_pa",
        ],
    )
    def test_merge_shapes_fan_out(self, scenario_name):
        # A tracker plus a digest stream: the first chunk's worker
        # speculates with the serial kernel, the main thread reconciles.
        self.assert_every_chunk_resolved(scenario_name)

    def test_shm_shipping_stays_under_a_kilobyte_per_batch(self, monkeypatch):
        # The acceptance bound for the zero-copy path: a batch ships only
        # column descriptors, not the column data.  Every task the engine
        # submits is pickled here, as the pool pickles it.
        contexts = generate_trace(7, packets=4_000)
        stat4 = SCENARIOS["frequency"]()
        engine = ParallelBatchEngine(stat4, workers=2, min_chunk=128)
        pool = parallel._pool(2)
        submit = pool.submit
        shipped = []

        def pickling_submit(fn, *args, **kwargs):
            payload = (fn, args, kwargs)
            shipped.append(len(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)))
            return submit(fn, *args, **kwargs)

        monkeypatch.setattr(pool, "submit", pickling_submit)
        result = engine.process(PacketBatch.from_contexts(contexts))
        assert result.kernels.get("merge_parallel", 0) > 0
        assert len(shipped) == 2
        assert 0 < sum(shipped) < 1024

    def test_run_without_a_segment_takes_the_serial_kernel(self, monkeypatch):
        # No usable /dev/shm: packing the run's segment raises OSError, and
        # the run applies through the serial kernel instead of fanning out.
        def no_shared_memory(cls, columns):
            raise OSError("no usable /dev/shm")

        monkeypatch.setattr(
            SharedColumnSegment, "pack", classmethod(no_shared_memory)
        )
        contexts = generate_trace(5, packets=4_000)
        scalar = SCENARIOS["frequency_alerting"]()
        scalar_digests = process_scalar(scalar, contexts)
        stat4 = SCENARIOS["frequency_alerting"]()
        engine = ParallelBatchEngine(stat4, workers=2, min_chunk=128)
        result = engine.process(PacketBatch.from_contexts(contexts))
        assert "merge_parallel" not in result.kernels
        assert live_segment_count() == 0
        assert_equal_state(scalar, stat4, scalar_digests, list(result.digests))

    def test_small_batch_delegates_to_serial_engine(self):
        contexts = generate_trace(5, packets=200)
        stat4 = SCENARIOS["frequency"]()
        engine = ParallelBatchEngine(stat4, workers=4, min_chunk=512)
        result = engine.process(PacketBatch.from_contexts(contexts))
        assert "merge_parallel" not in result.kernels


def _covered_cooldown_scenario(counter_width=32):
    """The fold-path shape: tracked + k·σ with a trace-covering cooldown.

    After the first alert stamps ``last_alert``, every later chunk's
    max-timestamp bound proves the k·σ stream silent for the whole
    chunk; with no percentile alert stream the chunk folds — telescoped
    moments plus one resumable tracker walk, no per-packet replay.
    """
    config = Stat4Config(
        counter_num=4,
        counter_size=256,
        counter_width=counter_width,
        binding_stages=1,
    )
    stat4 = Stat4(config)
    runtime = Stat4Runtime(stat4)
    spec = runtime.frequency_of(
        0,
        ExtractSpec.field("ipv4.dst", mask=0xFF),
        k_sigma=2,
        min_samples=3,
        cooldown=1e9,
        percent=50,
    )
    runtime.bind(0, BindingMatch(ether_type=0x0800), spec)
    return stat4


class TestMergeResolution:
    """Pin each chunk-resolution path of the merge engine.

    The hypothesis suites above prove bit-identity for whatever mix of
    adopt/fold/replay a trace happens to produce; these tests force each
    path and check the engine counters, so a regression cannot hide
    behind the replay fallback quietly resolving every chunk.  Adopt (the
    generated kernel in a worker), fold, and replay (the serial kernel on
    the parent) must all land bit-identical.
    """

    def _fan_out(self, stat4, contexts):
        engine = ParallelBatchEngine(stat4, workers=4, min_chunk=128)
        digests = []
        for chunk in split_batch(PacketBatch.from_contexts(contexts), CHUNK):
            digests.extend(engine.process(chunk).digests)
        return engine, digests

    def test_first_chunk_adopts_worker_speculation(self):
        # The first chunk of a batch sees exactly the entry state its
        # worker snapshotted, so the tracker fixpoint holds and the
        # speculated exit is adopted wholesale.
        contexts = generate_trace(5, packets=4_000)
        scalar = SCENARIOS["frequency_tracked"]()
        stat4 = SCENARIOS["frequency_tracked"]()
        scalar_digests = process_scalar(scalar, contexts)
        engine = ParallelBatchEngine(stat4, workers=4, min_chunk=128)
        result = engine.process(PacketBatch.from_contexts(contexts))
        assert engine.merge_adopted_chunks >= 1
        assert_equal_state(scalar, stat4, scalar_digests, list(result.digests))

    def test_boundary_chunks_replay_and_stay_identical(self):
        # No cooldown: alert decisions depend on state crossing chunk
        # boundaries, so later chunks miss the fixpoint and fall back to
        # entry-state replay — which must still be bit-identical, every
        # digest in scalar order.
        contexts = generate_trace(5, packets=TRACE_PACKETS)
        scalar = SCENARIOS["frequency_tracked"]()
        fanned = SCENARIOS["frequency_tracked"]()
        scalar_digests = process_scalar(scalar, contexts)
        engine, digests = self._fan_out(fanned, contexts)
        assert engine.merge_replayed_chunks > 0
        assert_equal_state(scalar, fanned, scalar_digests, digests)

    def test_covered_cooldown_chunks_fold_without_replay(self):
        contexts = generate_trace(5, packets=TRACE_PACKETS)
        scalar = _covered_cooldown_scenario()
        fanned = _covered_cooldown_scenario()
        scalar_digests = process_scalar(scalar, contexts)
        engine, digests = self._fan_out(fanned, contexts)
        assert engine.merge_folded_chunks > 0
        assert_equal_state(scalar, fanned, scalar_digests, digests)

    def test_folded_chunks_wrap_narrow_cells_exactly(self):
        # 4-bit cells over a 256-value domain wrap many times per trace;
        # a folded chunk must replay the wrapping cells occurrence by
        # occurrence so the wrapped counts feed the moments exactly.
        contexts = generate_trace(5, packets=TRACE_PACKETS)
        scalar = _covered_cooldown_scenario(counter_width=4)
        fanned = _covered_cooldown_scenario(counter_width=4)
        scalar_digests = process_scalar(scalar, contexts)
        engine, digests = self._fan_out(fanned, contexts)
        assert engine.merge_folded_chunks > 0
        assert_equal_state(scalar, fanned, scalar_digests, digests)

    def test_merge_fans_out_over_shm_process_pool(self):
        # One fixed-seed run at two workers outside the hypothesis loop:
        # the merge mode must ship column descriptors to the pool and come
        # back bit-identical, with the merge kernel counter ticking.
        contexts = generate_trace(7, packets=4_000)
        scalar = SCENARIOS["frequency_tracked"]()
        shm = SCENARIOS["frequency_tracked"]()
        scalar_digests = process_scalar(scalar, contexts)
        engine = ParallelBatchEngine(shm, workers=2, min_chunk=128)
        result = engine.process(PacketBatch.from_contexts(contexts))
        assert result.kernels.get("merge_parallel", 0) > 0
        assert_equal_state(scalar, shm, scalar_digests, list(result.digests))


class TestSplitBatch:
    def test_chunks_are_contiguous_and_cover(self):
        contexts = generate_trace(1, packets=700)
        batch = PacketBatch.from_contexts(contexts)
        chunks = split_batch(batch, 300)
        assert [len(chunk) for chunk in chunks] == [300, 300, 100]
        rebuilt = [ts for chunk in chunks for ts in chunk.timestamps]
        assert rebuilt == batch.timestamps

    def test_empty_batch_yields_no_chunks(self):
        # Regression: an empty batch used to come back as one empty
        # chunk, costing a no-op engine pass per empty trace window.
        batch = PacketBatch.from_contexts([])
        assert split_batch(batch, 300) == []

    def test_rejects_nonpositive_chunk_size(self):
        batch = PacketBatch.from_contexts([])
        with pytest.raises(ValueError):
            split_batch(batch, 0)

    def test_chunked_processing_equals_whole_batch(self):
        contexts = generate_trace(2, packets=1_000)
        whole = SCENARIOS["frequency"]()
        chunked = SCENARIOS["frequency"]()
        whole_digests = list(
            BatchEngine(whole)
            .process(PacketBatch.from_contexts(contexts))
            .digests
        )
        engine = BatchEngine(chunked)
        chunked_digests = []
        for chunk in split_batch(PacketBatch.from_contexts(contexts), 137):
            chunked_digests.extend(engine.process(chunk).digests)
        assert_equal_state(whole, chunked, whole_digests, chunked_digests)


class TestEngineValidation:
    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            ParallelBatchEngine(SCENARIOS["frequency"](), workers=0)

    def test_rejects_unknown_executor(self):
        # The process pool is the only executor; one worker is the serial
        # path, and the thread pool is gone.
        for executor in ("fork_bomb", "auto", "serial", "thread"):
            with pytest.raises(ValueError):
                ParallelBatchEngine(SCENARIOS["frequency"](), executor=executor)

    def test_accepts_the_process_executor(self):
        engine = ParallelBatchEngine(
            SCENARIOS["frequency"](), workers=2, executor="process"
        )
        assert engine.workers == 2
