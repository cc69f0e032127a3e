# p4-ok-file — host-side parallel execution layer; the per-packet P4
# semantics it reproduces live (and are linted) in repro.stat4.library.
"""Multi-worker Stat4 ingest: zero-copy chunk dispatch with exact merging.

:class:`~repro.stat4.batch.BatchEngine` already turns per-packet updates
into per-batch kernels; this module adds the last level of the hierarchy —
a worker pool that runs independent pieces of that kernel work
concurrently, **without giving up bit-identity** with the scalar loop:

- a trace is split into time-ordered chunks (:func:`split_batch`) that are
  processed strictly in order, so all cross-batch state (interval cursors,
  percentile walks, eviction order) evolves exactly as in serial replay;
- *within* one batch, a dense frequency run is cut into one chunk per
  worker; workers tally their chunks (and one speculates), and the main
  thread resolves the chunks in order.  Every other run takes the serial
  kernels outright.

Zero-copy shipping
------------------

Worker chunks are views, not copies.  Thread workers receive zero-copy
windows of the batch's encoded value column
(:meth:`~repro.stat4.batch.PacketBatch.values_array_for`, backed by the
batch's :class:`~repro.traffic.columns.ColumnStore`).  Process workers
attach a ``multiprocessing.shared_memory`` segment by name and read the
rows in place (:func:`~repro.traffic.columns.attach_column`): the pickled
per-task payload is a ~100-byte :class:`ColumnDescriptor` instead of the
chunk's data, which is what lets a process pool win on multi-GB traces.
Segments are registered in the columns module; the engine releases them as
soon as the batch is applied, and :func:`shutdown_pools` (atexit, plus a
chained ``SIGTERM`` handler) sweeps anything a dying run leaves behind so
repeated bench runs cannot exhaust ``/dev/shm``.

One fan-out protocol, and why it is exact
-----------------------------------------

:meth:`ParallelBatchEngine._fan_out_mode` looks each run's kernel shape up
in the table :func:`repro.analysis.concurrency.derive_eligibility_table`
derives from the kernel ASTs: the six dense frequency shapes are
``"merge"``; time-series and hashed sparse shapes are serial.  The
invariant behind the merge: for a dense frequency slot, after any prefix
of a run the moments (N, Xsum, Xsumsq) and the cell registers are
**order-independent functions of the per-value occurrence counts** — each
occurrence's ``observe_frequency`` depends only on its own cell's prior
count, the telescoped ``observe_frequencies`` identity folds any grouping
of occurrences to the same sums, and cell writes wrap through
``value & mask``, which composes modularly.  So a chunk's tally folded
through ``_apply_counts`` lands on exactly the serial cells and moments.
What cannot be folded is the order-dependent part: the percentile tracker
walks one step per packet, and the k·σ and percentile-move digest streams
read the live moments, the ``reg_pos`` register and the cooldown stamps
per packet.

Every fanned-out run goes through one chunk loop
(:meth:`ParallelBatchEngine._apply_chunks`):

- every worker tallies its chunk;
- when the shape's serial kernel is the generated per-packet loop
  (:func:`~repro.stat4.batch.kernel_of` gives ``"exact_loop"``: a k·σ
  check or a percentile alert), the first chunk's worker also
  **speculates**: it runs that loop (:mod:`repro.stat4.compiled`) from a
  batch-entry snapshot of the slot (its flat kernel state, see
  :func:`~repro.stat4.compiled.pack_frequency_state`) and ships back the
  kernel's exit state and digest records.  Only these shapes ship
  timestamps; a digest-free run ships its values alone.

The single-threaded reconciler then walks the chunks in order and
resolves each deterministically:

* **adopt** — the *tracker fixpoint* check compares the live slot's
  packed kernel state (moments, tracker, cooldown stamps, every cell,
  the ``reg_pos`` register) against the snapshot the worker started
  from.  When they are equal, the worker ran the serial kernel on the
  serial entry state, so its exit state and digest stream are the
  serial ones by construction: the exit is installed as a serial run's
  would be, and the digests are re-tagged onto the shared sink.
* **fold** — a chunk whose digest streams are provably silent merges
  without replay.  A digest-free shape (``frequency``,
  ``frequency+tracked``) has no stream, so each of its chunks folds.
  Otherwise each stream is proven silent against its own stamp
  (``last_alert`` for k·σ, ``last_percentile_alert`` for percentile
  moves) in one of two ways:

  * ``stats.count + occurrences < spec.min_samples`` — every
    ``observe_frequency`` grows N by at most 1, so N stays below the
    ``min_samples`` gate for every packet of the chunk (the percentile
    gate also reads ``stats.count``, so the bound covers value-free
    ticks);
  * the cooldown window covers the chunk — the stamp is set,
    ``cooldown > 0``, and ``chunk_max_ts − stamp < cooldown``: every
    packet's ``now ≤ chunk_max_ts``, and since no digest fires in a
    folded chunk, the stamp cannot move mid-chunk.

  With no digest possible, the tracker and the moments are independent
  state machines — neither reads the other — so the chunk folds through
  ``_apply_counts`` plus a resumable tracker walk
  (:meth:`~repro.stat4.batch.BatchEngine._tracker_replay`) and one
  position-register sync.  A folded chunk costs O(distinct values) plus
  the walk.
* **replay** — anything else runs the serial generated kernel on the
  chunk's sub-segment from the live state, exactly as
  :class:`~repro.stat4.batch.BatchEngine` would.

Every resolution leaves the live slot state and its registers exactly
where the serial kernel would after that chunk, so the next chunk's
fixpoint check and silence proof read the true serial state.

``tests/stat4/test_parallel_differential.py`` proves scalar vs threads vs
shared-memory processes bit-identical — registers, digest order, alert
counts — for every ``DistributionKind``, with numpy importable and without.

numpy is optional here too.  It is used only on data that is already an
array: a worker tallies an int64 chunk with ``numpy.bincount`` and an
event-ordered timestamp stream is packed as a float64 array.  Without
numpy both take the ``array``-module and list paths, with the same
results.
"""

from __future__ import annotations

import atexit
import pickle
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.stat4.batch import (
    BatchEngine,
    BatchResult,
    PacketBatch,
    _DigestSink,
    _Event,
    kernel_of,
)
from repro.stat4.compiled import (
    KernelConstants,
    compiled_kernel,
    copy_frequency_state,
    pack_frequency_state,
)
from repro.stat4.distributions import DistributionState, KernelShape, TrackSpec
from repro.stat4.library import Stat4
from repro.traffic.columns import (
    ColumnDescriptor,
    SharedColumnSegment,
    attach_column,
    decode_digest_records,
    encode_column,
    encode_digest_records,
    release_all_segments,
    slice_backing,
)

try:  # pragma: no cover - absence exercised by the no-numpy CI job
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

__all__ = [
    "ParallelBatchEngine",
    "split_batch",
    "shutdown_pools",
]

_EXECUTOR_KINDS = ("thread", "process")

#: Lazily resolved ``(derived_table, shape_key_of_spec)`` pair, populated on
#: the first fan-out decision so importing this module never pulls in the
#: analyzer.
_ELIGIBILITY: Optional[Tuple[Dict[str, Optional[str]], Any]] = None


def _eligibility() -> Tuple[Dict[str, Optional[str]], Any]:
    global _ELIGIBILITY
    if _ELIGIBILITY is None:
        from repro.analysis.concurrency import (
            derive_eligibility_table,
            shape_key_of_spec,
        )

        _ELIGIBILITY = (derive_eligibility_table(), shape_key_of_spec)
    return _ELIGIBILITY


#: Live executors, keyed by (kind, workers).  Worker pools are expensive to
#: start (especially process pools); one bench run reuses them across
#: batches and repeats.
_EXECUTORS: Dict[Tuple[str, int], Executor] = {}


def _pool(kind: str, workers: int) -> Executor:
    key = (kind, workers)
    pool = _EXECUTORS.get(key)
    if pool is None:
        if kind == "process":
            pool = ProcessPoolExecutor(max_workers=workers)
        else:
            pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-ingest"
            )
        _EXECUTORS[key] = pool
    return pool


def shutdown_pools() -> None:
    """Shut down every cached worker pool and sweep leaked shared segments.

    Runs at interpreter exit.  The shared-memory sweep
    (:func:`repro.traffic.columns.release_all_segments`) unlinks any
    segment a dying batch left registered, so repeated bench runs cannot
    exhaust ``/dev/shm``; the columns module additionally chains the same
    sweep onto ``SIGTERM`` for kills that bypass atexit.
    """
    for pool in _EXECUTORS.values():
        pool.shutdown(wait=True)
    _EXECUTORS.clear()
    release_all_segments()


atexit.register(shutdown_pools)


def split_batch(batch: PacketBatch, chunk_size: int) -> List[PacketBatch]:
    """Split a batch into time-ordered contiguous chunks.

    Processing the chunks in order through any engine leaves the same
    state as processing the whole batch at once (and as the scalar loop):
    every kernel finishes its chunk before the next starts, and
    :meth:`PacketBatch.slice_view` carries every backing column over as a
    view — C-level list slices for the Python fields, zero-copy windows
    for the encoded :class:`~repro.traffic.columns.ColumnStore` columns.
    An empty batch splits into no chunks at all (``[]``), not one empty
    chunk.
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    n = len(batch)
    if n == 0:
        return []
    return [
        batch.slice_view(start, min(start + chunk_size, n))
        for start in range(0, n, chunk_size)
    ]


def _tally_chunk(
    values: Sequence[Optional[int]], size: int
) -> Tuple[Dict[int, int], int]:
    """Worker task core: count one chunk of a run's values.

    Returns ``(tally, dropped)`` — in-domain occurrence counts per value
    and the number of out-of-domain values (the scalar path's
    ``values_dropped``).  Value-free packets are skipped, exactly as the
    serial counting kernel skips them: ``None`` in plain list chunks, the
    columns sentinel ``-1`` in encoded array/memoryview chunks.  On an
    int64 ndarray chunk the count runs through ``numpy.bincount`` (which
    releases the GIL, so thread workers genuinely run concurrently).
    """
    if _np is not None and isinstance(values, _np.ndarray):
        present = values[values >= 0]
        dropped = int((present >= size).sum())
        in_domain = present[present < size]
        if not len(in_domain):
            return {}, dropped
        counts = _np.bincount(in_domain)
        nonzero = _np.nonzero(counts)[0]
        return {int(v): int(counts[v]) for v in nonzero}, dropped
    tally: Dict[int, int] = {}
    dropped = 0
    for value in values:
        if value is None or value < 0:
            continue
        if value >= size:
            dropped += 1
        else:
            tally[value] = tally.get(value, 0) + 1
    return tally, dropped


def _chunk_max(timestamps: Optional[Sequence[float]]) -> Optional[float]:
    """Max timestamp of a chunk (None when absent/empty) — cooldown bound."""
    if timestamps is None or len(timestamps) == 0:
        return None
    if _np is not None and isinstance(timestamps, _np.ndarray):
        return float(timestamps.max())
    return max(timestamps)


class _MergeEntry(NamedTuple):
    """Picklable batch-entry snapshot of one speculating run's slot.

    The run's kernel shape and constants, its squaring routine, and its
    packed kernel state (:func:`~repro.stat4.compiled.pack_frequency_state`).
    Built during the submit phase *without* calling ``_state_for`` (slot
    repurposing must still happen in apply order), shipped to the
    speculating worker, and kept by the parent as the reference the
    tracker-fixpoint check compares the live slot against.  A snapshot
    that turns out wrong — the apply phase resets the slot, or an earlier
    run of the same batch mutates it first — simply fails the check, and
    the chunk falls back to fold/replay; exactness never depends on the
    snapshot being right.
    """

    shape: KernelShape
    constants: KernelConstants
    square: Any
    state: Tuple[Any, ...]


def _kernel_list(column: Any) -> List[Any]:
    """A chunk column as the plain list a generated kernel reads
    (value-free packets as ``-1``)."""
    if hasattr(column, "tolist"):
        return column.tolist()
    return [-1 if value is None else value for value in column]


def _speculate(
    entry: _MergeEntry, values: Any, timestamps: Any, encode: bool
) -> Tuple[Any, int, bool, Tuple[Any, ...]]:
    """Run the serial generated kernel on one chunk from the snapshot.

    Returns the claim the reconciler may adopt: ``(records, observed,
    synced, exit_state)``, with the digest records packed into one int64
    blob when ``encode`` (the process-pool ship-back shape).
    """
    records: List[Tuple[int, ...]] = []
    kernel = compiled_kernel(entry.shape, entry.constants)
    _dropped, observed, synced, exit_state = kernel(
        _kernel_list(values),
        _kernel_list(timestamps),
        entry.square,
        records,
        *copy_frequency_state(entry.state),
    )
    shipped: Any = records
    if encode and records:
        try:
            shipped = encode_digest_records(records)
        except OverflowError:  # a field beyond int64: ship the raw tuples
            shipped = records
    return shipped, observed, synced, exit_state


def _tally_task(
    values: Sequence[Optional[int]],
    size: int,
    timestamps: Optional[Sequence[float]] = None,
    entry: Optional[_MergeEntry] = None,
    encode: bool = False,
) -> Tuple[Dict[int, int], int, Optional[float], Any]:
    """Worker task over in-memory chunks (thread views or pickled lists):
    the chunk's tally, its max timestamp, and — when a snapshot was
    shipped — the speculative kernel run."""
    tally, dropped = _tally_chunk(values, size)
    claim = None
    if entry is not None:
        claim = _speculate(entry, values, timestamps, encode)
    return tally, dropped, _chunk_max(timestamps), claim


def _tally_task_shm(  # worker-context
    values_desc: ColumnDescriptor,
    start: int,
    stop: int,
    size: int,
    ts_desc: Optional[ColumnDescriptor] = None,
    entry: Optional[_MergeEntry] = None,
) -> Tuple[Dict[int, int], int, Optional[float], Any]:
    """Worker task over shared-memory columns: attach, read in place.

    The pickled inputs are descriptors plus chunk bounds (~100 bytes) and,
    for the speculating chunk, the slot snapshot; the chunk's rows never
    cross the process boundary.  Views are dropped before the segment
    handle closes so the parent's unlink can reclaim the memory promptly.
    """
    with attach_column(values_desc) as column:
        window = column.values[start:stop]
        tally, dropped = _tally_chunk(window, size)
        values = window.tolist() if entry is not None else None
        del window
    max_ts: Optional[float] = None
    timestamps = None
    if ts_desc is not None:
        with attach_column(ts_desc) as column:
            window = column.values[start:stop]
            max_ts = _chunk_max(window)
            timestamps = window.tolist() if entry is not None else None
            del window
    claim = None
    if entry is not None:
        claim = _speculate(entry, values, timestamps, encode=True)
    return tally, dropped, max_ts, claim



class ParallelBatchEngine(BatchEngine):
    """A :class:`BatchEngine` that fans dense frequency runs onto a pool.

    Args:
        stat4: the library instance to drive.
        workers: worker count; ``1`` (the default) delegates every batch
            to the serial engine, so ``workers=1`` and ``workers=N`` are
            interchangeable bit for bit.
        executor: ``"thread"`` (the default: a thread pool over zero-copy
            column views) or ``"process"`` (a process pool; chunks travel
            as shared-memory descriptors, or picklable lists when
            ``share_columns=False``).
        min_chunk: smallest per-worker chunk worth dispatching; batches or
            runs below ``2 * min_chunk`` stay serial (pool overhead would
            dominate).
        share_columns: back process-pool chunks with
            ``multiprocessing.shared_memory`` segments (the zero-copy
            path).  ``False`` re-ships plain value lists per task — the
            pre-zero-copy behaviour, kept as an A/B knob and fallback.
        measure_shipping: account the pickled bytes of every process-pool
            task payload in ``shipped_bytes`` / ``shipped_tasks`` /
            ``last_batch_shipped_bytes`` (bench instrumentation; adds a
            ``pickle.dumps`` per task, so off by default).

    Chunk accounting (cumulative across batches; every dispatched chunk
    lands in exactly one): ``merge_adopted_chunks`` fixpoint-proven
    speculations installed, ``merge_folded_chunks`` provably-silent folds,
    ``merge_replayed_chunks`` serial kernel replays (the boundary-crossing
    rate).
    """

    def __init__(
        self,
        stat4: Stat4,
        workers: int = 1,
        executor: str = "thread",
        min_chunk: int = 512,
        share_columns: bool = True,
        measure_shipping: bool = False,
    ):
        super().__init__(stat4)
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        if executor not in _EXECUTOR_KINDS:
            raise ValueError(
                f"unknown executor {executor!r}; pick one of {_EXECUTOR_KINDS}"
            )
        self.workers = workers
        self.executor = executor
        self.min_chunk = min_chunk
        self.share_columns = share_columns
        self.measure_shipping = measure_shipping
        self.shipped_bytes = 0
        self.shipped_tasks = 0
        self.last_batch_shipped_bytes = 0
        self.merge_adopted_chunks = 0
        self.merge_folded_chunks = 0
        self.merge_replayed_chunks = 0

    # -- fan-out policy -------------------------------------------------------

    @staticmethod
    def _fan_out_mode(spec: TrackSpec) -> Optional[str]:
        """``"merge"`` if a run of this spec fans out, ``None`` if serial.

        Consumes the analyzer-derived eligibility table: the spec is
        projected onto its kernel shape (every shape field read
        symmetrically — ``kind``, tracker presence, ``k_sigma``,
        ``percentile_alert``) and looked up in the table the dataflow
        pass derived from the kernel ASTs.

        Spec-only on purpose: deciding from the spec (a tracker exists iff
        ``spec.percent`` is set) means no ``_state_for`` call during the
        submit phase, so slot repurposing still happens in apply order.
        """
        table, shape_key_of_spec = _eligibility()
        return table.get(shape_key_of_spec(spec))

    # -- chunk preparation ----------------------------------------------------

    def _run_full_coverage(
        self, batch: PacketBatch, spec: TrackSpec, segment: List[_Event]
    ) -> bool:
        """Single-stage run covering every packet in order — the common
        every-packet-matches case, where the batch columns ARE the run's
        event streams and can be shipped without gathering."""
        m = len(segment)
        return (
            m == len(batch)
            and len(self.stat4.binding_tables) == 1
            and segment[0][0] == 0
            and segment[-1][0] == m - 1
        )

    def _run_columns(
        self,
        batch: PacketBatch,
        spec: TrackSpec,
        segment: List[_Event],
        need_ts: bool,
        as_arrays: bool,
    ) -> Tuple[Any, Optional[Any]]:
        """The run's event-ordered value (and timestamp) streams.

        ``as_arrays=True`` returns contiguous encoded columns (``None``
        → ``-1``) ready for zero-copy slicing or shared-memory packing;
        ``False`` returns plain lists (the picklable legacy shape).
        """
        if self._run_full_coverage(batch, spec, segment):
            if as_arrays:
                return (
                    batch.values_array_for(spec),
                    batch.timestamps_array() if need_ts else None,
                )
            return batch.values_for(spec), batch.timestamps if need_ts else None
        values = batch.values_for(spec)
        timestamps = batch.timestamps
        column = [values[pkt] for pkt, _stage, _spec in segment]
        ts = (
            [timestamps[pkt] for pkt, _stage, _spec in segment]
            if need_ts
            else None
        )
        if as_arrays:
            encoded = encode_column(column)
            if ts is not None:
                if _np is not None:
                    ts = _np.asarray(ts, dtype=_np.float64)
                else:
                    import array as _array

                    ts = _array.array("d", ts)
            return encoded, ts
        return column, ts

    def _chunk_bounds(self, m: int) -> List[Tuple[int, int]]:
        """Contiguous ``[start, stop)`` windows, at most one per worker."""
        chunk = -(-m // self.workers)  # ceil
        return [(i, min(i + chunk, m)) for i in range(0, m, chunk)]

    def _account_shipping(self, payload: Any) -> None:
        if not self.measure_shipping:
            return
        nbytes = len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
        self.shipped_bytes += nbytes
        self.last_batch_shipped_bytes += nbytes
        self.shipped_tasks += 1

    def _merge_entry(self, spec: TrackSpec) -> _MergeEntry:
        """Batch-entry snapshot of a speculating run's slot (submit phase).

        Deliberately avoids ``_state_for``: slot repurposing must still
        happen in apply order.  When the slot does not exist yet (or is
        bound to a different spec and will be reset), the snapshot is the
        fresh zero state the apply phase's reset produces; if that guess
        is wrong — e.g. an earlier run of the same batch mutates the slot
        first — the merge-time fixpoint check rejects the speculation and
        the chunk falls back to fold/replay.
        """
        stat4 = self.stat4
        state = stat4._states.get(spec.dist)
        if state is not None and state.spec == spec:
            packed = self._packed_state(state)
        else:
            state = DistributionState.fresh(spec, stat4.config.counter_size)
            packed = pack_frequency_state(
                state, [0] * stat4.config.counter_size, 0
            )
        return _MergeEntry(
            KernelShape.of_spec(spec),
            KernelConstants.of_spec(spec, stat4.config, stat4.counters.width),
            state.stats.square,
            packed,
        )

    def _packed_state(self, state: DistributionState) -> Tuple[Any, ...]:
        """The live slot's packed kernel state, registers included."""
        stat4 = self.stat4
        dist = state.spec.dist
        base = stat4.config.cell_index(dist, 0)
        return pack_frequency_state(
            state,
            stat4.counters._cells[base : base + stat4.config.counter_size],
            stat4.reg_pos._cells[dist],
        )

    def _submit_run(
        self,
        pool: Executor,
        batch: PacketBatch,
        spec: TrackSpec,
        segment: List[_Event],
        size: int,
        entry: Optional[_MergeEntry],
    ) -> Tuple[List[Tuple[int, int]], List[Any], Optional[SharedColumnSegment]]:
        """Dispatch one run's chunk tasks; returns (bounds, futures, shm).

        Thread pools get zero-copy views of the encoded columns.  Process
        pools get shared-memory descriptors (``share_columns=True``) or
        pickled list chunks (the legacy fallback, also taken when segment
        creation fails — e.g. no ``/dev/shm``).  A speculating run
        (``entry`` given) ships timestamps with every chunk and its
        snapshot with the first chunk only: later chunks' entry states
        almost always differ from the batch-entry snapshot, so their
        speculation would be wasted.
        """
        bounds = self._chunk_bounds(len(segment))
        futures: List[Any] = []
        need_ts = entry is not None
        if self.executor == "thread":
            column, ts = self._run_columns(
                batch, spec, segment, need_ts, as_arrays=True
            )
            for i, (start, stop) in enumerate(bounds):
                vwin = slice_backing(column, start, stop)
                twin = slice_backing(ts, start, stop) if ts is not None else None
                futures.append(
                    pool.submit(
                        _tally_task, vwin, size, twin, entry if i == 0 else None
                    )
                )
            return bounds, futures, None
        segment_shm: Optional[SharedColumnSegment] = None
        if self.share_columns:
            try:
                column, ts = self._run_columns(
                    batch, spec, segment, need_ts, as_arrays=True
                )
                packed = [("values", "q", column)]
                if ts is not None:
                    packed.append(("timestamps", "d", ts))
                segment_shm = SharedColumnSegment.pack(packed)
            except Exception:
                segment_shm = None  # no usable /dev/shm: ship lists below
        if segment_shm is not None:
            values_desc = segment_shm.descriptors["values"]
            ts_desc = segment_shm.descriptors.get("timestamps")
            for i, (start, stop) in enumerate(bounds):
                payload: Tuple[Any, ...] = (values_desc, start, stop, size, ts_desc)
                if i == 0 and entry is not None:
                    payload += (entry,)
                self._account_shipping(payload)
                futures.append(pool.submit(_tally_task_shm, *payload))
            return bounds, futures, segment_shm
        column, ts = self._run_columns(
            batch, spec, segment, need_ts, as_arrays=False
        )
        for i, (start, stop) in enumerate(bounds):
            payload = (
                column[start:stop],
                size,
                ts[start:stop] if ts is not None else None,
                entry if i == 0 else None,
                True,
            )
            self._account_shipping(payload)
            futures.append(pool.submit(_tally_task, *payload))
        return bounds, futures, None

    # -- entry point ----------------------------------------------------------

    def process(self, batch: PacketBatch) -> BatchResult:
        """Ingest one batch, fanning eligible runs onto the pool.

        Two phases: *submit* walks the per-distribution runs in scalar
        order and enqueues the chunk tasks of every eligible run (touching
        no engine state); *apply* then replays the same run order on the
        main thread, resolving each fanned-out run chunk by chunk
        (:meth:`_apply_chunks`) and running the serial kernels everywhere
        else.  All state mutation happens in the apply phase, in scalar
        order, on one thread.  Shared-memory segments created for this
        batch are released before returning (crash sweeps are handled by
        :func:`shutdown_pools` and the columns module's signal hook).
        """
        if self.workers <= 1 or len(batch) < 2 * self.min_chunk:
            return super().process(batch)
        stat4 = self.stat4
        n = len(batch)
        result = BatchResult(packets=n)
        stat4.packets_seen += n
        events = self._match(batch)
        sink = _DigestSink()
        pool = _pool(self.executor, self.workers)
        size = stat4.config.counter_size
        self.last_batch_shipped_bytes = 0
        segments: List[SharedColumnSegment] = []
        plan = []
        try:
            for dist in sorted(events):
                for spec, segment in self._split_runs(events[dist]):
                    if (
                        self._fan_out_mode(spec) is None
                        or len(segment) < 2 * self.min_chunk
                    ):
                        plan.append((spec, segment, None, None, None))
                        continue
                    speculate = kernel_of(KernelShape.of_spec(spec)) == "exact_loop"
                    entry = self._merge_entry(spec) if speculate else None
                    bounds, futures, shm = self._submit_run(
                        pool, batch, spec, segment, size, entry
                    )
                    if shm is not None:
                        segments.append(shm)
                    plan.append((spec, segment, bounds, futures, entry))
            for spec, segment, bounds, futures, entry in plan:
                if futures is None:
                    self._process_run(spec, segment, batch, sink, result)
                else:
                    self._apply_chunks(
                        spec, segment, batch, bounds, futures, entry, sink, result
                    )
            result.digests.extend(sink.in_scalar_order())
        finally:
            for shm in segments:
                shm.release()
        return result

    # -- apply phase ----------------------------------------------------------

    def _apply_chunks(
        self,
        spec: TrackSpec,
        segment: List[_Event],
        batch: PacketBatch,
        bounds: List[Tuple[int, int]],
        futures: List[Any],
        entry: Optional[_MergeEntry],
        sink: _DigestSink,
        result: BatchResult,
    ) -> None:
        """Resolve a fanned-out run's chunks in order.

        A chunk is adopted (the speculating chunk, when the tracker
        fixpoint holds), folded (every digest stream provably silent —
        always, for a digest-free shape), or replayed through the serial
        generated kernel.  Every resolution leaves the live slot state and
        its registers exactly where the serial kernel would after that
        chunk, so each chunk's entry state is the true serial one (module
        docstring has the argument).
        """
        result.kernels["merge_parallel"] = (
            result.kernels.get("merge_parallel", 0) + len(segment)
        )
        state = self.stat4._state_for(spec)
        values = batch.values_for(spec)
        for (start, stop), future in zip(bounds, futures):
            tally, dropped, max_ts, claim = future.result()
            if claim is not None and self._at_fixpoint(state, entry):
                # The worker ran the serial kernel from exactly the live
                # entry state, so its claimed exit IS the serial exit.
                state.values_dropped += dropped
                self._adopt(spec, state, claim, segment, start, batch, sink)
                self.merge_adopted_chunks += 1
            elif self._chunk_silent(spec, state, tally, max_ts):
                # No digest can fire, so the tracker and the moments
                # decouple and the chunk folds.
                state.values_dropped += dropped
                if tally:
                    self._apply_counts(state, tally.items())
                if state.tracker is not None:
                    self._walk_tracker(state, segment[start:stop], values)
                self.merge_folded_chunks += 1
            else:
                self._library.run(spec, state, segment[start:stop], batch, sink)
                self.merge_replayed_chunks += 1
    def _at_fixpoint(self, state: DistributionState, entry: _MergeEntry) -> bool:
        """The tracker fixpoint check: is the live slot exactly the
        snapshot the worker's kernel run started from?

        Everything the kernel reads is compared — moments and squaring
        routine, the full tracker state, both cooldown stamps, the
        ``reg_pos`` register, and every cell register.
        """
        return (
            state.stats.square is entry.square
            and self._packed_state(state) == entry.state
        )

    def _chunk_silent(
        self,
        spec: TrackSpec,
        state: DistributionState,
        tally: Dict[int, int],
        max_ts: Optional[float],
    ) -> bool:
        """Whether no packet of a chunk can emit a digest.

        A k·σ digest needs an observation and a percentile digest needs a
        percentile alert; either needs ``stats.count`` to reach
        ``min_samples`` within the chunk (N grows by at most one per
        packet) and the stream's cooldown window not to cover the chunk.
        """
        headroom = state.stats.count + sum(tally.values()) < spec.min_samples
        cooldown = max(self.stat4.config.alert_cooldown, spec.cooldown)

        def covered(stamp: Optional[float]) -> bool:
            return (
                stamp is not None
                and cooldown > 0
                and max_ts is not None
                and (max_ts - stamp) < cooldown
            )

        k_silent = (
            spec.k_sigma <= 0 or not tally or headroom or covered(state.last_alert)
        )
        p_silent = (
            not spec.percentile_alert
            or headroom
            or covered(state.last_percentile_alert)
        )
        return k_silent and p_silent

    def _adopt(
        self,
        spec: TrackSpec,
        state: DistributionState,
        claim: Tuple[Any, int, bool, Tuple[Any, ...]],
        segment: List[_Event],
        start: int,
        batch: PacketBatch,
        sink: _DigestSink,
    ) -> None:
        """Install a fixpoint-proven chunk's claimed exit state and digests."""
        records, observed, synced, exit_state = claim
        if isinstance(records, (bytes, bytearray)):
            records = decode_digest_records(records)
        library = self._library
        library.install_frequency_state(state, exit_state, observed, synced)
        library.install_records(spec, records, segment, start, batch.timestamps, sink)
