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
- *within* one batch, the work fanned out to workers is chunked value
  **tallying** for dense frequency runs (plus one speculative kernel run
  for the merge shapes); everything order-dependent is reconciled on the
  main thread from the per-chunk sub-tallies, or runs the serial kernels
  outright.

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

Fan-out eligibility and the exactness argument
----------------------------------------------

:meth:`ParallelBatchEngine._fan_out_mode` classifies each run of equal
specs.  The invariant behind all four fanned-out modes is the same: for a
dense frequency slot, after any prefix of a run the moments (N, Xsum,
Xsumsq) and the cell registers are **order-independent functions of the
per-value occurrence counts** — each occurrence's ``observe_frequency``
depends only on its own cell's prior count, the telescoped
``observe_frequencies`` identity folds any grouping of occurrences to the
same sums, and cell writes wrap through ``value & mask``, which composes
modularly.  So per-chunk tallies merged by per-value addition land on
exactly the serial state.  What differs per mode is what must be replayed
serially on top:

- ``"tally"`` (no tracker, no k·σ): nothing.  Merge the tallies, fold once.
- ``"tracked"`` (``spec.percent`` set, no k·σ, no percentile alert): the
  percentile tracker walks one step per packet, which is order-dependent —
  but the tracker never feeds the cells or moments, and with no
  ``percentile_alert`` it emits nothing mid-run.  Workers tally; the main
  thread folds the merged counts, then replays the run's exact
  observe/tick event sequence through the tracker (the vectorized
  ``_tracker_walk`` on numpy, the scalar tracker otherwise) and syncs
  ``reg_pos``/``reg_low``/``reg_high`` once, under the same write gate as
  the serial ``_percentile_kernel`` (an observation landed, or the tracker
  already had a position and a value-free packet ticked it).  Digest
  stream: empty in this mode, trivially identical.
- ``"alerting"`` (no tracker, ``k_sigma > 0``): the k·σ judgement reads
  the live moments *at each packet*, so alert decisions must replay in
  order on the main thread.  The worker tallies are not wasted: a whole
  chunk is **folded without per-packet replay when no packet in it can
  possibly alert**, which is provable from the sub-tally alone in two
  cases:

  * ``stats.count + occurrences < spec.min_samples`` — every
    ``observe_frequency`` grows N by at most 1, so N stays below the
    ``min_samples`` gate for every packet of the chunk;
  * the cooldown window covers the chunk — ``last_alert`` is set,
    ``cooldown > 0``, and ``chunk_max_ts − last_alert < cooldown``:
    every packet's ``now ≤ chunk_max_ts``, and since no alert fires in a
    folded chunk, ``last_alert`` cannot move mid-chunk.

  A folded chunk costs O(distinct values) through ``_apply_counts``; any
  other chunk **replays**: the serial generated kernel
  (:mod:`repro.stat4.compiled`) runs on the chunk's sub-segment from the
  live state, exactly as :class:`~repro.stat4.batch.BatchEngine` would.
  Every chunk ends with the live state and registers correct, so the next
  chunk's gate reads the true serial state.

- ``"merge"`` (tracker plus a digest stream: ``frequency+tracked+alerting``
  and both ``percentile_alert`` shapes): the OctoSketch-style speculate-
  and-reconcile scheme.  These runs interleave *two* replay streams —
  ``_sync_percentile`` reads the ``reg_pos`` register per packet, and
  percentile-move digests interleave with k·σ digests order-dependently —
  so no per-chunk summary derives the stream.  Every worker still
  tallies, and the first chunk's worker additionally **speculates**: it
  runs the same generated kernel the serial engine runs, from a
  batch-entry snapshot of the slot (its flat kernel state, see
  :func:`~repro.stat4.compiled.pack_frequency_state`), and ships back the
  kernel's exit state and digest records.  The single-threaded reconciler
  then walks the chunks in order and resolves each deterministically:

  * **adopt** — the *tracker fixpoint* check compares the live slot's
    packed kernel state (moments, tracker, cooldown stamps, every cell,
    the ``reg_pos`` register) against the snapshot the worker started
    from.  When they are equal, the worker ran the serial kernel on the
    serial entry state, so its exit state and digest stream are the
    serial ones by construction: the exit is installed as a serial run's
    would be, and the digests are re-tagged onto the shared sink.
  * **fold** — a chunk whose *both* streams are provably silent merges
    without replay: the ``min_samples`` headroom and covering-cooldown
    arguments of the alerting mode, applied per stream against its own
    stamp (``last_alert`` for k·σ, ``last_percentile_alert`` for
    percentile moves; the percentile gate also reads ``stats.count``, so
    the same headroom bound covers value-free ticks).  With no digest
    possible, the tracker and the moments are independent state machines
    — neither reads the other — so the chunk folds through
    ``_apply_counts`` plus a resumable tracker walk
    (:meth:`~repro.stat4.batch.BatchEngine._tracker_replay`) and one
    position-register sync.
  * **replay** — anything else runs the serial kernel on the chunk's
    sub-segment, as in the alerting mode.

Since the concurrency analyzer landed, this argument is *checked*, not
just written down: :data:`DECLARED_ELIGIBILITY` below is the table the
argument claims, but :meth:`ParallelBatchEngine._fan_out_mode` consumes
the table :func:`repro.analysis.concurrency.derive_eligibility_table`
derives from the kernel ASTs.  The first fan-out decision cross-checks
the two and refuses to run on drift (the ST500 rule; ``repro lint
--concurrency`` reports the disagreement in full).

``tests/stat4/test_parallel_differential.py`` proves scalar vs threads vs
shared-memory processes bit-identical — registers, digest order, alert
counts — for every ``DistributionKind`` on both backends.
"""

from __future__ import annotations

import atexit
import pickle
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.stat4.batch import (
    BatchEngine,
    BatchResult,
    PacketBatch,
    _DigestSink,
    _Event,
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

try:  # pragma: no cover - exercised via both-backend CI legs
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

__all__ = [
    "DECLARED_ELIGIBILITY",
    "ParallelBatchEngine",
    "split_batch",
    "shutdown_pools",
]

_EXECUTOR_KINDS = ("auto", "thread", "process", "serial")

#: The fan-out table the exactness argument above claims, keyed by kernel
#: shape (:func:`repro.stat4.distributions.shape_key_of_spec`); values
#: are the fan-out mode or ``None`` for serial.  The engine does NOT
#: consume this table directly — ``_fan_out_mode`` consumes the table the
#: concurrency analyzer derives from the kernel ASTs, and the first
#: fan-out decision raises if the two disagree (rule ST500).  This
#: declaration exists so a kernel change that silently shifts a verdict
#: is an ERROR, not a silent behavior change.
DECLARED_ELIGIBILITY: Dict[str, Optional[str]] = {
    "frequency": "tally",
    "frequency+alerting": "alerting",
    "frequency+tracked": "tracked",
    "frequency+tracked+alerting": "merge",
    "frequency+tracked+percentile_alert": "merge",
    "frequency+tracked+alerting+percentile_alert": "merge",
    "time_series": None,
    "time_series+alerting": None,
    "sparse_frequency": None,
    "sparse_frequency+alerting": None,
}

#: Lazily resolved ``(derived_table, shape_key_of_spec)`` pair; populated
#: (and cross-checked against the declaration) on the first fan-out
#: decision so importing this module never pulls in the analyzer.
_ELIGIBILITY: Optional[Tuple[Dict[str, Optional[str]], Any]] = None


def _eligibility() -> Tuple[Dict[str, Optional[str]], Any]:
    global _ELIGIBILITY
    if _ELIGIBILITY is None:
        from repro.analysis.concurrency import (
            derive_eligibility_table,
            shape_key_of_spec,
        )

        derived = derive_eligibility_table()
        if derived != DECLARED_ELIGIBILITY:
            drift = sorted(
                key
                for key in set(derived) | set(DECLARED_ELIGIBILITY)
                if derived.get(key) != DECLARED_ELIGIBILITY.get(key)
            )
            raise RuntimeError(
                "parallel fan-out eligibility drift: the dataflow-derived "
                f"table disagrees with DECLARED_ELIGIBILITY on {drift}; "
                "run `repro lint --concurrency` for the ST500 report"
            )
        _ELIGIBILITY = (derived, shape_key_of_spec)
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
    """Picklable batch-entry snapshot of one merge-mode run's slot.

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


def _merge_tallies(
    parts: Iterable[Tuple[Dict[int, int], int]]
) -> Tuple[List[Tuple[int, int]], int]:
    """Sum per-chunk tallies into one ascending ``(value, count)`` list.

    Frequency-cell addition is the exact-merge rule: occurrence counts per
    value add across any partition of the run, and ascending order matches
    the serial ``_tally`` output, so the downstream ``_apply_counts`` call
    sees byte-for-byte the same input as the single-worker path.
    """
    total: Dict[int, int] = {}
    dropped = 0
    for tally, chunk_dropped in parts:
        dropped += chunk_dropped
        for value, count in tally.items():
            total[value] = total.get(value, 0) + count
    return sorted(total.items()), dropped


class ParallelBatchEngine(BatchEngine):
    """A :class:`BatchEngine` that fans independent tally work onto a pool.

    Args:
        stat4: the library instance to drive.
        backend: kernel backend, as for :class:`BatchEngine`.
        workers: worker count; ``1`` (the default) delegates every batch
            to the serial engine, so ``workers=1`` and ``workers=N`` are
            interchangeable bit for bit.
        executor: ``"auto"``/``"thread"`` (thread pool over zero-copy
            column views), ``"process"`` (process pool; chunks travel as
            shared-memory descriptors, or picklable lists when
            ``share_columns=False``), or ``"serial"`` (never fan out —
            debugging aid).
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

    Merge-engine accounting (cumulative across batches):
    ``merge_adopted_chunks`` fixpoint-proven speculations installed,
    ``merge_folded_chunks`` provably-silent folds,
    ``merge_replayed_chunks`` serial kernel replays (the
    boundary-crossing rate).
    """

    def __init__(
        self,
        stat4: Stat4,
        backend: str = "auto",
        workers: int = 1,
        executor: str = "auto",
        min_chunk: int = 512,
        share_columns: bool = True,
        measure_shipping: bool = False,
    ):
        super().__init__(stat4, backend=backend)
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
        """Classify how a run's work distributes (see the module docstring).

        Consumes the analyzer-derived eligibility table: the spec is
        projected onto its kernel shape (every shape field read
        symmetrically — ``kind``, tracker presence, ``k_sigma``,
        ``percentile_alert``) and looked up in the table the dataflow
        pass derived from the kernel ASTs, cross-checked once against
        :data:`DECLARED_ELIGIBILITY`.

        Spec-only on purpose: deciding from the spec (a tracker exists iff
        ``spec.percent`` is set) means no ``_state_for`` call during the
        submit phase, so slot repurposing still happens in apply order.

        Returns:
            ``"tally"`` — merge-exact: merge-only.
            ``"tracked"`` — replay-exact via the tracker stream: merge
            plus a serial tracker replay.
            ``"alerting"`` — replay-exact via the alert stream: merge
            plus a serial alert replay with per-chunk gate folding.
            ``"merge"`` — merge-replay-exact: first-chunk speculation
            reconciled by adopt/fold/replay (see the module docstring).
            ``None`` — order-dependent: run the serial kernels.
        """
        table, shape_key_of_spec = _eligibility()
        return table.get(shape_key_of_spec(spec))

    @staticmethod
    def _fan_out_eligible(spec: TrackSpec) -> bool:
        """Whether any fan-out mode applies (back-compat predicate)."""
        return ParallelBatchEngine._fan_out_mode(spec) is not None

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
        """Batch-entry snapshot of a merge run's slot (submit phase).

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
        pool_kind: str,
        batch: PacketBatch,
        spec: TrackSpec,
        segment: List[_Event],
        size: int,
        need_ts: bool,
        entry: Optional[_MergeEntry] = None,
    ) -> Tuple[List[Tuple[int, int]], List[Any], Optional[SharedColumnSegment]]:
        """Dispatch one run's chunk tasks; returns (bounds, futures, shm).

        Thread pools get zero-copy views of the encoded columns.  Process
        pools get shared-memory descriptors (``share_columns=True``) or
        pickled list chunks (the legacy fallback, also taken when segment
        creation fails — e.g. no ``/dev/shm``).  A merge-mode run
        (``entry`` given) ships its snapshot with the first chunk only:
        later chunks' entry states almost always differ from the
        batch-entry snapshot, so their speculation would be wasted.
        """
        bounds = self._chunk_bounds(len(segment))
        futures: List[Any] = []
        if pool_kind != "process":
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
        """Ingest one batch, fanning eligible tally work onto the pool.

        Two phases: *submit* walks the per-distribution runs in scalar
        order and enqueues chunk tallies for every eligible run (touching
        no engine state); *apply* then replays the same run order on the
        main thread, merging worker tallies where they exist, replaying
        tracker walks and alert decisions serially for the widened modes,
        and running the serial kernels everywhere else.  All state
        mutation happens in the apply phase, in scalar order, on one
        thread.  Shared-memory segments created for this batch are
        released before returning (crash sweeps are handled by
        :func:`shutdown_pools` and the columns module's signal hook).
        """
        if (
            self.workers <= 1
            or self.executor == "serial"
            or len(batch) < 2 * self.min_chunk
        ):
            return super().process(batch)
        stat4 = self.stat4
        n = len(batch)
        result = BatchResult(packets=n, backend=self.backend)
        stat4.packets_seen += n
        events = self._match(batch)
        sink = _DigestSink()
        pool_kind = "process" if self.executor == "process" else "thread"
        pool = _pool(pool_kind, self.workers)
        size = stat4.config.counter_size
        self.last_batch_shipped_bytes = 0
        segments: List[SharedColumnSegment] = []
        plan = []
        try:
            for dist in sorted(events):
                for spec, segment in self._split_runs(events[dist]):
                    mode = self._fan_out_mode(spec)
                    if mode is None or len(segment) < 2 * self.min_chunk:
                        plan.append((spec, segment, None, None, None, None))
                        continue
                    entry = self._merge_entry(spec) if mode == "merge" else None
                    bounds, futures, shm = self._submit_run(
                        pool,
                        pool_kind,
                        batch,
                        spec,
                        segment,
                        size,
                        need_ts=(mode in ("alerting", "merge")),
                        entry=entry,
                    )
                    if shm is not None:
                        segments.append(shm)
                    plan.append((spec, segment, mode, bounds, futures, entry))
            for spec, segment, mode, bounds, futures, entry in plan:
                if mode is None:
                    self._process_run(spec, segment, batch, sink, result)
                elif mode in ("tally", "tracked"):
                    self._apply_tally(spec, segment, batch, futures, result)
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

    def _apply_tally(
        self,
        spec: TrackSpec,
        segment: List[_Event],
        batch: PacketBatch,
        futures: List[Any],
        result: BatchResult,
    ) -> None:
        """Tally and tracked modes: fold the summed tallies into cells and
        moments, then — for a tracked run — replay the tracker walk.

        Exactness of the tracked mode: the tracker's state never feeds the
        cells or moments, so folding the merged tallies first cannot
        perturb it; the replay then walks the run's exact observe/tick
        sequence and syncs the position registers once under the serial
        ``_percentile_kernel``'s write gate.  No digests exist in either
        mode (no k·σ, no percentile alert), so the digest stream is
        trivially identical.
        """
        state = self.stat4._state_for(spec)
        counts, dropped = _merge_tallies(
            (outcome[0], outcome[1]) for outcome in (f.result() for f in futures)
        )
        state.values_dropped += dropped
        name = "frequency_parallel" if state.tracker is None else "percentile_parallel"
        result.kernels[name] = result.kernels.get(name, 0) + len(segment)
        if counts:
            self._apply_counts(state, counts)
        if state.tracker is not None:
            self._walk_tracker(state, segment, batch.values_for(spec))

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
        """Alerting and merge modes: resolve the run's chunks in order.

        A chunk is adopted (merge mode's speculating chunk, when the
        tracker fixpoint holds), folded (both digest streams provably
        silent), or replayed through the serial kernel.  Every resolution
        leaves the live slot state and its registers exactly where the
        serial kernel would after that chunk, so each chunk's entry state
        is the true serial one (module docstring has the argument).
        """
        merge = entry is not None
        name = "merge_parallel" if merge else "alert_parallel"
        result.kernels[name] = result.kernels.get(name, 0) + len(segment)
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
                if merge:
                    self.merge_folded_chunks += 1
            else:
                self._library.run(spec, state, segment[start:stop], batch, sink)
                if merge:
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
