# p4-ok-file — host-side batching fast path; the per-packet P4 semantics
# it replicates live (and are linted) in repro.stat4.library.
"""Batched Stat4 ingestion: the software fast path for heavy traffic.

The scalar :meth:`~repro.stat4.library.Stat4.process` walks one packet at a
time through binding lookup, value extraction, and the register updates of
Figure 4.  That is the right *specification* — it mirrors what the P4
pipeline does per packet — but as a software server it leaves throughput on
the table: every packet pays a full binding lookup, a value extraction, and
a lazy-σ recomputation even when ten thousand packets in a row hit the same
rule.

This module ingests packets in **array batches** while producing *register
and working state bit-identical to the scalar path* (the paper's
integer-only semantics are the spec; differential tests enforce equality):

- :class:`PacketBatch` — a structure-of-arrays view of many packets
  (timestamps, binding keys, per-source value columns), built from frame
  bytes (decoded column-wise by :mod:`repro.stat4.frames`), parsed
  contexts, or synthetic columns;
- :class:`BatchEngine` — applies a batch to a :class:`Stat4` instance.
  Binding lookups are memoized per unique key (entries are fixed for the
  duration of a batch, exactly like a pipeline between control-plane
  writes), matched packets are partitioned into per-distribution event
  streams in scalar order, and each stream runs the one *exact* kernel its
  shape dispatches to (:func:`kernel_of`):

  * dense frequency slots with no percentile tracker and no k·σ check use a
    counting kernel — occurrences are tallied per unique value, folded
    into the moments with the telescoped
    :meth:`~repro.core.stats.ScaledStats.observe_frequencies` identity, and
    the derived measures are synced once per batch (the final lazy-σ value
    is identical; only *how often* it was recomputed differs);
  * tracked frequency slots with no alerts use the same counting kernel for
    cells and moments plus a replay of the exact observe/tick sequence
    through the slot's own tracker — the one-step-per-packet walk of
    Figure 3, with the percentile registers synced once per run;
  * time-series slots scan for interval closes with the same
    ``now − start ≥ interval`` float comparison the scalar path evaluates
    and sum the in-between values in one step, calling the library's own
    ``_close_interval`` at each close so window/alert/silent-gap semantics
    stay byte-for-byte the library's;
  * everything order-dependent — dense frequency with a k·σ check or a
    percentile alert, and hashed sparse slots — runs a generated
    monomorphic per-packet loop (:mod:`repro.stat4.compiled`): the
    library's update inlined with every spec constant baked in, a sparse
    table's probe, claim and eviction inlined over its rows' cell lists
    (slots hashed once per unique key per run), and the derived-measure
    registers synced once per run.

The engine is plain Python and runs every batch on the calling thread,
in scalar order.  numpy is optional and used only where the data is
already an array: frame decoding (:mod:`repro.stat4.frames`) and the bulk
sparse slot hash.  Each of those picks numpy when it imports and a Python
loop otherwise; both give the same values.  :func:`split_batch` cuts a
trace into time-ordered chunks that any engine may process in turn.

What is *not* preserved: per-register read/write accounting and the
σ-recomputation counter (the batch path coalesces touches by design).
Every value a controller can observe — register contents, digests and their
order, alert counts, table hit statistics, drop counters — is identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.p4.packet import Packet
from repro.p4.parser import Parser
from repro.p4.switch import Digest, PacketContext, StandardMetadata
from repro.stat4.binding import TRACK_ACTION, binding_key_of
from repro.stat4.compiled import KernelLibrary
from repro.stat4.distributions import DistributionKind, KernelShape, TrackSpec
from repro.stat4.library import Stat4, _to_us

try:  # pragma: no cover - absence exercised by the no-numpy CI job
    import numpy as _np

    HAS_NUMPY = True
except ImportError:  # pragma: no cover
    _np = None
    HAS_NUMPY = False

if HAS_NUMPY:
    from repro.stat4.frames import decode_frames

__all__ = [
    "HAS_NUMPY",
    "GENERATED_KERNELS",
    "kernel_of",
    "PacketBatch",
    "BatchResult",
    "BatchEngine",
    "split_batch",
]

#: Value columns: one optional int per packet (None = no value of interest).
Column = List[Optional[int]]

_FRAME_SIZE = "frame.size"
_CONSTANT = "const"
#: The one user-metadata key a batch built from bytes carries: the frame
#: length, as ``ctx.user["frame_bytes"]`` on a per-packet parse.
_META_FRAME_BYTES = "meta.frame_bytes"

#: The binding key's parts (:func:`~repro.stat4.binding.binding_key_of`):
#: each is the field where its header is valid, else 0.
_KEY_FIELDS = (
    ("ethernet", "ether_type"),
    ("ipv4", "dst"),
    ("ipv4", "protocol"),
    ("tcp", "flags"),
)

#: Memoization miss sentinel (lookup results may legitimately be None).
_MISS = object()


#: Kernels that run a generated per-packet loop (:mod:`repro.stat4.compiled`);
#: every other kernel is a hand-written batched one in this module.
GENERATED_KERNELS = ("exact_loop", "sparse_fast")


def kernel_of(shape: KernelShape) -> str:
    """The one kernel that runs a shape — the dispatch table of
    :meth:`BatchEngine._process_run`, and the ``BatchResult.kernels`` name
    its events are counted under."""
    if shape.kind is DistributionKind.TIME_SERIES:
        return "time_series"
    if shape.kind is DistributionKind.SPARSE_FREQUENCY:
        return "sparse_fast"
    if shape.alerting or shape.percentile_alert:
        return "exact_loop"
    return "percentile_fast" if shape.tracked else "frequency_fast"


class PacketBatch:
    """A structure-of-arrays view of many packets.

    A batch is backed by one of three things: frame bytes decoded by
    :func:`~repro.stat4.frames.decode_frames` (:meth:`from_frames`,
    :meth:`from_trace` and :meth:`from_packets` with numpy), parsed
    contexts (:meth:`from_contexts`, and the per-packet parse without
    numpy), or synthetic value columns.

    Args:
        timestamps: per-packet switch-local times (seconds).
        keys: per-packet composite binding keys
            ``(ether_type, ipv4_dst, ip_protocol, tcp_flags)``.
        contexts: the parsed contexts backing the batch (value columns are
            derived lazily from them); None for synthetic batches.
        columns: raw per-source value columns for synthetic batches —
            ``{"ipv4.dst": [...], "meta.v": [...]}``, each one optional int
            per packet, None meaning the header/metadata is absent.
        frame_bytes: per-packet frame sizes for synthetic batches (defaults
            to 0 per packet, mirroring ``ctx.user.get("frame_bytes", 0)``).
    """

    __slots__ = (
        "timestamps",
        "keys",
        "contexts",
        "frame_bytes",
        "parse_errors",
        "_frames",
        "_raw_columns",
        "_value_columns",
    )

    def __init__(
        self,
        timestamps: Sequence[float],
        keys: Sequence[Tuple[int, int, int, int]],
        contexts: Optional[Sequence[PacketContext]] = None,
        columns: Optional[Dict[str, Column]] = None,
        frame_bytes: Optional[Sequence[int]] = None,
    ):
        if len(timestamps) != len(keys):
            raise ValueError("timestamps and keys must have equal length")
        self.timestamps: List[float] = list(timestamps)
        self.keys: List[Tuple[int, int, int, int]] = list(keys)
        self.contexts = list(contexts) if contexts is not None else None
        self.frame_bytes = list(frame_bytes) if frame_bytes is not None else None
        self.parse_errors = 0
        self._frames: Any = None
        self._raw_columns: Dict[str, Column] = dict(columns or {})
        self._value_columns: Dict[Tuple[Any, int, int], Column] = {}

    def __len__(self) -> int:
        return len(self.timestamps)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_contexts(cls, contexts: Sequence[PacketContext]) -> "PacketBatch":
        """Build a batch over already-parsed packet contexts."""
        return cls(
            timestamps=[ctx.meta.timestamp for ctx in contexts],
            keys=[binding_key_of(ctx) for ctx in contexts],
            contexts=contexts,
        )

    @classmethod
    def from_frames(
        cls,
        frames: Sequence[bytes],
        timestamps: Sequence[float],
        parser: Any,
        ingress_port: int = 0,
    ) -> "PacketBatch":
        """Build a batch from raw frames and their switch-local times.

        Frames the parser rejects are skipped and counted in
        ``parse_errors`` — the same packets a :class:`BehavioralSwitch`
        drops before its ingress (and before ``Stat4.process``) ever runs.
        With numpy the frames are decoded column-wise by
        :func:`~repro.stat4.frames.decode_frames`, which runs the parser's
        own state and header tables over the whole batch; without it (or
        for a parse graph the decoder does not reproduce) each frame goes
        through ``parser.parse``.  Both give the same rows, keys, times and
        columns.
        """
        decoded = (
            decode_frames(frames, parser)
            if HAS_NUMPY and isinstance(parser, Parser)
            else None
        )
        if decoded is None:
            return cls._parse_each(frames, timestamps, parser, ingress_port)
        columns, kept = decoded
        n = len(kept)
        rejected = len(frames) - n
        if rejected:
            rows = kept.tolist()
            frames = [frames[i] for i in rows]
            timestamps = [timestamps[i] for i in rows]
        key_parts = [
            columns.key_column(header, name, n) for header, name in _KEY_FIELDS
        ]
        batch = cls(
            timestamps=timestamps,
            keys=list(zip(*key_parts)),
            frame_bytes=list(map(len, frames)),
        )
        batch._frames = columns
        batch.parse_errors = rejected
        return batch

    @classmethod
    def _parse_each(
        cls,
        frames: Sequence[bytes],
        timestamps: Sequence[float],
        parser: Any,
        ingress_port: int,
    ) -> "PacketBatch":
        """The per-packet path: ``parser.parse`` and a context per frame."""
        contexts: List[PacketContext] = []
        skipped = 0
        for frame, when in zip(frames, timestamps):
            try:
                parsed = parser.parse(Packet(frame, created_at=when))
            except Exception:
                skipped += 1
                continue
            ctx = PacketContext(
                parsed=parsed,
                meta=StandardMetadata(ingress_port=ingress_port, timestamp=when),
            )
            ctx.user["frame_bytes"] = len(frame)
            contexts.append(ctx)
        batch = cls.from_contexts(contexts)
        batch.parse_errors = skipped
        return batch

    @classmethod
    def from_packets(
        cls,
        packets: Sequence[Any],
        parser: Any,
        timestamps: Optional[Sequence[float]] = None,
        ingress_port: int = 0,
    ) -> "PacketBatch":
        """Parse :class:`~repro.p4.packet.Packet`s into a batch (:meth:`from_frames`).

        Without ``timestamps`` each packet's ``created_at`` is its time.
        """
        if timestamps is None:
            timestamps = [getattr(packet, "created_at", 0.0) for packet in packets]
        return cls.from_frames(
            [packet.data for packet in packets], timestamps, parser, ingress_port
        )

    @classmethod
    def from_trace(
        cls, records: Iterable[Any], parser: Any, ingress_port: int = 0
    ) -> "PacketBatch":
        """Build a batch from :class:`~repro.traffic.trace.TraceRecord`s."""
        records = list(records)
        return cls.from_frames(
            [record.data for record in records],
            [record.timestamp for record in records],
            parser,
            ingress_port,
        )

    def select(self, indices: Sequence[int]) -> "PacketBatch":
        """A new batch holding the given rows, in the given order.

        The shard router uses this to split one ingest batch into
        per-owner sub-batches: every backing column (decoded frames,
        contexts, raw value columns, frame sizes) is subset consistently,
        so a sub-batch behaves exactly like a batch built from those
        packets alone.  ``parse_errors`` stays with the original batch —
        the dropped frames never made it into any row.
        """
        subset = PacketBatch(
            timestamps=[self.timestamps[i] for i in indices],
            keys=[self.keys[i] for i in indices],
            contexts=(
                [self.contexts[i] for i in indices]
                if self.contexts is not None
                else None
            ),
            columns={
                source: [column[i] for i in indices]
                for source, column in self._raw_columns.items()
            },
            frame_bytes=(
                [self.frame_bytes[i] for i in indices]
                if self.frame_bytes is not None
                else None
            ),
        )
        if self._frames is not None:
            subset._frames = self._frames.take(_np.asarray(indices, dtype=_np.int64))
        return subset

    def slice_view(self, start: int, stop: int) -> "PacketBatch":
        """A contiguous sub-batch over rows ``[start, stop)`` sharing storage.

        Where :meth:`select` copies element by element for arbitrary row
        sets, a contiguous window uses C-level list slicing for every
        column, already-derived value columns included, and a window of
        the decoded frames.  ``split_batch`` builds its chunks through
        this, so chunking a batch does no per-element Python work.
        """
        sub = PacketBatch.__new__(PacketBatch)
        sub.timestamps = self.timestamps[start:stop]
        sub.keys = self.keys[start:stop]
        sub.contexts = (
            self.contexts[start:stop] if self.contexts is not None else None
        )
        sub.frame_bytes = (
            self.frame_bytes[start:stop] if self.frame_bytes is not None else None
        )
        sub.parse_errors = 0
        sub._frames = (
            self._frames.take(slice(start, stop))
            if self._frames is not None
            else None
        )
        sub._raw_columns = {
            source: column[start:stop]
            for source, column in self._raw_columns.items()
        }
        sub._value_columns = {
            key: column[start:stop]
            for key, column in self._value_columns.items()
        }
        return sub

    # -- column access --------------------------------------------------------

    def raw_column(self, source: str) -> Column:
        """The raw (pre-shift/mask) per-packet values of one extract source.

        Mirrors :meth:`repro.stat4.extract.ExtractSpec.extract` exactly:
        missing headers/metadata yield None, ``frame.size`` defaults to 0.
        """
        column = self._raw_columns.get(source)
        if column is not None:
            return column
        if source == _FRAME_SIZE and self.contexts is None:
            column = list(self.frame_bytes or [0] * len(self))
        elif self._frames is not None:
            if source == _META_FRAME_BYTES:
                column = list(self.frame_bytes)
            elif source.startswith("meta."):
                column = [None] * len(self)
            else:
                column = self._frames.column(source, len(self))
        elif self.contexts is None:
            # Synthetic batch without this source: the header/metadata is
            # absent on every packet.
            column = [None] * len(self)
        elif source == _FRAME_SIZE:
            column = [ctx.user.get("frame_bytes", 0) for ctx in self.contexts]
        elif source.startswith("meta."):
            key = source[5:]
            column = [ctx.user.get(key) for ctx in self.contexts]
        else:
            header_name, _, field_name = source.partition(".")
            column = []
            append = column.append
            for ctx in self.contexts:
                # The hot path of ExtractSpec.extract with the per-call
                # validity and field-spec lookups flattened out.
                header = ctx.parsed.headers.get(header_name)
                if header is None or not header._valid:
                    append(None)
                else:
                    append(header._values[field_name].value)
        self._raw_columns[source] = column
        return column

    def values_for(self, spec: TrackSpec) -> Column:
        """Per-packet values of interest for one spec (None = no value).

        Applies the extract's shift/mask and the spec's accept filter — the
        exact pipeline of ``_apply`` in the scalar path.  Cached per
        ``(extract, accept_lo, accept_hi)`` so equal specs (across rebinds
        or repeated batches) share the work.
        """
        cache_key = (spec.extract, spec.accept_lo, spec.accept_hi)
        cached = self._value_columns.get(cache_key)
        if cached is not None:
            return cached
        extract = spec.extract
        shift = extract.shift
        mask = extract.mask
        lo = spec.accept_lo
        hi = spec.accept_hi
        out: Column = []
        append = out.append
        if extract.source == _CONSTANT:
            value = extract.constant_value >> shift
            if mask is not None:
                value &= mask
            if value < lo or (hi != 0 and value >= hi):
                value = None
            out = [value] * len(self)
        else:
            for item in self.raw_column(extract.source):
                if item is None:
                    append(None)
                    continue
                value = item >> shift
                if mask is not None:
                    value &= mask
                if value < lo or (hi != 0 and value >= hi):
                    append(None)
                else:
                    append(value)
        self._value_columns[cache_key] = out
        return out


@dataclass
class BatchResult:
    """What one batch produced.

    Attributes:
        packets: packets ingested (``Stat4.packets_seen`` grew by this).
        digests: every digest emitted, in scalar order (packet-major,
            binding-stage-minor).
        kernels: events handled per kernel, keyed by kernel name
            (:func:`kernel_of`: ``frequency_fast`` / ``percentile_fast`` /
            ``time_series`` for the hand-written kernels, ``exact_loop`` /
            ``sparse_fast`` for the generated loops).
    """

    packets: int = 0
    digests: List[Digest] = field(default_factory=list)
    kernels: Dict[str, int] = field(default_factory=dict)

    @property
    def alerts(self) -> int:
        """Digest count (every alert is a digest)."""
        return len(self.digests)


class _DigestSink:
    """A minimal stand-in for :class:`PacketContext` inside batch kernels.

    The library's update methods touch their context only through
    ``emit_digest``; the sink implements that one method, stamping each
    digest with the packet's timestamp (as ``PacketContext.emit_digest``
    does) and tagging it with ``(packet, stage)`` so the batch result can
    restore the scalar emission order.
    """

    __slots__ = ("records", "_pkt", "_stage", "_now")

    def __init__(self):
        self.records: List[Tuple[int, int, Digest]] = []
        self._pkt = 0
        self._stage = 0
        self._now = 0.0

    def set(self, pkt: int, stage: int, now: float) -> None:
        self._pkt = pkt
        self._stage = stage
        self._now = now

    def emit_digest(self, name: str, **fields: int) -> None:
        self.records.append(
            (
                self._pkt,
                self._stage,
                Digest(name=name, fields=dict(fields), timestamp=self._now),
            )
        )

    def in_scalar_order(self) -> List[Digest]:
        """The recorded digests re-ordered as the scalar loop emits them.

        A stable sort on ``(packet, stage)``: digests from one update keep
        their relative order, and per-distribution kernels that ran in any
        order collapse back to packet-major, stage-minor emission.

        This also holds **across chunk boundaries**: one sink serves
        exactly one batch, packet indices are batch-local and
        monotonically assigned, and every kernel finishes its batch before
        the next batch starts — so concatenating ``in_scalar_order()``
        outputs over consecutive (time-ordered) chunks of a trace yields
        precisely the digest sequence of the scalar loop over the whole
        trace.  ``tests/stat4/test_digest_ordering.py`` guards this.
        """
        return [d for _, _, d in sorted(self.records, key=lambda r: (r[0], r[1]))]


def split_batch(batch: PacketBatch, chunk_size: int) -> List[PacketBatch]:
    """Split a batch into time-ordered contiguous chunks.

    Processing the chunks in order through an engine leaves the same
    state as processing the whole batch at once (and as the scalar loop):
    every kernel finishes its chunk before the next starts, and
    :meth:`PacketBatch.slice_view` carries every backing column over with
    C-level list slices (and a window of the decoded frames).  An empty
    batch splits into no chunks at all (``[]``), not one empty chunk.
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


#: One matched application: (packet index, binding stage, spec).
_Event = Tuple[int, int, TrackSpec]


class BatchEngine:
    """Applies :class:`PacketBatch`es to a :class:`Stat4` instance.

    Args:
        stat4: the library instance to drive.
    """

    def __init__(self, stat4: Stat4):
        self.stat4 = stat4
        self._library = KernelLibrary(stat4)

    # -- entry point ----------------------------------------------------------

    def process(self, batch: PacketBatch) -> BatchResult:
        """Ingest one batch; returns the digests and kernel statistics.

        Table entries must not change mid-batch (they cannot: the batch is
        the data-plane unit of work, and control-plane writes land between
        batches — the same atomicity a pipeline gives a single packet).
        """
        stat4 = self.stat4
        n = len(batch)
        result = BatchResult(packets=n)
        if n == 0:
            return result
        stat4.packets_seen += n
        events = self._match(batch)
        sink = _DigestSink()
        for dist in sorted(events):
            self._process_dist(events[dist], batch, sink, result)
        digests = sink.in_scalar_order()
        result.digests.extend(digests)
        return result

    # -- binding resolution ---------------------------------------------------

    def _match(self, batch: PacketBatch) -> Dict[int, List[_Event]]:
        """Matched applications grouped by distribution slot, in scalar order.

        Within a batch every distinct composite key resolves once per
        table — entries are fixed for the batch — and the memo caches the
        destination event bucket alongside the spec, so repeat keys cost
        one dict probe.  The table's ``lookups``/``hits`` counters are set
        to exactly what n scalar lookups would have left behind.

        The scalar path applies stage 0 then stage 1 for packet i before
        touching packet i+1; slots are independent of each other, so each
        slot's event stream in packet-major, stage-minor order replayed
        sequentially reproduces the interleaved execution exactly — even
        when two stages feed the *same* slot with different specs (the
        repurpose-per-packet ping-pong case).  With one binding stage the
        single pass below is already packet-major; with several, the
        per-stage passes still fill each bucket packet-major, and bucket
        merging is only needed when two stages share a dist — handled by a
        packet-major merge pass.
        """
        keys = batch.keys
        n = len(keys)
        tables = self.stat4.binding_tables
        events: Dict[int, List[_Event]] = {}
        multi = len(tables) > 1
        stage_dists: List[set] = []
        for stage, table in enumerate(tables):
            before_lookups = table.lookups
            before_hits = table.hits
            # memo: key -> None (miss) or (spec|None, bucket|None).
            memo: Dict[Tuple[int, int, int, int], Any] = {}
            memo_get = memo.get
            matched = 0
            dists: set = set()
            for i, key in enumerate(keys):
                hit = memo_get(key, _MISS)
                if hit is _MISS:
                    entry = table.lookup(key)
                    if entry is None:
                        hit = None
                    elif entry.action == TRACK_ACTION:
                        spec = entry.params["spec"]
                        bucket = (
                            events.setdefault((stage, spec.dist), [])
                            if multi
                            else events.setdefault(spec.dist, [])
                        )
                        dists.add(spec.dist)
                        hit = (spec, bucket)
                    else:
                        hit = (None, None)
                    memo[key] = hit
                if hit is None:
                    continue
                matched += 1
                spec, bucket = hit
                if bucket is not None:
                    bucket.append((i, stage, spec))
            table.lookups = before_lookups + n
            table.hits = before_hits + matched
            stage_dists.append(dists)
        if not multi:
            return events
        return self._merge_stage_buckets(events, stage_dists)

    @staticmethod
    def _merge_stage_buckets(
        staged: Dict[Any, List[_Event]], stage_dists: List[set]
    ) -> Dict[int, List[_Event]]:
        """Collapse per-(stage, dist) buckets into per-dist scalar order.

        A dist fed by one stage keeps its bucket as-is (already
        packet-major).  A dist fed by several stages merges their buckets
        on ``(packet, stage)`` — both already sorted, so this is a linear
        heap-free merge.
        """
        events: Dict[int, List[_Event]] = {}
        all_dists = set()
        for dists in stage_dists:
            all_dists |= dists
        for dist in all_dists:
            buckets = [
                staged[(stage, dist)]
                for stage in range(len(stage_dists))
                if (stage, dist) in staged
            ]
            if len(buckets) == 1:
                events[dist] = buckets[0]
                continue
            merged: List[_Event] = []
            cursors = [0] * len(buckets)
            total = sum(len(b) for b in buckets)
            while len(merged) < total:
                best = None
                best_rank = None
                for b, bucket in enumerate(buckets):
                    c = cursors[b]
                    if c >= len(bucket):
                        continue
                    rank = (bucket[c][0], bucket[c][1])
                    if best_rank is None or rank < best_rank:
                        best_rank = rank
                        best = b
                merged.append(buckets[best][cursors[best]])
                cursors[best] += 1
            events[dist] = merged
        return events

    # -- per-distribution dispatch --------------------------------------------

    @staticmethod
    def _split_runs(
        dist_events: List[_Event],
    ) -> List[Tuple[TrackSpec, List[_Event]]]:
        """Split one slot's event stream into runs of equal specs.

        Each run is the longest prefix whose events carry the same spec
        (identity first, equality as the fallback for rebind-equal specs),
        so a run maps to exactly one ``_state_for`` call — the scalar
        repurpose-per-application behaviour, amortized.
        """
        runs: List[Tuple[TrackSpec, List[_Event]]] = []
        i = 0
        n = len(dist_events)
        while i < n:
            spec = dist_events[i][2]
            j = i + 1
            while j < n:
                other = dist_events[j][2]
                if other is not spec and other != spec:
                    break
                j += 1
            runs.append((spec, dist_events[i:j]))
            i = j
        return runs

    def _process_dist(
        self,
        dist_events: List[_Event],
        batch: PacketBatch,
        sink: _DigestSink,
        result: BatchResult,
    ) -> None:
        for spec, segment in self._split_runs(dist_events):
            self._process_run(spec, segment, batch, sink, result)

    def _process_run(
        self,
        spec: TrackSpec,
        segment: List[_Event],
        batch: PacketBatch,
        sink: _DigestSink,
        result: BatchResult,
    ) -> None:
        # One _state_for per run of equal specs — idempotent for the rest
        # of the run, resetting the slot iff it was repurposed (exactly
        # the scalar per-application behaviour).
        state = self.stat4._state_for(spec)
        name = kernel_of(KernelShape.of_spec(spec))
        result.kernels[name] = result.kernels.get(name, 0) + len(segment)
        if name in GENERATED_KERNELS:
            self._library.run(spec, state, segment, batch, sink)
        elif name == "time_series":
            self._time_series_kernel(
                state, segment, batch.values_for(spec), batch.timestamps, sink
            )
        elif name == "percentile_fast":
            self._percentile_kernel(state, segment, batch.values_for(spec))
        else:
            self._frequency_kernel(state, segment, batch.values_for(spec))

    # -- kernels -------------------------------------------------------------

    def _frequency_kernel(
        self, state, segment: List[_Event], values: Column
    ) -> None:
        """Dense frequency slots with no tracker and no k·σ check.

        Occurrences are tallied per unique value and folded into the
        moments with the telescoped ``observe_frequencies`` identity; the
        cell register is written once per unique value and the derived
        measures are synced once.  Final register state is bit-identical to
        per-packet updates (a near-wrap cell falls back to the per-packet
        loop so width wrapping reproduces exactly).
        """
        stat4 = self.stat4
        size = stat4.config.counter_size
        observed: List[int] = []
        dropped = 0
        for pkt, _stage, _spec in segment:
            value = values[pkt]
            if value is None:
                # Matched but no value of interest: with no percentile
                # tracker the scalar path does nothing for this packet.
                continue
            if value >= size:
                dropped += 1
            else:
                observed.append(value)
        state.values_dropped += dropped
        if observed:
            self._apply_counts(state, self._tally(observed))

    def _apply_counts(
        self, state, counts: Iterable[Tuple[int, int]]
    ) -> None:
        """Fold ``(value, occurrences)`` tallies into cells and moments.

        One register write per unique value, the telescoped
        ``observe_frequencies`` identity for the moments, and one derived-
        measure sync at the end — bit-identical to replaying the
        occurrences one at a time (a near-wrap cell falls back to the
        per-occurrence loop so width wrapping reproduces exactly).
        """
        stat4 = self.stat4
        counters = stat4.counters
        width_mask = (1 << counters.width) - 1
        base = stat4.config.cell_index(state.spec.dist, 0)
        stats = state.stats
        for value, repeat in counts:
            cell = base + value
            old = counters.read(cell)
            if old + repeat > width_mask:
                # The cell would wrap mid-run: replay per occurrence so the
                # wrapped reads feed the moments exactly as the scalar path.
                for _ in range(repeat):
                    current = counters.read(cell)
                    counters.write(cell, stats.observe_frequency(current))
            else:
                stats.observe_frequencies(old, repeat)
                counters.write(cell, old + repeat)
        stat4._sync_stats(state)

    @staticmethod
    def _tally(observed: List[int]) -> List[Tuple[int, int]]:
        """``(value, occurrences)`` pairs for in-domain observed values."""
        tally: Dict[int, int] = {}
        for value in observed:
            tally[value] = tally.get(value, 0) + 1
        return sorted(tally.items())

    def _percentile_kernel(
        self, state, segment: List[_Event], values: Column
    ) -> None:
        """Tracked frequency slots with no alerts.

        Cells and moments take the counting kernel (the tracker's state
        does not feed them), then the percentile tracker replays the run's
        exact observe/tick sequence (:meth:`_walk_tracker`).
        """
        self._frequency_kernel(state, segment, values)
        self._walk_tracker(state, segment, values)

    def _walk_tracker(self, state, segment: List[_Event], values: Column) -> None:
        """Replay a run's observe/tick sequence through the slot's tracker.

        Dropped values are excluded entirely and value-free packets tick,
        precisely the scalar ``_update_frequency`` flow, through
        :meth:`_tracker_replay`.  The percentile registers are synced
        once at the end — same final contents as the scalar per-packet
        ``_sync_percentile`` calls, and written only if the scalar path
        would have synced at least once.
        """
        size = self.stat4.config.counter_size
        events: List[int] = []
        for pkt, _stage, _spec in segment:
            value = values[pkt]
            if value is None:
                events.append(-1)  # value-free packet: a tracker tick
            elif value < size:
                events.append(value)
            # else: dropped — the scalar path returns before the tracker.
        tracker = state.tracker
        if self._tracker_replay(tracker, events):
            stat4 = self.stat4
            dist = state.spec.dist
            stat4.reg_pos.write(dist, tracker.value)
            stat4.reg_low.write(dist, tracker.low)
            stat4.reg_high.write(dist, tracker.high)

    def _tracker_replay(self, tracker, events: List[int]) -> bool:
        """Resumable tracker walk over one window of observe/tick events.

        ``events`` is the window's exact event sequence — a value in
        ``[0, domain)`` is one ``observe``, ``-1`` one ``tick`` — replayed
        from whatever entry state the tracker currently holds.  Each event
        steps the tracker one ``observe`` or ``tick``, exactly as the
        scalar ``_update_frequency`` does.
        Returns ``True`` when the window requires a position-register
        sync under the serial write gate: an observation landed, or the
        tracker entered the window holding a position and a value-free
        packet ticked it.
        """
        if not events:
            return False
        had_value = tracker.has_value
        observed = 0
        for value in events:
            if value < 0:
                if tracker.has_value:
                    tracker.tick()
            else:
                tracker.observe(value)
                observed += 1
        return bool(observed or (had_value and len(events) > observed))

    def _time_series_kernel(
        self,
        state,
        segment: List[_Event],
        values: Column,
        timestamps: List[float],
        sink: _DigestSink,
    ) -> None:
        """Segmented time-series scan: chunk-sum between interval closes.

        The close predicate is evaluated exactly as the scalar path does —
        ``now − interval_start ≥ interval`` as one float subtraction and
        compare per packet — and each close runs the library's own
        ``_close_interval`` so window absorption, the pre-absorb alert
        check, cursor advance, and the silent-gap snap are byte-for-byte
        the library's.  Only the per-packet ``reg_current`` writes are
        coalesced: the register holds the same final value either way.
        The close search resumes from the cursor after each close, so the
        whole segment is scanned once.
        """
        stat4 = self.stat4
        spec = state.spec
        dist = spec.dist
        interval = spec.interval
        m = len(segment)
        ts = [timestamps[e[0]] for e in segment]
        counts = [values[e[0]] if values[e[0]] is not None else 0 for e in segment]
        idx = 0
        if state.interval_start is None:
            state.interval_start = ts[0]
            stat4.reg_interval_start.write(dist, _to_us(ts[0]))
            state.current_count += counts[0]
            idx = 1
        while idx < m:
            start = state.interval_start
            j = -1
            for k in range(idx, m):
                if ts[k] - start >= interval:
                    j = k
                    break
            if j < 0:
                state.current_count += sum(counts[idx:])
                break
            if j > idx:
                state.current_count += sum(counts[idx:j])
            pkt, stage, _spec = segment[j]
            now = ts[j]
            sink.set(pkt, stage, now)
            stat4._close_interval(state, sink, now)
            state.current_count += counts[j]
            idx = j + 1
        stat4.reg_current.write(dist, state.current_count)
