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
  Each distinct binding key is resolved once per control-plane
  generation, not once per batch: the engine keeps a memo from key to
  what every binding stage does with it (the spec it feeds, or a miss)
  for as long as every binding table keeps its identity and ``version``
  — which each table write bumps — and clears it whole on a change or
  when it would pass :data:`MEMO_LIMIT` keys.  Matched packets become
  runs of packet indices per distribution slot, in scalar order (when
  every key of a batch resolves alike, each slot gets one run over the
  whole batch with no per-packet work), and each run goes to the one
  *exact* kernel its shape dispatches to (:func:`kernel_of`):

  * dense frequency slots with no percentile tracker and no k·σ check use a
    counting kernel — occurrences are tallied per unique value, folded
    into the moments with the telescoped
    :meth:`~repro.core.stats.ScaledStats.observe_frequencies` identity, and
    the derived measures are synced once per batch (the final lazy-σ value
    is identical; only *how often* it was recomputed differs);
  * time-series slots scan for interval closes with the same
    ``now − start ≥ interval`` float comparison the scalar path evaluates
    and sum the in-between values in one step, calling the library's own
    ``_close_interval`` at each close so window/alert/silent-gap semantics
    stay byte-for-byte the library's;
  * everything order-dependent — dense frequency with a percentile
    tracker (the one-step-per-packet walk of Figure 3) or a k·σ check,
    and hashed sparse slots — runs a generated monomorphic per-packet
    loop (:mod:`repro.stat4.compiled`): the library's update inlined with
    every spec constant baked in, a sparse table's probe, claim and
    eviction inlined over its rows' cell lists (slots hashed once per
    unique key per run), and the derived-measure and percentile registers
    synced once per run.

The engine is plain Python and runs every batch on the calling thread,
in scalar order.  numpy is optional and used only where the data is
already an array: frame decoding (:mod:`repro.stat4.frames`) and the bulk
sparse slot hash.  Each of those picks numpy when it imports and a Python
loop otherwise; both give the same values.

What is *not* preserved: per-register read/write accounting and the
σ-recomputation counter (the batch path coalesces touches by design).
Every value a controller can observe — register contents, digests and their
order, alert counts, table hit statistics, drop counters — is identical.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.p4.packet import Packet
from repro.p4.parser import Parser
from repro.p4.switch import Digest, PacketContext, StandardMetadata
from repro.p4.tables import Table, TableEntry
from repro.stat4.binding import TRACK_ACTION, binding_key_of
from repro.stat4.compiled import GENERATED_KERNELS, KernelLibrary, kernel_of
from repro.stat4.distributions import KernelShape, TrackSpec
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
        # ``& -1`` keeps every bit of any int, negative ones included.
        mask = -1 if extract.mask is None else extract.mask
        lo = spec.accept_lo
        hi = spec.accept_hi
        constant = extract.source == _CONSTANT
        raw = [extract.constant_value] if constant else self.raw_column(extract.source)
        # The filter's cases are settled here, once, not per item.
        if hi:
            out = [
                None if v is None or not lo <= (x := (v >> shift) & mask) < hi else x
                for v in raw
            ]
        elif lo or mask < 0:
            out = [
                None if v is None or (x := (v >> shift) & mask) < lo else x
                for v in raw
            ]
        else:
            # A masked value is never negative, so the filter admits it.
            out = [None if v is None else (v >> shift) & mask for v in raw]
        if constant:
            out = out * len(self)
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
            (:func:`kernel_of`: ``frequency_fast`` / ``time_series`` for
            the hand-written kernels, ``exact_loop`` / ``sparse_fast`` for
            the generated loops).
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


#: The most binding keys a :class:`BatchEngine` remembers.  Past it the
#: memo is cleared whole rather than evicted key by key, so a trace of
#: random destinations cannot grow it without limit.
MEMO_LIMIT = 16_384

#: A composite binding key (:func:`~repro.stat4.binding.binding_key_of`).
BindingKey = Tuple[int, int, int, int]


class _Signature:
    """What one binding key resolves to at every binding stage.

    ``hits`` lists the stages whose table matched the key (each counts a
    hit, whatever the entry's action); ``feeds`` maps every slot the key
    feeds to its ``(stage, spec)`` pairs in stage order.
    """

    __slots__ = ("hits", "feeds")

    def __init__(self, entries: Sequence[Optional[TableEntry]]):
        self.hits = [stage for stage, entry in enumerate(entries) if entry is not None]
        self.feeds: Dict[int, List[Tuple[int, TrackSpec]]] = {}
        for stage, entry in enumerate(entries):
            if entry is not None and entry.action == TRACK_ACTION:
                spec = entry.params["spec"]
                self.feeds.setdefault(spec.dist, []).append((stage, spec))


class _Run:
    """One slot's applications of one spec, in scalar order.

    ``packets`` holds the batch index of each application: ``range(n)``
    for a run over the whole batch, a list otherwise (where two stages
    feed the slot a packet appears once per stage).  ``stage`` is the one
    stage feeding the slot, or a list parallel to ``packets`` when
    several do.
    """

    __slots__ = ("spec", "packets", "stage")

    def __init__(self, spec: TrackSpec, packets: Sequence[int], stage: Any):
        self.spec = spec
        self.packets = packets
        self.stage = stage

    def pick(self, column: Sequence[Any]) -> Sequence[Any]:
        """``column`` at the run's applications, in order — the column
        itself for a run over the whole batch."""
        packets = self.packets
        if type(packets) is range:
            return column
        return [column[pkt] for pkt in packets]

    def event(self, j: int) -> Tuple[int, int]:
        """The ``(packet, stage)`` of the run's ``j``-th application."""
        stage = self.stage
        return self.packets[j], stage if type(stage) is int else stage[j]


def _runs_of(parts: List[Tuple[Sequence[int], int, TrackSpec]], n: int) -> List[_Run]:
    """One slot's runs from its ``(packets, stage, spec)`` parts (one part
    per signature feeding it, each part's packets ascending).

    Parts of one stage and equal specs merge into one run.  Otherwise the
    parts interleave on ``(packet, stage)`` — the scalar path applies
    stage 0 then stage 1 to packet i before packet i+1 — and every change
    of spec starts a run, so each run maps to one ``_state_for`` call: the
    scalar repurpose-per-application behaviour, amortized.
    """
    packets, stage, spec = parts[0]
    specs = [part[2] for part in parts]
    # Equal specs share a run: a part's class is its first equal spec.
    classes = [
        next(j for j, other in enumerate(specs) if other is each or other == each)
        for each in specs
    ]
    one_stage = all(part[1] == stage for part in parts)
    if one_stage and not any(classes):
        if len(parts) > 1:
            packets = sorted(itertools.chain.from_iterable(part[0] for part in parts))
            if len(packets) == n:
                packets = range(n)
        return [_Run(spec, packets, stage)]
    events = sorted(
        itertools.chain.from_iterable(
            zip(part[0], itertools.repeat(part[1]), itertools.repeat(index))
            for index, part in enumerate(parts)
        )
    )
    runs: List[_Run] = []
    current = -1
    for pkt, stage, index in events:
        if classes[index] != current:
            current = classes[index]
            run = _Run(specs[index], [], stage if one_stage else [])
            runs.append(run)
        run.packets.append(pkt)
        if not one_stage:
            run.stage.append(stage)
    return runs


class BatchEngine:
    """Applies :class:`PacketBatch`es to a :class:`Stat4` instance.

    The engine remembers what each binding key resolved to across
    batches, for as long as every binding table keeps its identity and
    ``version``: a control-plane write clears the memo whole.

    Args:
        stat4: the library instance to drive.
    """

    def __init__(self, stat4: Stat4):
        self.stat4 = stat4
        self._library = KernelLibrary(stat4)
        self._memo: Dict[BindingKey, _Signature] = {}
        self._interned: Dict[Tuple[int, ...], _Signature] = {}
        self._tables_seen: List[Tuple[Table, int]] = []

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
        runs = self._match(batch)
        sink = _DigestSink()
        for dist in sorted(runs):
            for run in runs[dist]:
                self._process_run(run, batch, sink, result)
        result.digests.extend(sink.in_scalar_order())
        return result

    # -- binding resolution ---------------------------------------------------

    def _signatures(
        self, distinct: set, tables: List[Table]
    ) -> Dict[BindingKey, _Signature]:
        """The memo, holding the signature of every key in ``distinct``.

        Only keys it has not seen reach ``Table.match``.  Keys that match
        the same entries share one :class:`_Signature` object.  The memo
        is cleared whole when a binding table is replaced or its version
        moves, and when the new keys would take it past
        :data:`MEMO_LIMIT`; a batch with more distinct keys than that
        resolves into a dict of its own.
        """
        seen = [(table, table.version) for table in tables]
        if seen != self._tables_seen:
            self._tables_seen = seen
            self._memo = {}
            self._interned = {}
        memo = self._memo
        fresh = distinct.difference(memo)
        if len(memo) + len(fresh) > MEMO_LIMIT:
            memo.clear()
            fresh = distinct
            if len(distinct) > MEMO_LIMIT:
                memo = {}
        interned = self._interned
        for key in fresh:
            entries = [table.match(key) for table in tables]
            ident = tuple(map(id, entries))
            signature = interned.get(ident)
            if signature is None:
                signature = interned[ident] = _Signature(entries)
            memo[key] = signature
        return memo

    def _match(self, batch: PacketBatch) -> Dict[int, List[_Run]]:
        """Each slot's applications as runs of equal spec, in scalar order.

        Binding keys resolve through the engine's memo (:meth:`_signatures`),
        which outlives the batch: entries cannot change mid-batch, and a
        write between batches moves a table's version and clears it.  Each
        table's ``lookups`` grows by the batch size and its ``hits`` by the
        packets whose key hit it — exactly what n scalar lookups leave.

        When every key of the batch has one signature, each slot it feeds
        from one stage gets one run over ``range(n)``, with no per-packet
        work.  Otherwise one pass groups the packet indices by signature,
        and :func:`_runs_of` builds each slot's runs from its groups.  Slots
        are independent, so replaying each slot's runs in turn reproduces
        the interleaved scalar execution.
        """
        keys = batch.keys
        n = len(keys)
        tables = self.stat4.binding_tables
        distinct = set(keys)
        memo = self._signatures(distinct, tables)
        first = memo[keys[0]]
        groups: Dict[_Signature, Sequence[int]]
        if all(memo[key] is first for key in distinct):
            groups = {first: range(n)}
        else:
            groups = {}
            append_to: Dict[BindingKey, Any] = {}
            for key in distinct:
                rows = groups.setdefault(memo[key], [])
                append_to[key] = rows.append
            for i, key in enumerate(keys):
                append_to[key](i)
        hits = [0] * len(tables)
        parts: Dict[int, List[Tuple[Sequence[int], int, TrackSpec]]] = {}
        for signature, rows in groups.items():
            for stage in signature.hits:
                hits[stage] += len(rows)
            for dist, feeds in signature.feeds.items():
                for stage, spec in feeds:
                    parts.setdefault(dist, []).append((rows, stage, spec))
        for table, hit in zip(tables, hits):
            table.lookups += n
            table.hits += hit
        return {dist: _runs_of(slot_parts, n) for dist, slot_parts in parts.items()}

    # -- per-run dispatch -----------------------------------------------------

    def _process_run(
        self, run: _Run, batch: PacketBatch, sink: _DigestSink, result: BatchResult
    ) -> None:
        # One _state_for per run of equal specs — idempotent for the rest
        # of the run, resetting the slot iff it was repurposed (exactly
        # the scalar per-application behaviour).
        spec = run.spec
        state = self.stat4._state_for(spec)
        name = kernel_of(KernelShape.of_spec(spec))
        result.kernels[name] = result.kernels.get(name, 0) + len(run.packets)
        if name in GENERATED_KERNELS:
            self._library.run(state, run, batch, sink)
        elif name == "time_series":
            self._time_series_kernel(state, run, batch, sink)
        else:
            self._frequency_kernel(state, run.pick(batch.values_for(spec)))

    # -- kernels -------------------------------------------------------------

    def _frequency_kernel(self, state, values: Sequence[Optional[int]]) -> None:
        """Dense frequency slots with no tracker and no k·σ check: the
        counting kernel.

        Occurrences are tallied per unique value and folded into the
        moments with the telescoped ``observe_frequencies`` identity; the
        cell register is written once per unique value and the derived
        measures are synced once.  Final register state is bit-identical to
        per-packet updates (a near-wrap cell falls back to the per-packet
        loop so width wrapping reproduces exactly).
        """
        tally = Counter(values)
        # Matched but no value of interest: with no percentile tracker the
        # scalar path does nothing for this packet.
        tally.pop(None, None)
        size = self.stat4.config.counter_size
        state.values_dropped += sum(
            count for value, count in tally.items() if value >= size
        )
        observed = sorted(item for item in tally.items() if item[0] < size)
        if observed:
            self._apply_counts(state, observed)

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

    def _time_series_kernel(
        self, state, run: _Run, batch: PacketBatch, sink: _DigestSink
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
        whole run is scanned once.
        """
        stat4 = self.stat4
        spec = state.spec
        dist = spec.dist
        interval = spec.interval
        ts = run.pick(batch.timestamps)
        m = len(ts)
        counts = [
            0 if value is None else value
            for value in run.pick(batch.values_for(spec))
        ]
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
            pkt, stage = run.event(j)
            now = ts[j]
            sink.set(pkt, stage, now)
            stat4._close_interval(state, sink, now)
            state.current_count += counts[j]
            idx = j + 1
        stat4.reg_current.write(dist, state.current_count)
