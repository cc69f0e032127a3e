# p4-ok-file — host-side columnar trace storage, not data-plane code.
"""Columnar trace storage: contiguous per-field arrays with zero-copy views.

The batched ingest path (``repro.stat4.batch``) originally carried every
per-packet field as a plain Python list.  Slicing those lists for the
parallel engine copied element by element, and shipping a chunk into a
process pool re-pickled the whole list on every batch — the dominant cost
on multi-GB traces (the ROADMAP's "shared-memory value columns" item).

This module provides the two layers that remove that data movement:

* :class:`ColumnStore` — named, contiguous signed-64-bit columns backed by
  a numpy ``int64`` array when numpy is importable and ``array.array('q')``
  otherwise.  ``None`` entries (packets whose header did not yield a value)
  are encoded as the :data:`NONE_SENTINEL` ``-1``; real values must be
  non-negative, which every extracted P4 field is (they are masked unsigned
  slices).  ``slice(start, stop)`` returns views — numpy slices share the
  backing buffer, and the fallback returns ``memoryview`` windows — so
  chunking a batch for worker fan-out allocates nothing per chunk.

* :class:`SharedColumnSegment` / :class:`ColumnDescriptor` — pack one or
  more columns into a single ``multiprocessing.shared_memory`` block.  A
  descriptor is a ~100-byte picklable ``(segment name, dtype, start,
  length)`` handle; a process-pool worker calls :func:`attach_column` to
  map the segment and reads the rows in place, so the per-task pickled
  payload is the descriptor instead of the data.

Segment lifecycle: every live segment is tracked in a module registry.
The parallel engine releases its segments as soon as a batch is applied;
:func:`release_all_segments` sweeps anything left behind and is wired into
``atexit`` plus a chained ``SIGTERM`` handler (installed lazily, main
thread only) so repeated bench runs cannot exhaust ``/dev/shm`` even when
a run is killed mid-batch.
"""

from __future__ import annotations

import array as _array
import atexit
import os
import signal
import threading
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

try:  # pragma: no cover - absence exercised by the no-numpy CI job
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

__all__ = [
    "NONE_SENTINEL",
    "ColumnDescriptor",
    "ColumnStore",
    "SharedColumnSegment",
    "AttachedColumn",
    "attach_column",
    "encode_column",
    "decode_column",
    "DIGEST_KIND_PERCENTILE",
    "DIGEST_KIND_KSIGMA",
    "DIGEST_RECORD_STRIDE",
    "encode_digest_records",
    "decode_digest_records",
    "live_segment_count",
    "release_all_segments",
    "ensure_termination_cleanup",
]

#: Sentinel stored in place of ``None`` (value-free packet).  Extracted P4
#: fields are masked unsigned slices, so ``-1`` can never collide with data.
NONE_SENTINEL = -1

_ITEM_BYTES = 8  # both supported dtypes ("q" int64, "d" float64) are 8 bytes

Column = List[Optional[int]]


def _encode_item(value: Optional[int]) -> int:
    if value is None:
        return NONE_SENTINEL
    if value < 0:
        raise ValueError("columns store unsigned field values; got %r" % (value,))
    return value


def encode_column(values: Sequence[Optional[int]]) -> Any:
    """Encode a list of ``Optional[int]`` into a signed 64-bit backing array.

    ``None`` becomes :data:`NONE_SENTINEL`; negative inputs are rejected so
    the sentinel stays unambiguous.
    """

    if _np is not None:
        return _np.fromiter(
            (_encode_item(v) for v in values), dtype=_np.int64, count=len(values)
        )
    return _array.array("q", (_encode_item(v) for v in values))


def decode_column(backing: Any) -> Column:
    """Decode a backing array (or view) back into a ``None``-bearing list."""

    return [None if v == NONE_SENTINEL else int(v) for v in _tolist(backing)]


#: Digest-record kinds for the per-worker digest ship-back (the parallel
#: merge engine's local alert buffers).  Records are chunk-relative:
#: ``seq`` is the event's index *within its chunk*; the merge re-bases it
#: onto the run's absolute ``(packet, stage)`` when the chunk is adopted.
DIGEST_KIND_PERCENTILE = 0  # (kind, seq, position, previous)
DIGEST_KIND_KSIGMA = 1  # (kind, seq, index, sample, scaled_sample, xsum, stddev_nx, count)

#: Fixed row stride of the encoded digest blob, in int64 slots.
DIGEST_RECORD_STRIDE = 8

_DIGEST_KIND_WIDTHS = {DIGEST_KIND_PERCENTILE: 4, DIGEST_KIND_KSIGMA: 8}


def encode_digest_records(records: Sequence[Tuple[int, ...]]) -> bytes:
    """Pack per-worker digest records into one flat int64 byte blob.

    Each record is ``(kind, seq, *fields)`` of plain ints; rows are padded
    to :data:`DIGEST_RECORD_STRIDE` slots so the blob is random-access.
    This is the process-pool ship-back shape: a chunk's whole local digest
    buffer crosses the pool boundary as one compact ``bytes`` value
    instead of a pickled list of tuples.  Raises ``OverflowError`` if a
    field exceeds int64 (callers fall back to shipping the raw records).
    """

    flat = _array.array("q")
    for record in records:
        if len(record) > DIGEST_RECORD_STRIDE:
            raise ValueError(
                "digest record wider than %d slots: %r"
                % (DIGEST_RECORD_STRIDE, record)
            )
        flat.extend(record)
        flat.extend([0] * (DIGEST_RECORD_STRIDE - len(record)))
    return flat.tobytes()


def decode_digest_records(data: bytes) -> List[Tuple[int, ...]]:
    """Decode :func:`encode_digest_records` output back into record tuples.

    Rows are trimmed back to their kind's width, so a round trip returns
    exactly the encoded records.
    """

    flat = _array.array("q")
    flat.frombytes(data)
    records: List[Tuple[int, ...]] = []
    for i in range(0, len(flat), DIGEST_RECORD_STRIDE):
        row = flat[i : i + DIGEST_RECORD_STRIDE]
        width = _DIGEST_KIND_WIDTHS.get(row[0], DIGEST_RECORD_STRIDE)
        records.append(tuple(row[:width]))
    return records


def _tolist(backing: Any) -> List[Any]:
    if hasattr(backing, "tolist"):
        return backing.tolist()
    return list(backing)


def _raw_bytes(backing: Any, dtype: str) -> bytes:
    """The 8-byte items of a backing array, view or plain list."""
    if hasattr(backing, "tobytes"):
        return backing.tobytes()
    return _array.array(dtype, backing).tobytes()


class ColumnStore:
    """Named, contiguous int64 columns with zero-copy slicing.

    The store is a thin container: columns are added pre-encoded (via
    :meth:`put_array`) or encoded on the way in (:meth:`put`).  ``slice``
    produces a new store whose columns are *views* of the same backing
    buffers — numpy slices, or ``memoryview`` windows in the fallback —
    so splitting a batch into worker chunks never copies row data.
    """

    __slots__ = ("_columns",)

    def __init__(self, columns: Optional[Mapping[str, Any]] = None):
        self._columns: Dict[str, Any] = dict(columns) if columns else {}

    def __len__(self) -> int:
        return len(self._columns)

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def names(self) -> Tuple[str, ...]:
        return tuple(self._columns)

    def rows(self) -> int:
        """Row count shared by every column (0 for an empty store)."""

        for backing in self._columns.values():
            return len(backing)
        return 0

    def put(self, name: str, values: Sequence[Optional[int]]) -> Any:
        backing = encode_column(values)
        self._columns[name] = backing
        return backing

    def put_array(self, name: str, backing: Any) -> Any:
        self._columns[name] = backing
        return backing

    def get(self, name: str) -> Any:
        return self._columns[name]

    def column(self, name: str) -> Column:
        """Decoded (``None``-bearing) list view of a column."""

        return decode_column(self._columns[name])

    def slice(self, start: int, stop: int) -> "ColumnStore":
        """Zero-copy sub-store covering rows ``[start, stop)``."""

        sliced: Dict[str, Any] = {}
        for name, backing in self._columns.items():
            sliced[name] = slice_backing(backing, start, stop)
        return ColumnStore(sliced)

    def share(self, names: Optional[Iterable[str]] = None) -> "SharedColumnSegment":
        """Pack the named columns (all by default) into one shared segment."""

        selected = tuple(names) if names is not None else self.names()
        return SharedColumnSegment.pack(
            [(name, "q", self._columns[name]) for name in selected]
        )


def slice_backing(backing: Any, start: int, stop: int) -> Any:
    """Zero-copy window of a backing array.

    numpy arrays slice to views natively.  ``array.array`` slicing would
    copy, so the fallback goes through a ``memoryview`` (iterating one
    yields plain ints, which is all the tally loop needs).
    """

    if _np is not None and isinstance(backing, _np.ndarray):
        return backing[start:stop]
    if isinstance(backing, memoryview):
        return backing[start:stop]
    return memoryview(backing)[start:stop]


@dataclass(frozen=True)
class ColumnDescriptor:
    """Picklable ~100-byte handle to one column inside a shared segment."""

    segment: str  # shared_memory block name
    dtype: str  # "q" (int64) or "d" (float64)
    start: int  # element offset within the segment
    length: int  # element count

    def __post_init__(self) -> None:
        if self.dtype not in ("q", "d"):
            raise ValueError("unsupported column dtype %r" % (self.dtype,))
        if self.start < 0 or self.length < 0:
            raise ValueError("descriptor offsets cannot be negative")


class SharedColumnSegment:
    """One ``multiprocessing.shared_memory`` block packing several columns.

    Created via :meth:`pack`; hand out ``descriptors[name]`` to workers and
    call :meth:`release` once every consumer future has completed.  Release
    is idempotent and also triggered by the module cleanup hooks.
    """

    def __init__(self, shm: Any, descriptors: Dict[str, ColumnDescriptor]):
        self._shm = shm
        self.descriptors = descriptors
        self.name: str = shm.name
        self._released = False

    @classmethod
    def pack(cls, columns: Sequence[Tuple[str, str, Any]]) -> "SharedColumnSegment":
        """Copy ``(name, dtype, backing)`` columns into one fresh segment."""

        from multiprocessing import shared_memory

        total = sum(len(backing) for _, _, backing in columns)
        shm = shared_memory.SharedMemory(
            create=True, size=max(total * _ITEM_BYTES, 1)
        )
        descriptors: Dict[str, ColumnDescriptor] = {}
        offset = 0
        try:
            for name, dtype, backing in columns:
                length = len(backing)
                byte_start = offset * _ITEM_BYTES
                if length:
                    if _np is not None:
                        window = _np.frombuffer(
                            shm.buf,
                            dtype=_np.int64 if dtype == "q" else _np.float64,
                            count=length,
                            offset=byte_start,
                        )
                        window[:] = _np.asarray(backing)
                        del window
                    else:
                        shm.buf[byte_start : byte_start + length * _ITEM_BYTES] = (
                            _raw_bytes(backing, dtype)
                        )
                descriptors[name] = ColumnDescriptor(
                    segment=shm.name, dtype=dtype, start=offset, length=length
                )
                offset += length
        except Exception:
            shm.close()
            shm.unlink()
            raise
        segment = cls(shm, descriptors)
        _register_segment(segment)
        return segment

    def release(self) -> None:
        """Close and unlink the segment; safe to call more than once."""

        if self._released:
            return
        self._released = True
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - a view outlived its future
            pass
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already swept
            pass
        _discard_segment(self.name)


class AttachedColumn:
    """Worker-side zero-copy view of one shared column.

    Attach per task, read :attr:`values`, then :meth:`close` (or use as a
    context manager) so the mapping is dropped promptly — the parent may
    unlink the segment as soon as the task's future completes.
    """

    def __init__(self, descriptor: ColumnDescriptor):
        from multiprocessing import shared_memory

        self._shm = _attach_untracked(shared_memory, descriptor.segment)
        self._window: Optional[memoryview] = None
        if _np is not None:
            self.values: Any = _np.frombuffer(
                self._shm.buf,
                dtype=_np.int64 if descriptor.dtype == "q" else _np.float64,
                count=descriptor.length,
                offset=descriptor.start * _ITEM_BYTES,
            )
        else:
            # Cast only this column's bytes: the whole segment need not be
            # a multiple of 8 (an empty column's segment is one byte).
            byte_start = descriptor.start * _ITEM_BYTES
            window = self._shm.buf[
                byte_start : byte_start + descriptor.length * _ITEM_BYTES
            ]
            self._window = window
            self.values = window.cast(descriptor.dtype)

    def close(self) -> None:
        view = self.values
        self.values = None
        if isinstance(view, memoryview):
            view.release()
        del view
        if self._window is not None:
            self._window.release()
            self._window = None
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - caller kept a live view
            pass

    def __enter__(self) -> "AttachedColumn":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def attach_column(descriptor: ColumnDescriptor) -> AttachedColumn:  # worker-context
    """Map a shared column by descriptor (worker side of the fan-out)."""

    return AttachedColumn(descriptor)


def _attach_untracked(shared_memory: Any, name: str) -> Any:
    """Attach to a segment without registering it with a resource tracker.

    Only the creating process may own a segment's tracker registration
    (bpo-39959): an attacher that registers either strips the creator's
    entry (pool workers sharing the inherited tracker — the creator's
    final ``unlink`` then dies noisily in the tracker process) or, when
    the worker was forked before any tracker existed, spawns a private
    tracker that warns about "leaked" segments the parent already
    unlinked.  Python 3.13 grew ``track=False`` for exactly this; older
    interpreters need the standard workaround of suppressing ``register``
    for the duration of the attach (pool workers are single-threaded, so
    the swap cannot race).
    """

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - Python < 3.13
        pass
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None  # type: ignore  # race-ok: pool workers are single-threaded
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original  # race-ok: restores the swap above


# --- segment registry + crash-safe cleanup ---------------------------------

_REGISTRY_LOCK = threading.Lock()
_LIVE_SEGMENTS: Dict[str, SharedColumnSegment] = {}
_CLEANUP_INSTALLED = False

if hasattr(os, "register_at_fork"):  # pragma: no branch
    # Forked pool workers inherit this module state; only the creating
    # process owns the segments, so a child must never sweep (= unlink)
    # them from its own atexit/SIGTERM hooks.
    os.register_at_fork(after_in_child=_LIVE_SEGMENTS.clear)


def _register_segment(segment: SharedColumnSegment) -> None:
    with _REGISTRY_LOCK:
        _LIVE_SEGMENTS[segment.name] = segment
    _install_termination_cleanup()


def _discard_segment(name: str) -> None:
    with _REGISTRY_LOCK:
        _LIVE_SEGMENTS.pop(name, None)


def live_segment_count() -> int:
    with _REGISTRY_LOCK:
        return len(_LIVE_SEGMENTS)


def release_all_segments() -> int:
    """Release every still-registered segment; returns how many were swept.

    The normal path releases segments as soon as a batch is applied, so a
    non-zero sweep means a run died mid-batch; this keeps /dev/shm clean
    across repeated bench runs either way.
    """

    with _REGISTRY_LOCK:
        leaked = list(_LIVE_SEGMENTS.values())
        _LIVE_SEGMENTS.clear()
    for segment in leaked:
        segment.release()
    return len(leaked)


def _install_termination_cleanup() -> None:
    """Lazily register the atexit sweep and a chained SIGTERM handler."""

    global _CLEANUP_INSTALLED
    if _CLEANUP_INSTALLED:
        return
    _CLEANUP_INSTALLED = True
    atexit.register(release_all_segments)
    try:
        previous = signal.getsignal(signal.SIGTERM)

        def _on_sigterm(signum: int, frame: Any) -> None:
            release_all_segments()
            if callable(previous):
                previous(signum, frame)
            elif previous is signal.SIG_IGN:
                return
            else:  # SIG_DFL (or unknown): restore and re-raise to die properly
                signal.signal(signal.SIGTERM, signal.SIG_DFL)
                signal.raise_signal(signum)

        signal.signal(signal.SIGTERM, _on_sigterm)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass


def ensure_termination_cleanup() -> None:
    """Install the atexit sweep + chained SIGTERM handler now (idempotent).

    Normally the sweep chain is installed lazily by the first shared
    segment; long-running servers (``repro serve``) call this up front so
    their own SIGINT/SIGTERM handlers can chain *on top* of the sweep —
    a process killed mid-ingest then releases every live segment on the
    way down regardless of which layer fields the signal first.
    """

    _install_termination_cleanup()
