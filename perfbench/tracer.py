"""In-memory spans around the calls the benchmark makes into each layer.

Used only by the traced run.  A span is ``(id, parent, name, thread,
start_ns, end_ns, self_ns)``; its name is ``"<layer>:<call>"`` and its
self time is its duration minus that of its children on the same thread.
Calls made once per packet (``Parser.parse``, ``AlertLog.append``, GC
pauses) are *leaf calls*: they are summed per name instead of being kept
one by one, and their time is still taken out of the enclosing span.

The spans are placed from outside the program, in the traced process
only: proxies wrap the engine a columns pass hands its batches to, and
the source, engine and alert log of the service ``repro serve`` builds
(swapped in right after ``DetectionService.__init__``, together with
instance wrappers on the pipeline's handler and the switch's
``ingest_batch``); ``Parser.parse``, ``PacketBatch.from_contexts`` and
``PacketBatch.values_for`` are wrapped on their classes, because the
program builds those objects itself.
"""

from __future__ import annotations

import gc
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

now_ns = time.monotonic_ns

Span = Tuple[int, Optional[int], str, int, int, int, int]


class Tracer:
    """Spans and counts, kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.leaf: Dict[str, List[int]] = {}
        self.counts: Dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> None:
        self._stack().append([next(self._ids), name, now_ns(), 0])

    def end(self) -> int:
        """Close the innermost open span on this thread; returns its duration."""
        stack = self._stack()
        span_id, name, start, child_ns = stack.pop()
        end = now_ns()
        duration = end - start
        parent = None
        if stack:
            stack[-1][3] += duration
            parent = stack[-1][0]
        record = (span_id, parent, name, threading.get_ident(), start, end, duration - child_ns)
        with self._lock:
            self.spans.append(record)
        return duration

    def leaf_call(self, name: str, ns: int, count: int = 1) -> None:
        """Credit ``ns`` spent in a per-packet call to ``name``."""
        with self._lock:
            entry = self.leaf.setdefault(name, [0, 0])
            entry[0] += count
            entry[1] += ns
        stack = self._stack()
        if stack:
            stack[-1][3] += ns

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a span around every call."""

        def traced(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return traced

    def wrap_leaf(self, name: str, fn: Callable, failure: Optional[type] = None) -> Callable:
        """``fn`` timed as a leaf call; raising ``failure`` is counted too."""

        local = self._local

        def timed(*args, **kwargs):
            outer = getattr(local, "leaf_gc", None)
            local.leaf_gc = 0
            start = now_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                if failure is not None and isinstance(exc, failure):
                    self.count(name + ".failed")
                raise
            finally:
                # A GC pause inside the call is the GC's time, not the call's.
                self.leaf_call(name, now_ns() - start - local.leaf_gc)
                local.leaf_gc = outer

        return timed

    # -- GC pauses ------------------------------------------------------------

    def watch_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def unwatch_gc(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._local.gc_start = now_ns()
        else:
            start = getattr(self._local, "gc_start", None)
            if start is not None:
                pause = now_ns() - start
                self.leaf_call("py.gc:collect", pause)
                if getattr(self._local, "leaf_gc", None) is not None:
                    self._local.leaf_gc += pause

    # -- reports --------------------------------------------------------------

    def self_ns_by_layer(self) -> Dict[str, int]:
        """Self time per layer, over every span and leaf call."""
        out: Dict[str, int] = {}
        for _id, _parent, name, _tid, _start, _end, self_ns in self.spans:
            layer = name.split(":", 1)[0]
            out[layer] = out.get(layer, 0) + self_ns
        for name, (_calls, ns) in self.leaf.items():
            layer = name.split(":", 1)[0]
            out[layer] = out.get(layer, 0) + ns
        return out

    def total_ns(self, name: str) -> int:
        return sum(span[5] - span[4] for span in self.spans if span[2] == name)

    def dump(self, path: str) -> None:
        """Write every span, leaf total and count as one JSON document."""
        with self._lock:
            payload = {"spans": self.spans, "leaf": self.leaf, "counts": self.counts}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


class SourceProxy:
    """Wraps a batch source; one span per ``next()``, with its CPU time."""

    def __init__(self, source: Any, tracer: Tracer):
        self._source = source
        self._tracer = tracer
        #: Per batch: (yield time ns, packets, producer CPU ns in next()).
        self.yields: List[Tuple[int, int, int]] = []
        self.first_batch_ns: Optional[int] = None

    def __getattr__(self, name: str) -> Any:
        return getattr(self._source, name)

    def __iter__(self) -> Iterator[Any]:
        tracer = self._tracer
        iterator = iter(self._source)
        while True:
            cpu = time.thread_time_ns()
            tracer.begin("service.sources:next")
            try:
                batch = next(iterator)
            except StopIteration:
                tracer.end()
                return
            duration = tracer.end()
            if self.first_batch_ns is None:
                self.first_batch_ns = duration
            self.yields.append((now_ns(), len(batch), time.thread_time_ns() - cpu))
            yield batch


class EngineProxy:
    """Wraps a batch engine; one span per ``process()``, kernels summed."""

    def __init__(self, engine: Any, tracer: Tracer, span: str):
        self._engine = engine
        self._tracer = tracer
        self._span = span
        self.packets = 0
        self.kernels: Dict[str, int] = {}

    def __getattr__(self, name: str) -> Any:
        return getattr(self._engine, name)

    def process(self, batch: Any) -> Any:
        self._tracer.begin(self._span)
        try:
            result = self._engine.process(batch)
        finally:
            self._tracer.end()
        self.packets += result.packets
        for kernel, events in result.kernels.items():
            self.kernels[kernel] = self.kernels.get(kernel, 0) + events
        return result


class AlertLogProxy:
    """Wraps the service's alert log; times each append and keeps its instant."""

    def __init__(self, log: Any, tracer: Tracer):
        self._log = log
        self._tracer = tracer
        #: Time each cursor became readable (ns), in cursor order.
        self.appended_at: List[int] = []

    def __getattr__(self, name: str) -> Any:
        return getattr(self._log, name)

    def append(self, digest: Any) -> int:
        start = now_ns()
        cursor = self._log.append(digest)
        end = now_ns()
        self._tracer.leaf_call("service.metrics:append", end - start)
        self.appended_at.append(end)
        return cursor
