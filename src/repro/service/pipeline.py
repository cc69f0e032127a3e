# p4-ok-file — host-side streaming pipeline, not data-plane code.
"""The bounded-queue ingest pipeline behind ``repro serve``.

Two threads around one ``queue.Queue(maxsize=N)``:

- the **producer** iterates a source (see :mod:`repro.service.sources`)
  and enqueues ``(batch, enqueued_at)`` pairs;
- the **worker** drains the queue through a handler (the detection
  engine) and folds the result into :class:`ServiceMetrics`.

The handler's kernel counters flow through untouched, so ``/stats``
shows exactly which ingest kernels (:func:`~repro.stat4.batch.kernel_of`)
a served workload hits.

Backpressure is an explicit policy, not an accident of buffer growth:

- ``"block"`` — the producer waits for queue space (in short timed puts
  so shutdown never deadlocks against a full queue);
- ``"drop"`` — the producer sheds the batch immediately and counts it
  (``dropped_batches``/``dropped_packets`` in ``/stats``), the mode for
  live feeds where stale packets are worse than missing ones.

Lifecycle states, in order: ``starting`` (no batch applied yet) →
``ready`` → possibly ``degraded`` (last-ingest age above threshold —
the source stalled or the worker wedged) → ``drained`` (finite source
exhausted and fully applied) or ``stopped``; ``error`` if either thread
died on an exception (kept in :attr:`error` for ``/healthz`` to
surface).  ``/healthz`` maps ready/drained to 200, everything else 503.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any, Callable, Dict, Iterable, Optional

from repro.service.metrics import ServiceMetrics
from repro.stat4.batch import PacketBatch

__all__ = ["ServicePipeline", "POLICIES"]

POLICIES = ("block", "drop")

#: Sentinel the producer enqueues after a finite source exhausts.
_DONE = object()

#: Granularity of every blocking queue operation; bounds how long a
#: thread can be unresponsive to the stop event.
_TICK = 0.2


class ServicePipeline:
    """Producer/worker pipeline over a bounded queue.

    Args:
        source: iterable of :class:`PacketBatch` (a sources.py class).
        handler: called with each batch from the worker thread; returns
            an object with ``digests`` and ``kernels`` attributes (a
            ``BatchResult``) or None.
        queue_depth: bound on in-flight batches (the memory ceiling).
        policy: ``"block"`` or ``"drop"`` (see module docstring).
        metrics: shared telemetry; a fresh one is created if omitted.
        degraded_after: seconds of ingest silence before ``/healthz``
            flips to degraded (0 disables the check).
        clock: injectable monotonic time source for tests.
    """

    def __init__(
        self,
        source: Iterable[PacketBatch],
        handler: Callable[[PacketBatch], Any],
        queue_depth: int = 8,
        policy: str = "block",
        metrics: Optional[ServiceMetrics] = None,
        degraded_after: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if queue_depth <= 0:
            raise ValueError("queue_depth must be positive")
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; pick one of {POLICIES}")
        self.source = source
        self.handler = handler
        self.policy = policy
        self.degraded_after = degraded_after
        self.metrics = metrics if metrics is not None else ServiceMetrics(clock=clock)
        self._clock = clock
        self._queue: "queue.Queue[Any]" = queue.Queue(maxsize=queue_depth)
        self._stop = threading.Event()
        self._drained = threading.Event()
        self._source_done = threading.Event()
        self._producer: Optional[threading.Thread] = None
        self._worker: Optional[threading.Thread] = None
        self.error: Optional[BaseException] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ServicePipeline":
        """Launch the producer and worker threads (idempotent)."""
        if self._producer is not None:
            return self
        self._producer = threading.Thread(
            target=self._produce, name="repro-service-producer", daemon=True
        )
        self._worker = threading.Thread(
            target=self._consume, name="repro-service-worker", daemon=True
        )
        self._worker.start()
        self._producer.start()
        return self

    def stop(self) -> None:
        """Ask both threads to exit; safe from signal handlers."""
        self._stop.set()

    def join(self, timeout: Optional[float] = None) -> bool:
        """Wait for both threads; True when both exited in time."""
        deadline = None if timeout is None else self._clock() + timeout
        for thread in (self._producer, self._worker):
            if thread is None:
                continue
            remaining = None if deadline is None else max(0.0, deadline - self._clock())
            thread.join(remaining)
        return not any(
            thread is not None and thread.is_alive()
            for thread in (self._producer, self._worker)
        )

    def run(self, timeout: Optional[float] = None) -> bool:
        """start() + join() — the synchronous path for finite sources."""
        self.start()
        return self.join(timeout)

    # -- observability -----------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Batches currently waiting (approximate, by design of Queue)."""
        return self._queue.qsize()

    @property
    def stopping(self) -> bool:
        return self._stop.is_set()

    @property
    def drained(self) -> bool:
        """True once a finite source was fully applied."""
        return self._drained.is_set()

    def state(self) -> str:
        """One of starting/ready/degraded/drained/stopped/error."""
        if self.error is not None:
            return "error"
        if self._drained.is_set():
            return "drained"
        if self._stop.is_set():
            return "stopped"
        age = self.metrics.last_ingest_age()
        if age is None:
            return "starting"
        if self.degraded_after > 0 and age > self.degraded_after:
            return "degraded"
        return "ready"

    def health(self) -> Dict[str, Any]:
        """The ``/healthz`` payload (state + queue depth + ingest age)."""
        state = self.state()
        age = self.metrics.last_ingest_age()
        return {
            "state": state,
            "ok": state in ("ready", "drained"),
            "queue_depth": self.queue_depth,
            "queue_capacity": self._queue.maxsize,
            "last_ingest_age_seconds": age,
            "degraded_after_seconds": self.degraded_after,
            "policy": self.policy,
            "error": None if self.error is None else repr(self.error),
        }

    # -- producer ----------------------------------------------------------

    def _enqueue_blocking(self, item: Any) -> bool:
        """Timed-put loop honouring the stop event; True when enqueued."""
        while not self._stop.is_set():
            try:
                self._queue.put(item, timeout=_TICK)
                return True
            except queue.Full:
                continue
        return False

    def _produce(self) -> None:
        try:
            for batch in self.source:
                if self._stop.is_set():
                    return
                item = (batch, self._clock())
                if self.policy == "drop":
                    try:
                        self._queue.put_nowait(item)
                    except queue.Full:
                        self.metrics.record_drop(len(batch))
                elif not self._enqueue_blocking(item):
                    return
            self._source_done.set()
            self._enqueue_blocking(_DONE)
        except BaseException as exc:  # noqa: BLE001 - surfaced via /healthz
            self.error = exc
            self._stop.set()

    # -- worker ------------------------------------------------------------

    def _consume(self) -> None:
        try:
            while True:
                try:
                    item = self._queue.get(timeout=_TICK)
                except queue.Empty:
                    if self._stop.is_set():
                        return
                    continue
                if item is _DONE:
                    self._drained.set()
                    return
                batch, enqueued_at = item
                result = self.handler(batch)
                digests = getattr(result, "digests", None) or ()
                kernels = getattr(result, "kernels", None) or {}
                self.metrics.record_batch(
                    packets=len(batch),
                    digests=len(digests),
                    kernels=kernels,
                    enqueued_at=enqueued_at,
                    rejected_frames=batch.parse_errors,
                )
        except BaseException as exc:  # noqa: BLE001 - surfaced via /healthz
            self.error = exc
            self._stop.set()
