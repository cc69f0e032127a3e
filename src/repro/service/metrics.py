# p4-ok-file — host-side service telemetry, not data-plane code.
"""Telemetry for the streaming detection service.

Everything the ``/stats`` and ``/healthz`` endpoints report lives here,
behind one lock: the ingest worker writes after every batch, HTTP handler
threads read snapshots concurrently.  Three primitives:

- :class:`EwmaRate` — an exponentially-weighted packets/sec estimate whose
  smoothing adapts to the inter-batch gap (``alpha = 1 − exp(−dt/tau)``),
  so bursty and steady feeds decay on the same wall-clock horizon;
- :class:`LatencyRing` — a fixed-capacity ring of batch latencies
  (enqueue → applied) answering percentile queries from a sorted copy;
  bounded memory no matter how long the server runs;
- :class:`AlertLog` — a bounded ring of recent alert digests with
  monotonically increasing cursors, so ``/alerts?since=N`` is an O(new)
  incremental read and a long-poll can wait on the log's condition.

All clocks are injectable (``time.monotonic`` by default) so the health
threshold and EWMA decay are unit-testable without sleeping.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["EwmaRate", "LatencyRing", "AlertLog", "ServiceMetrics"]


class EwmaRate:
    """Exponentially-weighted rate estimate (events per second).

    Args:
        tau: decay time constant in seconds — observations older than a
            few ``tau`` stop influencing the estimate.
        clock: monotonic time source (injectable for tests).
    """

    def __init__(self, tau: float = 2.0, clock: Callable[[], float] = time.monotonic):
        if tau <= 0:
            raise ValueError("tau must be positive")
        self.tau = tau
        self._clock = clock
        self._last: Optional[float] = None
        self._value = 0.0

    @property
    def value(self) -> float:
        """The current estimate (0.0 before any observation)."""
        return self._value

    def observe(self, count: int, now: Optional[float] = None) -> float:
        """Fold ``count`` events arriving now into the estimate."""
        when = self._clock() if now is None else now
        if self._last is None:
            # First observation: no interval to rate over yet; seed with
            # zero so the estimate ramps up rather than spiking.
            self._last = when
            return self._value
        dt = when - self._last
        self._last = when
        if dt <= 0:
            # Same-instant batches: fold into an effectively instantaneous
            # burst by attributing them to a minimal interval.
            dt = 1e-9
        instantaneous = count / dt
        alpha = 1.0 - math.exp(-dt / self.tau)
        self._value += alpha * (instantaneous - self._value)
        return self._value


class LatencyRing:
    """Fixed-capacity ring buffer of latency samples (seconds)."""

    def __init__(self, capacity: int = 512):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._samples: List[float] = []
        self._next = 0
        self._recorded = 0

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def recorded(self) -> int:
        """Total samples ever recorded (≥ ``len(self)``)."""
        return self._recorded

    def record(self, seconds: float) -> None:
        if len(self._samples) < self.capacity:
            self._samples.append(seconds)
        else:
            self._samples[self._next] = seconds
        self._next = (self._next + 1) % self.capacity
        self._recorded += 1

    def percentile(self, q: float) -> Optional[float]:
        """The ``q``-th percentile (0–100) over the retained window.

        Nearest-rank on a sorted copy — the ring holds at most
        ``capacity`` floats, so the sort is bounded regardless of uptime.
        Returns None when no samples have been recorded.
        """
        if not 0 <= q <= 100:
            raise ValueError("percentile must be in [0, 100]")
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        rank = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
        return ordered[rank]


class AlertLog:
    """Bounded ring of recent alert digests with since-cursor reads.

    Cursors increase monotonically for the lifetime of the service; the
    ring retains the most recent ``capacity`` records.  A reader that
    fell more than ``capacity`` behind simply resumes from the oldest
    retained record (the response's ``dropped`` count says how many it
    missed).  ``wait_since`` blocks on the log's condition for long-poll
    support.
    """

    def __init__(self, capacity: int = 1024):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._records: List[Tuple[int, Dict[str, Any]]] = []
        self._cond = threading.Condition()
        self._next_cursor = 0

    @property
    def cursor(self) -> int:
        """One past the newest record's cursor (0 when empty)."""
        with self._cond:
            return self._next_cursor

    def append(self, digest: Any) -> int:
        """Record one digest; returns its cursor."""
        record = {
            "name": digest.name,
            "fields": dict(digest.fields),
            "timestamp": digest.timestamp,
        }
        with self._cond:
            cursor = self._next_cursor
            self._next_cursor += 1
            self._records.append((cursor, record))
            if len(self._records) > self.capacity:
                del self._records[: len(self._records) - self.capacity]
            self._cond.notify_all()
        return cursor

    def since(self, cursor: int = 0, limit: int = 0) -> Dict[str, Any]:
        """Records with cursor ≥ ``cursor`` (capped at ``limit`` if > 0).

        Returns ``{"cursor": next, "dropped": n, "alerts": [...]}`` where
        ``next`` is what a caller passes to resume, and ``dropped`` counts
        records that aged out of the ring before this read.
        """
        with self._cond:
            records = self._records
            oldest = records[0][0] if records else self._next_cursor
            dropped = max(0, oldest - cursor)
            # Retained cursors are consecutive: ``cursor`` sits at index
            # ``cursor - oldest``, so the read costs only what it returns.
            start = max(cursor - oldest, 0)
            window = records[start : start + limit] if limit > 0 else records[start:]
            fresh = [{"cursor": c, **record} for c, record in window]
            next_cursor = (fresh[-1]["cursor"] + 1) if fresh else max(cursor, oldest)
            return {"cursor": next_cursor, "dropped": dropped, "alerts": fresh}

    def wait_since(
        self, cursor: int = 0, timeout: float = 0.0, limit: int = 0
    ) -> Dict[str, Any]:
        """Like :meth:`since` but blocks up to ``timeout`` for new records."""
        deadline = time.monotonic() + max(timeout, 0.0)
        with self._cond:
            while self._next_cursor <= cursor:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
        return self.since(cursor, limit)


class ServiceMetrics:
    """Aggregated service counters, written by the worker, read by HTTP.

    One lock guards everything: the worker takes it once per *batch*
    (not per packet), so contention with handler threads is negligible
    next to kernel time.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.monotonic,
        rate_tau: float = 2.0,
        latency_capacity: int = 512,
    ):
        self._clock = clock
        self._lock = threading.Lock()
        self.started = clock()
        self.packets = 0
        self.batches = 0
        self.alerts = 0
        self.dropped_batches = 0
        self.dropped_packets = 0
        self.rejected_frames = 0
        self.kernels: Dict[str, int] = {}
        self.last_ingest: Optional[float] = None
        self.rate = EwmaRate(tau=rate_tau, clock=clock)
        self.batch_latency = LatencyRing(latency_capacity)
        self.alert_latency = LatencyRing(latency_capacity)

    def record_batch(
        self,
        packets: int,
        digests: int,
        kernels: Dict[str, int],
        enqueued_at: float,
        applied_at: Optional[float] = None,
        rejected_frames: int = 0,
    ) -> None:
        """Fold one applied batch into the counters (worker side).

        ``rejected_frames`` counts the batch's frames the parser rejected
        (``PacketBatch.parse_errors``); they are not in ``packets``.
        """
        when = self._clock() if applied_at is None else applied_at
        latency = max(0.0, when - enqueued_at)
        with self._lock:
            self.packets += packets
            self.batches += 1
            self.alerts += digests
            self.rejected_frames += rejected_frames
            for name, count in kernels.items():
                self.kernels[name] = self.kernels.get(name, 0) + count
            self.last_ingest = when
            self.rate.observe(packets, now=when)
            self.batch_latency.record(latency)
            if digests:
                # Alert latency: queue wait + kernel time for a batch that
                # raised at least one digest — the end-to-end lag between a
                # packet entering the service and its alert being visible.
                self.alert_latency.record(latency)

    def record_drop(self, packets: int) -> None:
        """Count one batch shed by the drop backpressure policy."""
        with self._lock:
            self.dropped_batches += 1
            self.dropped_packets += packets

    def last_ingest_age(self, now: Optional[float] = None) -> Optional[float]:
        """Seconds since the last applied batch (None before the first)."""
        with self._lock:
            if self.last_ingest is None:
                return None
            when = self._clock() if now is None else now
            return max(0.0, when - self.last_ingest)

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready copy of every counter (HTTP side)."""
        with self._lock:
            p50 = self.batch_latency.percentile(50)
            p99 = self.batch_latency.percentile(99)
            ap99 = self.alert_latency.percentile(99)
            return {
                "uptime_seconds": max(0.0, self._clock() - self.started),
                "packets": self.packets,
                "batches": self.batches,
                "alerts": self.alerts,
                "dropped_batches": self.dropped_batches,
                "dropped_packets": self.dropped_packets,
                "rejected_frames": self.rejected_frames,
                "kernels": dict(self.kernels),
                "pps_ewma": self.rate.value,
                "batch_latency_p50_ms": None if p50 is None else p50 * 1e3,
                "batch_latency_p99_ms": None if p99 is None else p99 * 1e3,
                "alert_latency_p99_ms": None if ap99 is None else ap99 * 1e3,
                "latency_samples": self.batch_latency.recorded,
            }
