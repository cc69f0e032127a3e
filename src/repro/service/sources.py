# p4-ok-file — host-side ingest sources for the streaming service.
"""Batch sources feeding the streaming detection pipeline.

A *source* is an iterable of :class:`~repro.stat4.batch.PacketBatch`es —
the producer stage of the service pipeline.  Four concrete shapes:

- :class:`ScenarioSource` — replay a labeled catalog scenario (the same
  traces the quality floors gate), optionally rate-controlled and looped;
- :class:`TraceSource` — replay a pcap capture at a controlled rate,
  decoding each batch's frames when the replay first reaches it;
- :class:`SyntheticSource` — a deterministic generator (multiplicative
  walk over a destination domain with a configurable hot-key share), the
  workload the throughput bench drives;
- :class:`FeedSource` — a line-delimited TCP feed: one JSON object per
  line is validated and packed into a UDP frame, accumulated into batches.

Rate control is cumulative, not per-batch: batch *i* is released when
``packets_emitted_so_far / rate_pps`` seconds have elapsed since the
stream started, so short stalls are caught up instead of compounding.
All clocks/sleeps are injectable for tests.
"""

from __future__ import annotations

import json
import math
import socket
import time
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.p4.parser import standard_parser
from repro.stat4.batch import PacketBatch
from repro.traffic.builders import udp_frame
from repro.traffic.trace import PacketTrace

__all__ = [
    "RatePacer",
    "ListSource",
    "SyntheticSource",
    "ScenarioSource",
    "TraceSource",
    "FeedSource",
]

#: Default batch size for every source (matches the scenario replay).
DEFAULT_BATCH_SIZE = 2048

#: Longest :class:`FeedSource` line kept, in bytes, without its newline.
#: A valid line is a few dozen bytes; a longer one is discarded up to its
#: newline and counted once in ``bad_lines``, so a client that never
#: sends a newline cannot make the source hold its stream.
MAX_LINE_BYTES = 4096


class RatePacer:
    """Cumulative packet pacing against a target rate.

    ``pace(n)`` sleeps until the stream's cumulative packet count divided
    by ``rate_pps`` has elapsed since the first call; a rate of 0 (or
    None) disables pacing entirely.
    """

    def __init__(
        self,
        rate_pps: float = 0.0,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if rate_pps < 0:
            raise ValueError("rate_pps cannot be negative")
        self.rate_pps = rate_pps
        self._clock = clock
        self._sleep = sleep
        self._start: Optional[float] = None
        self._emitted = 0

    def pace(self, packets: int) -> None:
        """Block until ``packets`` more packets are due for release."""
        if self.rate_pps <= 0:
            return
        if self._start is None:
            self._start = self._clock()
        self._emitted += packets
        due = self._start + self._emitted / self.rate_pps
        delay = due - self._clock()
        if delay > 0:
            self._sleep(delay)


class ListSource:
    """Pre-built batches, emitted as-is (bench and test harness source)."""

    def __init__(self, batches: Iterable[PacketBatch], pacer: Optional[RatePacer] = None):
        self._batches = list(batches)
        self._pacer = pacer

    def __iter__(self) -> Iterator[PacketBatch]:
        for batch in self._batches:
            if self._pacer is not None:
                self._pacer.pace(len(batch))
            yield batch


class SyntheticSource:
    """Deterministic synthetic traffic: a multiplicative walk plus a hot key.

    Every packet is a UDP datagram; destinations walk ``0x0A000000 |
    (i * 2654435761 % dst_values)`` (the bench workload), except every
    ``hot_every``-th packet which hits ``hot_dst`` — a standing heavy key
    that drives k·σ alerts once the detector's ``min_samples`` gate opens.
    Timestamps advance ``timestamp_gap`` seconds per packet.

    Args:
        packets: total packets to emit (per loop iteration).
        batch_size: packets per emitted batch.
        dst_values: size of the walked destination domain.
        hot_every: emit the hot destination every N packets (0 disables).
        loop: repeat the stream forever (an always-on soak source).
    """

    def __init__(
        self,
        packets: int = 20_000,
        batch_size: int = DEFAULT_BATCH_SIZE,
        dst_values: int = 1024,
        hot_every: int = 16,
        hot_dst: int = 0x0A000007,
        timestamp_gap: float = 1e-4,
        loop: bool = False,
        pacer: Optional[RatePacer] = None,
    ):
        if packets <= 0:
            raise ValueError("packets must be positive")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.packets = packets
        self.batch_size = batch_size
        self.dst_values = dst_values
        self.hot_every = hot_every
        self.hot_dst = hot_dst
        self.timestamp_gap = timestamp_gap
        self.loop = loop
        self._pacer = pacer

    def _build_batch(self, start: int, count: int, epoch: int) -> PacketBatch:
        parser = standard_parser()
        base = epoch * self.packets
        frames = []
        timestamps = []
        for offset in range(count):
            index = start + offset
            if self.hot_every and index % self.hot_every == 0:
                dst = self.hot_dst
            else:
                dst = 0x0A000000 | ((index * 2654435761) % self.dst_values)
            frames.append(udp_frame(dst))
            timestamps.append((base + index) * self.timestamp_gap)
        return PacketBatch.from_frames(frames, timestamps, parser)

    def __iter__(self) -> Iterator[PacketBatch]:
        epoch = 0
        while True:
            for start in range(0, self.packets, self.batch_size):
                count = min(self.batch_size, self.packets - start)
                batch = self._build_batch(start, count, epoch)
                if self._pacer is not None:
                    self._pacer.pace(count)
                yield batch
            if not self.loop:
                return
            epoch += 1


class TraceSource:
    """Replay a :class:`PacketTrace` (or pcap file) as decoded batches.

    Each batch is decoded when the replay first reaches it, so the first
    batch is out after one batch's decode rather than the whole
    capture's, and kept: batches are read-only to every engine, so a
    looped replay reuses the decoded columnar form.
    """

    def __init__(
        self,
        trace: Optional[PacketTrace] = None,
        path: Optional[str] = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        loop: bool = False,
        pacer: Optional[RatePacer] = None,
    ):
        if (trace is None) == (path is None):
            raise ValueError("pass exactly one of trace= or path=")
        self.trace = trace if trace is not None else PacketTrace.load(path)
        self.batch_size = batch_size
        self.loop = loop
        self._pacer = pacer
        self._cached: List[PacketBatch] = []

    def __iter__(self) -> Iterator[PacketBatch]:
        parser = standard_parser()
        cached = self._cached
        while True:
            chunks = self.trace.iter_batches(self.batch_size)
            for index, records in enumerate(chunks):
                if index == len(cached):
                    cached.append(PacketBatch.from_trace(records, parser))
                batch = cached[index]
                if self._pacer is not None:
                    self._pacer.pace(len(batch))
                yield batch
            if not self.loop:
                return


class ScenarioSource(TraceSource):
    """Replay a labeled adversarial scenario from the catalog.

    Exposes the underlying :class:`~repro.scenarios.truth.LabeledScenario`
    so the service can install the scenario's own detector configuration
    and the smoke gate can score ``/alerts`` against the ground truth.
    """

    def __init__(
        self,
        name: str,
        batch_size: int = DEFAULT_BATCH_SIZE,
        loop: bool = False,
        pacer: Optional[RatePacer] = None,
    ):
        from repro.scenarios import build_scenario

        self.scenario = build_scenario(name)
        super().__init__(
            trace=self.scenario.trace,
            batch_size=batch_size,
            loop=loop,
            pacer=pacer,
        )


class _LineSplitter:
    """Splits a byte stream into lines, holding at most
    :data:`MAX_LINE_BYTES` of the unfinished one."""

    def __init__(self):
        self.pending = b""
        self._discarding = False

    def feed(self, chunk: bytes) -> Tuple[List[bytes], int]:
        """The lines ``chunk`` completes, and how many over-long lines it
        completed or began (each counted once, then dropped)."""
        if self._discarding:
            end = chunk.find(b"\n")
            if end < 0:
                return [], 0
            self._discarding = False
            chunk = chunk[end + 1 :]
        data = self.pending + chunk
        *lines, self.pending = data.split(b"\n")
        if len(data) <= MAX_LINE_BYTES:
            return lines, 0
        kept = [line for line in lines if len(line) <= MAX_LINE_BYTES]
        overlong = len(lines) - len(kept)
        if len(self.pending) > MAX_LINE_BYTES:
            overlong += 1
            self._discarding = True
            self.pending = b""
        return kept, overlong

    def finish(self) -> List[bytes]:
        """At end of stream, the unterminated last line as one more line
        (none if the stream ended on a newline or inside a discarded
        over-long line, which :meth:`feed` already counted)."""
        tail, self.pending = self.pending, b""
        return [tail] if tail else []


class FeedSource:
    """A line-delimited TCP feed packed into batches of UDP frames.

    Listens on ``host:port`` (port 0 picks a free one; read it back from
    :attr:`address`), accepts connections one at a time, and reads one
    JSON object per line::

        {"dst": "10.0.0.9", "ts": 1.25, "src": "1.1.1.1", "sport": 4, "dport": 9}

    ``dst`` is required; ``dst`` and ``src`` are dotted quads or integers
    in ``[0, 2**32)``, ``sport`` and ``dport`` integers in ``[0, 65536)``,
    and ``ts`` a finite number.  Without ``ts`` a synthetic clock advances
    ``timestamp_gap`` past the previous line, so a feed without timestamps
    still drives time-series detectors.  A line that breaks any of these
    rules, or is longer than :data:`MAX_LINE_BYTES`, is counted in
    :attr:`bad_lines` and skipped; it never reaches the detector.  A last
    line the client sends without a newline before closing is still a
    line.  Batches flush at ``batch_size`` lines or on connection close;
    iteration ends when a client disconnects (unless ``serve_forever``).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        batch_size: int = DEFAULT_BATCH_SIZE,
        timestamp_gap: float = 1e-4,
        serve_forever: bool = False,
        accept_timeout: float = 0.5,
    ):
        self.batch_size = batch_size
        self.timestamp_gap = timestamp_gap
        self.serve_forever = serve_forever
        self.accept_timeout = accept_timeout
        self.bad_lines = 0
        self._closed = False
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(accept_timeout)
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]

    def close(self) -> None:
        """Stop accepting; the current iteration ends after its batch."""
        self._closed = True
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - already closed
            pass

    @staticmethod
    def _ip_to_int(value: Any) -> int:
        """A dotted quad or an integer in ``[0, 2**32)``; ValueError otherwise."""
        if isinstance(value, int) and not isinstance(value, bool):
            if not 0 <= value < 1 << 32:
                raise ValueError(f"bad IPv4 address {value!r}")
            return value
        parts = value.split(".") if isinstance(value, str) else []
        if len(parts) != 4:
            raise ValueError(f"bad IPv4 address {value!r}")
        result = 0
        for part in parts:
            if not (part.isascii() and part.isdigit()) or int(part) > 255:
                raise ValueError(f"bad IPv4 address {value!r}")
            result = (result << 8) | int(part)
        return result

    @staticmethod
    def _port(value: Any) -> int:
        if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < 1 << 16:
            raise ValueError(f"bad port {value!r}")
        return value

    @staticmethod
    def _timestamp(value: Any) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"ts must be a number, got {value!r}")
        try:
            when = float(value)
        except OverflowError:
            raise ValueError(f"ts {value!r} is not a finite float") from None
        if not math.isfinite(when):
            raise ValueError(f"ts {value!r} is not finite")
        return when

    def _frame_of(self, line: bytes, fallback_ts: float) -> Tuple[bytes, float]:
        """Validate one feed line into its UDP frame and timestamp.

        Raises:
            ValueError: the line is not UTF-8 JSON, not an object with a
                ``dst``, or a field is out of range (see the class docstring).
        """
        record = json.loads(line.decode("utf-8"))
        if not isinstance(record, dict) or "dst" not in record:
            raise ValueError("feed line must be an object with a 'dst'")
        when = self._timestamp(record.get("ts", fallback_ts))
        frame = udp_frame(
            self._ip_to_int(record["dst"]),
            src_ip=self._ip_to_int(record.get("src", "1.1.1.1")),
            sport=self._port(record.get("sport", 40000)),
            dport=self._port(record.get("dport", 9000)),
        )
        return frame, when

    def _drain_connection(self, conn: socket.socket) -> Iterator[PacketBatch]:
        parser = standard_parser()
        frames: List[bytes] = []
        timestamps: List[float] = []
        synthetic_ts = 0.0
        splitter = _LineSplitter()
        conn.settimeout(self.accept_timeout)
        while not self._closed:
            try:
                chunk = conn.recv(65536)
            except socket.timeout:
                continue
            except OSError:
                break
            if chunk:
                lines, overlong = splitter.feed(chunk)
                self.bad_lines += overlong
            else:
                lines = splitter.finish()
            for line in lines:
                if not line.strip():
                    continue
                try:
                    frame, when = self._frame_of(line, synthetic_ts)
                except (ValueError, RecursionError):  # RecursionError: deeply nested JSON
                    self.bad_lines += 1
                    continue
                synthetic_ts = when + self.timestamp_gap
                frames.append(frame)
                timestamps.append(when)
                if len(frames) >= self.batch_size:
                    yield PacketBatch.from_frames(frames, timestamps, parser)
                    frames, timestamps = [], []
            if not chunk:
                break
        if frames:
            yield PacketBatch.from_frames(frames, timestamps, parser)

    def __iter__(self) -> Iterator[PacketBatch]:
        try:
            while not self._closed:
                try:
                    conn, _addr = self._listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                with conn:
                    for batch in self._drain_connection(conn):
                        yield batch
                if not self.serve_forever:
                    break
        finally:
            self.close()
