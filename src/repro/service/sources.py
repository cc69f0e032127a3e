# p4-ok-file — host-side ingest sources for the streaming service.
"""Batch sources feeding the streaming detection pipeline.

A *source* is an iterable of :class:`~repro.stat4.batch.PacketBatch`es —
the producer stage of the service pipeline.  Four concrete shapes:

- :class:`ScenarioSource` — replay a labeled catalog scenario (the same
  traces the quality floors gate), optionally rate-controlled and looped;
- :class:`TraceSource` — replay a pcap capture at a controlled rate,
  decoding each batch's frames when the replay reaches it;
- :class:`SyntheticSource` — a deterministic generator: the throughput
  bench's destination walk with a configurable hot-key share;
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
import struct
import time
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.p4.parser import standard_parser
from repro.stat4.batch import PacketBatch
from repro.traffic.builders import udp_frame, walk_dst
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

#: The shortest feed line that yields a packet, ``{"dst":0}`` and its
#: newline: a batch ``k`` packets short of full needs at least ``k`` times
#: this many more bytes.
MIN_PACKET_LINE_BYTES = len(b'{"dst":0}\n')

#: Bytes asked of one feed ``recv``, and the ceiling on its low-water mark.
READ_BYTES = 65536

_decode_json = json.JSONDecoder().decode
_unpack_address = struct.Struct("!I").unpack


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

    Every packet is a UDP datagram to the bench walk's destination
    (:func:`~repro.traffic.builders.walk_dst`): every ``hot_every``-th
    packet hits a standing heavy key that drives k·σ alerts once the
    detector's ``min_samples`` gate opens.  Timestamps advance
    ``timestamp_gap`` seconds per packet.

    Args:
        packets: total packets to emit (per loop iteration).
        batch_size: packets per emitted batch.
        hot_every: emit the hot destination every N packets (0 disables).
        loop: repeat the stream forever (an always-on soak source).
    """

    def __init__(
        self,
        packets: int = 20_000,
        batch_size: int = DEFAULT_BATCH_SIZE,
        hot_every: int = 16,
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
        self.hot_every = hot_every
        self.timestamp_gap = timestamp_gap
        self.loop = loop
        self._pacer = pacer

    def _build_batch(self, start: int, count: int, epoch: int) -> PacketBatch:
        parser = standard_parser()
        base = epoch * self.packets
        indices = range(start, start + count)
        frames = [udp_frame(walk_dst(index, self.hot_every)) for index in indices]
        timestamps = [(base + index) * self.timestamp_gap for index in indices]
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

    Each batch is decoded when the replay reaches it, so the first batch
    is out after one batch's decode rather than the whole capture's, and
    nothing is kept.  A looped replay moves time forward, as
    :class:`SyntheticSource`'s epochs do: pass ``k`` is the capture with
    ``k`` periods added to every timestamp, a period being the capture's
    span plus its mean gap, so a time-series detector keeps closing
    intervals.  A capture with fewer than two records, or whose first and
    last records share a timestamp, has no period and cannot loop
    (ValueError).
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
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.trace = trace if trace is not None else PacketTrace.load(path)
        self.batch_size = batch_size
        self.loop = loop
        self._pacer = pacer
        self.period = 0.0
        if loop:
            span = self.trace.duration
            if span <= 0:
                raise ValueError(
                    f"cannot loop a trace of {len(self.trace)} record(s) spanning "
                    f"{span} s: each pass must start after the previous one ends"
                )
            self.period = span + span / (len(self.trace) - 1)

    def __iter__(self) -> Iterator[PacketBatch]:
        parser = standard_parser()
        passes = 0
        while True:
            offset = passes * self.period
            for records in self.trace.iter_batches(self.batch_size):
                if offset:
                    batch = PacketBatch.from_frames(
                        [record.data for record in records],
                        [record.timestamp + offset for record in records],
                        parser,
                    )
                else:
                    batch = PacketBatch.from_trace(records, parser)
                if self._pacer is not None:
                    self._pacer.pace(len(batch))
                yield batch
            if not self.loop:
                return
            passes += 1


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

    A connection is read once its buffered bytes could complete the batch
    (``SO_RCVLOWAT``: :data:`MIN_PACKET_LINE_BYTES` per missing packet,
    less the unfinished line held), at its end or error, or, on a quiet
    connection, after ``accept_timeout``; so lines are validated, and
    :attr:`bad_lines` counted, up to ``accept_timeout`` after they arrive,
    and a full batch is never held back.  Where the option cannot be set,
    every arrival is read.
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
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
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
        """A dotted quad or an integer in ``[0, 2**32)``; ValueError otherwise.

        ``inet_pton`` reads the strict form (four decimal octets, no
        leading zeros); a string it refuses goes through the lenient split
        below, which also takes leading zeros, read as decimal
        (``"010.0.0.1"`` is 10.0.0.1).
        """
        if isinstance(value, str):
            try:
                return _unpack_address(socket.inet_pton(socket.AF_INET, value))[0]
            except (OSError, ValueError):  # ValueError: NUL or a lone surrogate
                pass
            parts = value.split(".")
            if len(parts) != 4:
                raise ValueError(f"bad IPv4 address {value!r}")
            result = 0
            for part in parts:
                if not (part.isascii() and part.isdigit()) or int(part) > 255:
                    raise ValueError(f"bad IPv4 address {value!r}")
                result = (result << 8) | int(part)
            return result
        if isinstance(value, int) and not isinstance(value, bool) and 0 <= value < 1 << 32:
            return value
        raise ValueError(f"bad IPv4 address {value!r}")

    def _frame_of(self, line: bytes, fallback_ts: float) -> Tuple[bytes, float]:
        """Validate one feed line into its UDP frame and timestamp.

        Raises:
            ValueError: the line is not UTF-8 JSON, not an object with a
                ``dst``, or a field is out of range (see the class docstring).
        """
        record = _decode_json(line.decode("utf-8"))
        if type(record) is not dict or "dst" not in record:
            raise ValueError("feed line must be an object with a 'dst'")
        when = record.get("ts", fallback_ts)
        if type(when) is not float:
            if type(when) is not int:
                raise ValueError(f"ts must be a number, got {when!r}")
            try:
                when = float(when)
            except OverflowError:
                raise ValueError(f"ts {when!r} is not a finite float") from None
        if not math.isfinite(when):
            raise ValueError(f"ts {when!r} is not finite")
        sport = record.get("sport", 40000)
        if type(sport) is not int or not 0 <= sport < 1 << 16:
            raise ValueError(f"bad port {sport!r}")
        dport = record.get("dport", 9000)
        if type(dport) is not int or not 0 <= dport < 1 << 16:
            raise ValueError(f"bad port {dport!r}")
        frame = udp_frame(
            self._ip_to_int(record["dst"]),
            src_ip=self._ip_to_int(record.get("src", "1.1.1.1")),
            sport=sport,
            dport=dport,
        )
        return frame, when

    def _drain_connection(self, conn: socket.socket) -> Iterator[PacketBatch]:
        parser = standard_parser()
        frames: List[bytes] = []
        timestamps: List[float] = []
        synthetic_ts = 0.0
        splitter = _LineSplitter()
        conn.settimeout(self.accept_timeout)
        # The receive low-water mark: a read wakes once the batch could be
        # full, or at EOF or an error. 0 once the option fails here.
        mark = 1
        quiet = False
        while not self._closed:
            if mark:
                wanted = 1
                if not quiet:
                    short = self.batch_size - len(frames)
                    needed = short * MIN_PACKET_LINE_BYTES - len(splitter.pending)
                    wanted = min(max(needed, 1), READ_BYTES)
                if wanted != mark:
                    try:
                        conn.setsockopt(socket.SOL_SOCKET, socket.SO_RCVLOWAT, wanted)
                        mark = wanted
                    except OSError:
                        mark = 0
            try:
                chunk = conn.recv(READ_BYTES)
            except socket.timeout:
                # A quiet connection: take what is buffered on the next read.
                quiet = True
                continue
            except OSError:
                break
            quiet = False
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
