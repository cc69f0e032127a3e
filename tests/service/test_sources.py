"""Coverage for the streaming ingest sources.

Pacing is tested with injected clocks and recorded sleeps; the TCP feed
is exercised over a real loopback socket.
"""

import json
import math
import socket
import threading
import time
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.scenarios import build_scenario
from repro.service import sources
from repro.service.sources import (
    MAX_LINE_BYTES,
    MIN_PACKET_LINE_BYTES,
    FeedSource,
    ListSource,
    RatePacer,
    ScenarioSource,
    SyntheticSource,
    TraceSource,
)
from repro.stat4 import BatchEngine, Stat4, Stat4Runtime
from repro.stat4.batch import PacketBatch
from repro.traffic.builders import WALK_HOT_DST, udp_frame
from repro.traffic.trace import PacketTrace

#: Feed lines that fail validation, each of which once killed the service.
BAD_LINES = {
    "port_out_of_range": b'{"dst": "10.0.0.9", "sport": 70000}',
    "address_out_of_range": b'{"dst": 5000000000}',
    "null_ts": b'{"dst": "10.0.0.9", "ts": null}',
    "infinite_ts": b'{"dst": "10.0.0.9", "ts": 1e999}',
    "nan_ts": b'{"dst": "10.0.0.9", "ts": NaN}',
    "string_ts": b'{"dst": "10.0.0.9", "ts": "1.5"}',
    "negative_port": b'{"dst": "10.0.0.9", "dport": -1}',
    "three_octets": b'{"dst": "10.0.0.9", "src": "1.2.3"}',
    "deep_nesting": b"[" * 100_000,
}

#: Address strings the feed refuses: a trailing or doubled dot, padding,
#: a sign, non-ASCII digits, a NUL, an octet past 255.
ODD_QUADS = (
    "1.2.3.4.",
    "1..2.3",
    " 1.2.3.4",
    "+1.2.3.4",
    "\u0661.\u0662.\u0663.\u0664",
    "\uff11.2.3.4",
    "1.2.3.4\x00",
    "256.0.0.0",
)


class TestRatePacer:
    def test_zero_rate_never_sleeps(self):
        sleeps = []
        pacer = RatePacer(0.0, clock=lambda: 0.0, sleep=sleeps.append)
        pacer.pace(10_000)
        assert sleeps == []

    def test_cumulative_schedule(self):
        clock = {"now": 0.0}
        sleeps = []

        def sleep(delay):
            sleeps.append(delay)
            clock["now"] += delay

        pacer = RatePacer(100.0, clock=lambda: clock["now"], sleep=sleep)
        pacer.pace(50)  # due at 0.5s
        pacer.pace(50)  # due at 1.0s
        assert sleeps == [pytest.approx(0.5), pytest.approx(0.5)]

    def test_catches_up_after_a_stall_instead_of_compounding(self):
        clock = {"now": 0.0}
        sleeps = []
        pacer = RatePacer(100.0, clock=lambda: clock["now"], sleep=sleeps.append)
        pacer.pace(50)  # due at 0.5; clock still 0 -> sleeps 0.5
        clock["now"] = 2.0  # a long consumer stall
        pacer.pace(50)  # due at 1.0, already past -> no sleep
        assert sleeps == [pytest.approx(0.5)]

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            RatePacer(-1.0)


class TestSyntheticSource:
    def test_batch_sizing_and_total(self):
        source = SyntheticSource(packets=100, batch_size=32)
        batches = list(source)
        assert [len(b) for b in batches] == [32, 32, 32, 4]

    def test_deterministic_across_iterations(self):
        source = SyntheticSource(packets=64, batch_size=64)
        (first,) = list(source)
        (second,) = list(source)
        assert list(first.raw_column("ipv4.dst")) == list(second.raw_column("ipv4.dst"))

    def test_hot_key_appears_on_schedule(self):
        source = SyntheticSource(packets=64, batch_size=64, hot_every=16)
        (batch,) = list(source)
        dsts = list(batch.raw_column("ipv4.dst"))
        hot = [i for i, d in enumerate(dsts) if d == WALK_HOT_DST]
        assert hot == [0, 16, 32, 48]

    def test_loop_advances_timestamps_across_epochs(self):
        source = SyntheticSource(
            packets=4, batch_size=4, timestamp_gap=1.0, loop=True
        )
        iterator = iter(source)
        first = next(iterator)
        second = next(iterator)
        assert list(first.timestamps) == [0.0, 1.0, 2.0, 3.0]
        assert list(second.timestamps) == [4.0, 5.0, 6.0, 7.0]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SyntheticSource(packets=0)
        with pytest.raises(ValueError):
            SyntheticSource(batch_size=0)


class TestListSource:
    def test_paces_by_batch_length(self):
        inner = SyntheticSource(packets=20, batch_size=10)
        sleeps = []
        pacer = RatePacer(10.0, clock=lambda: 0.0, sleep=sleeps.append)
        batches = list(ListSource(list(inner), pacer=pacer))
        assert len(batches) == 2
        assert sleeps == [pytest.approx(1.0), pytest.approx(2.0)]


class TestTraceAndScenarioSources:
    def test_requires_exactly_one_input(self):
        with pytest.raises(ValueError):
            TraceSource()
        with pytest.raises(ValueError):
            TraceSource(trace=object(), path="x.pcap")

    @pytest.mark.parametrize("batch_size", [0, -5])
    def test_rejects_a_non_positive_batch_size(self, batch_size):
        with pytest.raises(ValueError):
            TraceSource(trace=PacketTrace(), batch_size=batch_size)

    def test_scenario_replay_matches_trace_and_caches_nothing(self):
        scenario = build_scenario("volumetric_flood")
        source = ScenarioSource("volumetric_flood", batch_size=4096)
        assert source.scenario.name == "volumetric_flood"
        batches = list(source)
        assert sum(len(b) for b in batches) == len(scenario.trace)
        times = [when for batch in batches for when in batch.timestamps]
        assert times == [record.timestamp for record in scenario.trace.records]
        # A second replay decodes its own batches, with the same times.
        again = list(source)
        assert all(new is not old for new, old in zip(again, batches))
        assert [when for batch in again for when in batch.timestamps] == times

    def test_first_batch_is_out_after_decoding_one_batch(self, monkeypatch):
        trace = PacketTrace()
        for i in range(100):
            trace.append(i * 1e-3, udp_frame(0x0A000000 | i))
        decoded = []
        from_trace = PacketBatch.from_trace.__func__

        def counting(cls, records, parser, ingress_port=0):
            decoded.append(len(records))
            return from_trace(cls, records, parser, ingress_port)

        monkeypatch.setattr(PacketBatch, "from_trace", classmethod(counting))
        source = TraceSource(trace=trace, batch_size=16)
        iterator = iter(source)
        assert len(next(iterator)) == 16
        assert decoded == [16]
        assert sum(len(batch) for batch in iterator) == 84
        assert decoded == [16] * 6 + [4]
        list(source)  # a replay decodes again: nothing is kept
        assert decoded == ([16] * 6 + [4]) * 2

    def test_loop_replays_until_stopped(self):
        source = ScenarioSource("volumetric_flood", batch_size=8192, loop=True)
        iterator = iter(source)
        per_pass = len(list(ScenarioSource("volumetric_flood", batch_size=8192)))
        for _ in range(2 * per_pass + 1):  # more than two full passes
            assert next(iterator) is not None

    def test_a_looped_pass_starts_after_the_last_one_ends(self):
        trace = PacketTrace()
        for when in (1.0, 1.5, 3.0):
            trace.append(when, udp_frame(0x0A000001))
        source = TraceSource(trace=trace, batch_size=2, loop=True)
        assert source.period == 3.0  # a span of 2 s plus its mean gap of 1 s
        iterator = iter(source)
        times = [when for _ in range(6) for when in next(iterator).timestamps]
        assert times == [1.0, 1.5, 3.0, 4.0, 4.5, 6.0, 7.0, 7.5, 9.0]
        assert times == sorted(times)

    @pytest.mark.parametrize("times", [[], [2.0], [2.0, 2.0, 2.0], [2.0, 3.0, 2.0]])
    def test_a_trace_that_spans_no_time_cannot_loop(self, times):
        trace = PacketTrace()
        for when in times:
            trace.append(when, udp_frame(0x0A000001))
        TraceSource(trace=trace)  # a single pass is fine
        with pytest.raises(ValueError, match="cannot loop"):
            TraceSource(trace=trace, loop=True)

    @staticmethod
    def looped_passes(window=None, passes=3):
        """Intervals closed and ``traffic_spike`` digests per pass of the
        looped ``volumetric_flood`` replay, through the scenario's own
        detector (its window replaced by ``window`` when given)."""
        scenario = build_scenario("volumetric_flood")
        stat4 = Stat4(scenario.config)
        runtime = Stat4Runtime(stat4)
        for stage, match, spec in scenario.bindings:
            runtime.bind(stage, match, replace(spec, window=window or spec.window))
        engine = BatchEngine(stat4)
        per_pass = len(list(ScenarioSource("volumetric_flood", batch_size=2048)))
        batches = iter(ScenarioSource("volumetric_flood", batch_size=2048, loop=True))
        closed, spikes = [], []
        total = 0
        for _ in range(passes):
            digests = [
                digest
                for _ in range(per_pass)
                for digest in engine.process(next(batches)).digests
            ]
            closed.append(stat4.state_of(0).intervals_closed - total)
            total += closed[-1]
            spikes.append(sum(digest.name == "traffic_spike" for digest in digests))
        return closed, spikes

    def test_every_looped_pass_closes_intervals(self):
        # The capture spans 65 intervals; the first pass leaves its last
        # one open.  The scenario's 64-interval window still holds the
        # last pass's flood when the next flood starts, so only the first
        # pass raises spikes.
        closed, spikes = self.looped_passes()
        assert min(closed) >= 64, closed
        assert spikes == [7, 0, 0]

    def test_every_looped_pass_raises_spikes_once_the_flood_leaves_the_window(self):
        closed, spikes = self.looped_passes(window=16)
        assert min(closed) >= 64, closed
        assert spikes[0] > 0
        assert spikes == spikes[:1] * 3


class TestFeedSource:
    def _send_lines(self, address, lines):
        with socket.create_connection(address, timeout=5.0) as conn:
            for line in lines:
                conn.sendall(line + b"\n")

    def test_json_lines_become_batches(self):
        feed = FeedSource(batch_size=4)
        lines = [
            json.dumps({"dst": "10.0.0.9", "ts": 0.1}).encode(),
            json.dumps({"dst": 0x0A000007, "ts": 0.2, "sport": 7}).encode(),
            b"this is not json",
            json.dumps({"nope": 1}).encode(),
            json.dumps({"dst": "10.0.0.9"}).encode(),  # synthetic ts
        ]
        sender = threading.Thread(
            target=self._send_lines, args=(feed.address, lines)
        )
        sender.start()
        try:
            batches = list(feed)
        finally:
            sender.join(timeout=10.0)
            feed.close()
        assert feed.bad_lines == 2
        assert sum(len(b) for b in batches) == 3
        (batch,) = batches
        assert list(batch.raw_column("ipv4.dst"))[:2] == [0x0A000009, 0x0A000007]
        # Missing ts falls back to last seen + gap.
        assert batch.timestamps[2] == pytest.approx(0.2 + feed.timestamp_gap)

    def test_flushes_at_batch_size(self):
        feed = FeedSource(batch_size=2)
        lines = [
            json.dumps({"dst": "10.0.0.1", "ts": float(i)}).encode()
            for i in range(5)
        ]
        sender = threading.Thread(
            target=self._send_lines, args=(feed.address, lines)
        )
        sender.start()
        try:
            batches = list(feed)
        finally:
            sender.join(timeout=10.0)
            feed.close()
        assert [len(b) for b in batches] == [2, 2, 1]

    @pytest.mark.parametrize("bad", list(BAD_LINES.values()), ids=list(BAD_LINES))
    def test_bad_line_is_counted_and_skipped(self, bad):
        feed = FeedSource(batch_size=8)
        lines = [
            json.dumps({"dst": "10.0.0.1", "ts": 0.5}).encode(),
            bad,
            json.dumps({"dst": "10.0.0.2", "ts": 0.75}).encode(),
        ]
        sender = threading.Thread(
            target=self._send_lines, args=(feed.address, lines)
        )
        sender.start()
        try:
            batches = list(feed)
        finally:
            sender.join(timeout=10.0)
            feed.close()
        assert feed.bad_lines == 1
        (batch,) = batches
        assert batch.raw_column("ipv4.dst") == [0x0A000001, 0x0A000002]
        assert batch.timestamps == [0.5, 0.75]

    def test_overlong_line_is_dropped_and_the_buffer_stays_capped(self, monkeypatch):
        # A client that sends a megabyte with no newline: the source drops
        # that line up to its newline, counts it once, never holds more
        # than the cap of it, and applies the good line after it.
        pending = []
        feed_chunk = sources._LineSplitter.feed

        def watched(splitter, chunk):
            result = feed_chunk(splitter, chunk)
            pending.append(len(splitter.pending))
            return result

        monkeypatch.setattr(sources._LineSplitter, "feed", watched)
        feed = FeedSource(batch_size=8)
        good = json.dumps({"dst": "10.0.0.3", "ts": 1.5}).encode()
        sender = threading.Thread(
            target=self._send_lines,
            args=(feed.address, [b"[" * (1 << 20) + b"\n" + good]),
        )
        sender.start()
        try:
            batches = list(feed)
        finally:
            sender.join(timeout=10.0)
            feed.close()
        assert feed.bad_lines == 1
        (batch,) = batches
        assert batch.raw_column("ipv4.dst") == [0x0A000003]
        assert batch.timestamps == [1.5]
        assert len(pending) > 1
        assert max(pending) <= MAX_LINE_BYTES

    def _feed_raw(self, payload, batch_size=8):
        """Send ``payload`` as-is, close, and return the feed's batches."""
        feed = FeedSource(batch_size=batch_size)

        def send():
            with socket.create_connection(feed.address, timeout=5.0) as conn:
                conn.sendall(payload)

        sender = threading.Thread(target=send)
        sender.start()
        try:
            batches = list(feed)
        finally:
            sender.join(timeout=10.0)
            feed.close()
        return feed, batches

    def test_unterminated_last_line_is_applied(self):
        first = json.dumps({"dst": "10.0.0.1", "ts": 0.5}).encode()
        last = json.dumps({"dst": "10.0.0.2", "ts": 0.75}).encode()
        feed, batches = self._feed_raw(first + b"\n" + last)
        assert feed.bad_lines == 0
        (batch,) = batches
        assert batch.raw_column("ipv4.dst") == [0x0A000001, 0x0A000002]
        assert batch.timestamps == [0.5, 0.75]

    def test_unterminated_malformed_last_line_is_counted(self):
        first = json.dumps({"dst": "10.0.0.1", "ts": 0.5}).encode()
        feed, batches = self._feed_raw(first + b'\n{"dst": "10.0.0.2", "ts"')
        assert feed.bad_lines == 1
        (batch,) = batches
        assert batch.raw_column("ipv4.dst") == [0x0A000001]

    def test_line_splitter_counts_each_overlong_line_once(self):
        splitter = sources._LineSplitter()
        longest = b"a" * MAX_LINE_BYTES
        # A line at the cap is kept; one byte over, inside one chunk, is not.
        assert splitter.feed(longest + b"\n" + longest + b"b\nc") == ([longest], 1)
        # An over-long line across chunks counts when it passes the cap,
        # and the rest of it, up to its newline, is discarded uncounted.
        assert splitter.feed(b"d" * MAX_LINE_BYTES) == ([], 1)
        assert splitter.pending == b""
        assert splitter.feed(b"e" * 100_000) == ([], 0)
        assert splitter.feed(b"f\ng\nh") == ([b"g"], 0)
        assert splitter.pending == b"h"
        # At end of stream the unterminated tail is one more line.
        assert splitter.finish() == [b"h"]
        # A stream that ends inside a discarded over-long line has no tail
        # left: that line was counted once already.
        cut = sources._LineSplitter()
        assert cut.feed(b"i" * (MAX_LINE_BYTES + 1)) == ([], 1)
        assert cut.finish() == []

    def test_lines_pack_the_udp_to_frame(self):
        feed = FeedSource()
        try:
            line = {"dst": 0x0A000007, "src": "10.1.2.3", "sport": 4, "dport": 9, "ts": 2}
            frame, when = feed._frame_of(json.dumps(line).encode(), 0.0)
            assert frame == udp_frame(0x0A000007, 0x0A010203, 4, 9)
            assert when == 2.0 and isinstance(when, float)
        finally:
            feed.close()

    def test_close_unblocks_accept_loop(self):
        feed = FeedSource()
        collected = []

        def run():
            collected.extend(feed)

        consumer = threading.Thread(target=run)
        consumer.start()
        feed.close()
        consumer.join(timeout=10.0)
        assert not consumer.is_alive()
        assert collected == []

    def test_ip_parsing(self):
        assert FeedSource._ip_to_int("10.0.0.7") == 0x0A000007
        assert FeedSource._ip_to_int(42) == 42
        # Leading zeros are read as decimal, not octal.
        assert FeedSource._ip_to_int("010.0.0.1") == 0x0A000001
        assert FeedSource._ip_to_int("00000000255.0.0.0") == 0xFF000000
        with pytest.raises(ValueError):
            FeedSource._ip_to_int("10.0.0")
        with pytest.raises(ValueError):
            FeedSource._ip_to_int("10.0.0.999")
        for bad in (1 << 32, -1, True, "10.0.0.+1", 10.5, *ODD_QUADS):
            with pytest.raises(ValueError):
                FeedSource._ip_to_int(bad)

    @pytest.mark.parametrize("batch_size", [0, -5])
    def test_rejects_a_non_positive_batch_size(self, batch_size):
        with pytest.raises(ValueError):
            FeedSource(batch_size=batch_size)


class _WatchedConnection:
    """An accepted feed connection that counts its reads and mark settings,
    and can refuse ``setsockopt`` as a platform without the option would."""

    def __init__(self, conn, refuse_options=False):
        self._conn = conn
        self._refuse = refuse_options
        self.reads = 0
        self.option_calls = 0

    def __getattr__(self, name):
        return getattr(self._conn, name)

    def recv(self, size):
        self.reads += 1
        return self._conn.recv(size)

    def setsockopt(self, *args):
        self.option_calls += 1
        if self._refuse:
            raise OSError("option refused")
        return self._conn.setsockopt(*args)


@pytest.fixture
def watched(monkeypatch):
    """Wraps each connection a feed drains; returns the wrappers, and a
    switch that makes the next ones refuse ``setsockopt``."""
    connections = []
    refuse = {"options": False}
    drain = FeedSource._drain_connection

    def wrapped(self, conn):
        proxy = _WatchedConnection(conn, refuse["options"])
        connections.append(proxy)
        return drain(self, proxy)

    monkeypatch.setattr(FeedSource, "_drain_connection", wrapped)
    return connections, refuse


class TestFeedReads:
    """A feed connection is read once the batch could be complete."""

    def test_reads_far_fewer_times_than_the_sender_writes(self, watched):
        connections, _refuse = watched
        feed = FeedSource(batch_size=64)
        lines = [
            json.dumps({"dst": f"10.0.0.{i % 250}", "ts": i * 1e-3}).encode() + b"\n"
            for i in range(640)
        ]

        def send():
            with socket.create_connection(feed.address, timeout=5.0) as conn:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                for line in lines:
                    conn.sendall(line)
                    time.sleep(1e-3)

        sender = threading.Thread(target=send)
        sender.start()
        try:
            batches = list(feed)
        finally:
            sender.join(timeout=30.0)
            feed.close()
        assert [len(batch) for batch in batches] == [64] * 10
        (conn,) = connections
        assert conn.reads <= len(lines) // 2

    @pytest.mark.parametrize(
        "writes",
        [
            [b'{"dst":0}\n' * 64],
            # The first read holds 32 packets and 9 bytes of the 33rd line;
            # the second write is exactly what the batch still needs.
            [b'{"dst":0,"ts":0.125}\n' * 32 + b'{"dst":0}', b"\n" + b'{"dst":0}\n' * 31],
        ],
        ids=["one_write", "held_partial_line"],
    )
    def test_the_mark_wakes_the_read_that_completes_a_batch(self, writes):
        # Each write brings exactly the bytes of the shortest lines the
        # batch needs (MIN_PACKET_LINE_BYTES per missing packet, less the
        # unfinished line held); one byte more per line, or the held bytes
        # not subtracted, would hold the read until the 5 s timeout.
        assert len(writes[-1]) in (64 * MIN_PACKET_LINE_BYTES, 32 * MIN_PACKET_LINE_BYTES - 9)
        feed = FeedSource(batch_size=64, accept_timeout=5.0)
        received = threading.Event()
        sent = {}

        def send():
            with socket.create_connection(feed.address, timeout=5.0) as conn:
                for payload in writes:
                    time.sleep(0.2)
                    conn.sendall(payload)
                sent["at"] = time.monotonic()
                received.wait(10.0)

        sender = threading.Thread(target=send)
        sender.start()
        batches = iter(feed)
        try:
            batch = next(batches)
            arrived = time.monotonic()
        finally:
            received.set()
            sender.join(timeout=10.0)
            batches.close()
        assert len(batch) == 64
        assert arrived - sent["at"] < 1.0

    def test_a_quiet_connection_still_counts_bad_lines(self):
        # Three bad lines and one good one are far short of a batch; the
        # connection stays open, so only the timeout can let them be read.
        feed = FeedSource(batch_size=64, accept_timeout=0.3)
        payload = b"".join(line + b"\n" for line in list(BAD_LINES.values())[:3])
        payload += b'{"dst": "10.0.0.1", "ts": 0.5}\n'
        hold = threading.Event()
        sent = {}

        def send():
            with socket.create_connection(feed.address, timeout=5.0) as conn:
                conn.sendall(payload)
                sent["at"] = time.monotonic()
                hold.wait(10.0)

        collected = []
        consumer = threading.Thread(target=lambda: collected.extend(feed))
        sender = threading.Thread(target=send)
        consumer.start()
        sender.start()
        try:
            deadline = time.monotonic() + 10.0
            while feed.bad_lines < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
            counted = time.monotonic()
        finally:
            hold.set()
            sender.join(timeout=10.0)
            consumer.join(timeout=10.0)
            feed.close()
        assert feed.bad_lines == 3
        assert counted - sent["at"] < feed.accept_timeout + 1.0
        (batch,) = collected
        assert batch.raw_column("ipv4.dst") == [0x0A000001]

    def test_a_connection_that_refuses_the_mark_reads_the_same(self, watched):
        connections, refuse = watched
        good = [
            json.dumps({"dst": f"10.0.{i % 3}.{i % 200}", "ts": i * 0.01}).encode()
            for i in range(40)
        ]
        lines = good[:15] + list(BAD_LINES.values())[:4] + good[15:]
        payload = b"".join(line + b"\n" for line in lines)

        def run():
            feed = FeedSource(batch_size=16)

            def send():
                with socket.create_connection(feed.address, timeout=5.0) as conn:
                    for start in range(0, len(payload), 97):
                        conn.sendall(payload[start : start + 97])
                        time.sleep(1e-3)

            sender = threading.Thread(target=send)
            sender.start()
            try:
                batches = list(feed)
            finally:
                sender.join(timeout=10.0)
                feed.close()
            shape = [(b.raw_column("ipv4.dst"), list(b.timestamps)) for b in batches]
            return shape, feed.bad_lines

        marked = run()
        refuse["options"] = True
        unmarked = run()
        assert unmarked == marked
        assert [len(dst) for dst, _ts in marked[0]] == [16, 16, 8]
        assert marked[1] == 4
        assert connections[0].option_calls > 1
        assert connections[1].option_calls == 1


# -- the feed line validation against its former form ------------------------
#
# The oracle is the line validation as it stood before lines were decoded
# with one module-level JSONDecoder, dotted quads went to inet_pton first
# and the port and timestamp checks were inlined.  The current form must
# accept and refuse the same lines and build the same frames and ts.


def _oracle_ip_to_int(value):
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


def _oracle_port(value):
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < 1 << 16:
        raise ValueError(f"bad port {value!r}")
    return value


def _oracle_timestamp(value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"ts must be a number, got {value!r}")
    try:
        when = float(value)
    except OverflowError:
        raise ValueError(f"ts {value!r} is not a finite float") from None
    if not math.isfinite(when):
        raise ValueError(f"ts {value!r} is not finite")
    return when


def _oracle_frame_of(line, fallback_ts):
    record = json.loads(line.decode("utf-8"))
    if not isinstance(record, dict) or "dst" not in record:
        raise ValueError("feed line must be an object with a 'dst'")
    when = _oracle_timestamp(record.get("ts", fallback_ts))
    frame = udp_frame(
        _oracle_ip_to_int(record["dst"]),
        src_ip=_oracle_ip_to_int(record.get("src", "1.1.1.1")),
        sport=_oracle_port(record.get("sport", 40000)),
        dport=_oracle_port(record.get("dport", 9000)),
    )
    return frame, when


def _verdict(frame_of, line):
    """(frame, ts, type of ts), or None for a refused line.  Any other
    exception escapes: the feed would not survive it."""
    try:
        frame, when = frame_of(line, 0.25)
    except (ValueError, RecursionError):
        return None
    return frame, when, type(when)


_octets = st.integers(0, 255)
_quads = st.builds("{}.{}.{}.{}".format, _octets, _octets, _octets, _octets)
#: Strings near a dotted quad: leading zeros, stray dots, signs, padding,
#: NULs, non-ASCII digits and lone surrogates.
_near_quads = st.one_of(
    st.sampled_from(ODD_QUADS + ("010.0.0.1", "00000000255.0.0.0", "\ud800.1.2.3")),
    st.text(alphabet="0123456789.+- \x00١１\ud800a", max_size=20),
    st.builds(
        lambda octets, pads: ".".join("0" * pad + str(o) for o, pad in zip(octets, pads)),
        st.lists(st.integers(0, 300), min_size=4, max_size=4),
        st.lists(st.integers(0, 3), min_size=4, max_size=4),
    ),
)
_addresses = st.one_of(_quads, _near_quads, st.integers(-2, (1 << 32) + 2))
_ports = st.one_of(st.integers(0, 65535), st.integers(-2, 1 << 17))
_timestamps = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(10**6), 10**6),
)
#: Values no field accepts or that probe its type check.
_odd_values = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.integers(min_value=1 << 60).map(lambda n: n**7),
    st.text(max_size=8),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    _near_quads,
)
_FIELDS = ("dst", "src", "sport", "dport", "ts")


@st.composite
def _records(draw):
    """A valid record, then each chosen field mutated or dropped."""
    record = {"dst": draw(st.one_of(_quads, st.integers(0, (1 << 32) - 1)))}
    for name, values in (("src", _addresses), ("sport", _ports), ("dport", _ports), ("ts", _timestamps)):
        if draw(st.booleans()):
            record[name] = draw(values)
    for name in draw(st.lists(st.sampled_from(_FIELDS), max_size=3, unique=True)):
        if draw(st.booleans()):
            record[name] = draw(_odd_values)
        else:
            record.pop(name, None)
    return record


_record_lines = st.one_of(
    st.builds(lambda r: json.dumps(r).encode(), _records()),
    st.builds(lambda r: json.dumps(r, separators=(",", ":")).encode(), _records()),
)
_other_lines = st.one_of(
    st.sampled_from(
        [
            b'{"dst": "10.0.0.1", "ts": NaN}',
            b'{"dst": "10.0.0.1", "ts": -Infinity}',
            b'{"dst": "10.0.0.1", "ts": 1e999}',
            b'{"dst": 1e999}',
            b'{"dst": "10.0.0.1", "ts": 1' + b"0" * 400 + b"}",
            b'{"dst": "10.0.0.1", "dst": 7}',
            b'\xef\xbb\xbf{"dst": "10.0.0.1"}',
            b'{"dst": "10.0.0.1"} trailing',
            b"  \t{\"dst\":0}\r",
            b'{"dst": "10.0.0.1"\xff}',
            b"\xc3\x28",
            b"[" * 100_000,
            b"[" * 50 + b"]" * 50,
        ]
    ),
    st.builds(
        lambda value: json.dumps(value).encode(),
        st.one_of(st.none(), st.booleans(), st.floats(), st.integers(), st.text(), st.lists(st.integers())),
    ),
    st.builds(lambda depth: b"[" * depth + b"]" * depth, st.integers(1, 5000)),
    st.binary(max_size=40),
)


@st.composite
def _mangled_lines(draw):
    """A record line with a few bytes replaced, inserted or deleted."""
    data = bytearray(draw(_record_lines))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        byte = draw(st.sampled_from(b'0123456789.,:"{}[] -+eE\xff\x00'))
        if edit == "insert" or at == len(data):
            data.insert(at, byte)
        elif edit == "replace":
            data[at] = byte
        else:
            del data[at]
    return bytes(data)


class TestFeedValidationDifferential:
    @given(line=st.one_of(_record_lines, _other_lines, _mangled_lines()))
    @settings(max_examples=400, deadline=None)
    @example(line=b'{"dst": "010.0.0.1", "src": "00000000255.0.0.0"}')
    @example(line=b'{"dst": "1.2.3.4\\u0000"}')
    @example(line=b'{"dst": "\\u0661.\\u0662.\\u0663.\\u0664"}')
    @example(line=b'{"dst": "\\ud800.1.2.3"}')
    @example(line=b'{"dst": 0, "ts": true}')
    @example(line=b'{"dst": 0, "sport": false}')
    @example(line=b'{"dst": 0, "ts": 3}')
    def test_same_verdict_frame_and_ts_as_before(self, line):
        feed = FeedSource()
        try:
            assert _verdict(feed._frame_of, line) == _verdict(_oracle_frame_of, line)
        finally:
            feed.close()
