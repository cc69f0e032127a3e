"""Coverage for the streaming ingest sources.

Pacing is tested with injected clocks and recorded sleeps; the TCP feed
is exercised over a real loopback socket.
"""

import json
import socket
import threading

import pytest

from repro.scenarios import build_scenario
from repro.service import sources
from repro.service.sources import (
    MAX_LINE_BYTES,
    FeedSource,
    ListSource,
    RatePacer,
    ScenarioSource,
    SyntheticSource,
    TraceSource,
)
from repro.stat4.batch import PacketBatch
from repro.traffic.builders import udp_frame
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
        hot = [i for i, d in enumerate(dsts) if d == source.hot_dst]
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

    def test_scenario_replay_matches_trace_and_caches(self):
        scenario = build_scenario("volumetric_flood")
        source = ScenarioSource("volumetric_flood", batch_size=4096)
        assert source.scenario.name == "volumetric_flood"
        batches = list(source)
        assert sum(len(b) for b in batches) == len(scenario.trace)
        cached = source._cached
        assert cached is not None
        list(source)  # second replay reuses the parsed batches
        assert source._cached is cached

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
        list(source)  # a replay reuses the decoded batches
        assert len(decoded) == 7

    def test_loop_replays_until_stopped(self):
        source = ScenarioSource("volumetric_flood", batch_size=8192, loop=True)
        iterator = iter(source)
        per_pass = len(list(ScenarioSource("volumetric_flood", batch_size=8192)))
        for _ in range(2 * per_pass + 1):  # more than two full passes
            assert next(iterator) is not None


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
        with pytest.raises(ValueError):
            FeedSource._ip_to_int("10.0.0")
        with pytest.raises(ValueError):
            FeedSource._ip_to_int("10.0.0.999")
        for bad in (1 << 32, -1, True, "10.0.0.+1", 10.5):
            with pytest.raises(ValueError):
                FeedSource._ip_to_int(bad)
