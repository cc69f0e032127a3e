"""Unit coverage for the service telemetry primitives.

Every clock here is injected, so EWMA decay, health ages, and uptime are
checked against hand-computed values without a single ``sleep``.
"""

import math
import threading

import pytest

from repro.service.metrics import AlertLog, EwmaRate, LatencyRing, ServiceMetrics


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


class FakeDigest:
    def __init__(self, name="traffic_spike", fields=None, timestamp=0.0):
        self.name = name
        self.fields = fields if fields is not None else {"index": 7}
        self.timestamp = timestamp


class TestEwmaRate:
    def test_first_observation_seeds_without_spiking(self):
        rate = EwmaRate(tau=2.0, clock=FakeClock())
        assert rate.observe(1_000, now=5.0) == 0.0
        assert rate.value == 0.0

    def test_converges_to_a_steady_rate(self):
        rate = EwmaRate(tau=2.0)
        for tick in range(200):
            rate.observe(100, now=tick * 0.1)  # 1000 pps steady
        assert rate.value == pytest.approx(1000.0, rel=1e-3)

    def test_single_step_matches_hand_computation(self):
        rate = EwmaRate(tau=2.0)
        rate.observe(0, now=0.0)
        rate.observe(500, now=1.0)  # instantaneous 500/s from value 0
        alpha = 1.0 - math.exp(-1.0 / 2.0)
        assert rate.value == pytest.approx(alpha * 500.0)

    def test_same_instant_burst_does_not_divide_by_zero(self):
        rate = EwmaRate(tau=2.0)
        rate.observe(10, now=1.0)
        rate.observe(10, now=1.0)
        assert rate.value > 0

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            EwmaRate(tau=0.0)


class TestLatencyRing:
    def test_percentile_over_partial_fill(self):
        ring = LatencyRing(capacity=8)
        for value in (5.0, 1.0, 3.0):
            ring.record(value)
        assert ring.percentile(0) == 1.0
        assert ring.percentile(50) == 3.0
        assert ring.percentile(100) == 5.0

    def test_overwrites_oldest_at_capacity(self):
        ring = LatencyRing(capacity=4)
        for value in (10.0, 10.0, 10.0, 10.0, 1.0, 1.0):
            ring.record(value)
        # The window now holds [1, 1, 10, 10]: two old samples survived.
        assert ring.percentile(50) == 1.0
        assert ring.recorded == 6
        assert len(ring) == 4

    def test_empty_ring_has_no_percentile(self):
        assert LatencyRing().percentile(99) is None

    def test_out_of_range_percentile_rejected(self):
        ring = LatencyRing()
        ring.record(1.0)
        with pytest.raises(ValueError):
            ring.percentile(101)


class TestAlertLog:
    def test_cursors_increase_and_since_resumes(self):
        log = AlertLog(capacity=16)
        for index in range(5):
            log.append(FakeDigest(timestamp=float(index)))
        first = log.since(0)
        assert [a["cursor"] for a in first["alerts"]] == [0, 1, 2, 3, 4]
        assert first["dropped"] == 0
        assert first["cursor"] == 5
        assert log.since(first["cursor"])["alerts"] == []

    def test_limit_caps_one_read_without_losing_the_rest(self):
        log = AlertLog(capacity=16)
        for index in range(5):
            log.append(FakeDigest(timestamp=float(index)))
        page = log.since(0, limit=2)
        assert [a["cursor"] for a in page["alerts"]] == [0, 1]
        rest = log.since(page["cursor"])
        assert [a["cursor"] for a in rest["alerts"]] == [2, 3, 4]

    def test_overflow_reports_dropped_count(self):
        log = AlertLog(capacity=3)
        for index in range(10):
            log.append(FakeDigest(timestamp=float(index)))
        result = log.since(0)
        assert result["dropped"] == 7
        assert [a["cursor"] for a in result["alerts"]] == [7, 8, 9]

    def test_since_slices_like_a_scan_of_every_record(self):
        # The read slices the ring at ``cursor - oldest``; the reference is
        # the full scan it replaced, over cursors before, inside and past
        # the retained eight.
        log = AlertLog(capacity=8)
        for index in range(20):
            log.append(FakeDigest(fields={"index": index}, timestamp=float(index)))

        def scanned(cursor, limit):
            records = log._records
            oldest = records[0][0] if records else log._next_cursor
            fresh = [{"cursor": c, **record} for c, record in records if c >= cursor]
            if limit > 0:
                fresh = fresh[:limit]
            next_cursor = (fresh[-1]["cursor"] + 1) if fresh else max(cursor, oldest)
            return {"cursor": next_cursor, "dropped": max(0, oldest - cursor), "alerts": fresh}

        for cursor in range(26):
            for limit in (0, 1, 3):
                assert log.since(cursor, limit) == scanned(cursor, limit), (cursor, limit)

    def test_records_carry_digest_payload(self):
        log = AlertLog()
        log.append(FakeDigest(name="imbalance", fields={"index": 9}, timestamp=2.5))
        (record,) = log.since(0)["alerts"]
        assert record["name"] == "imbalance"
        assert record["fields"] == {"index": 9}
        assert record["timestamp"] == 2.5

    def test_wait_since_wakes_on_append(self):
        log = AlertLog()
        results = {}

        def poll():
            results["got"] = log.wait_since(0, timeout=10.0)

        thread = threading.Thread(target=poll)
        thread.start()
        log.append(FakeDigest())
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert len(results["got"]["alerts"]) == 1

    def test_wait_since_times_out_empty(self):
        log = AlertLog()
        result = log.wait_since(0, timeout=0.05)
        assert result["alerts"] == []


class TestServiceMetrics:
    def test_record_batch_accumulates_everything(self):
        clock = FakeClock(0.0)
        metrics = ServiceMetrics(clock=clock)
        clock.now = 1.0
        metrics.record_batch(
            packets=100,
            digests=2,
            kernels={"time_series": 100},
            enqueued_at=0.5,
            applied_at=1.0,
        )
        clock.now = 2.0
        metrics.record_batch(
            packets=50,
            digests=0,
            kernels={"time_series": 40, "exact_loop": 10},
            enqueued_at=1.9,
            applied_at=2.0,
        )
        snap = metrics.snapshot()
        assert snap["packets"] == 150
        assert snap["batches"] == 2
        assert snap["alerts"] == 2
        assert snap["kernels"] == {"time_series": 140, "exact_loop": 10}
        assert snap["batch_latency_p99_ms"] == pytest.approx(500.0)
        # Only the digest-bearing batch contributes alert latency.
        assert snap["alert_latency_p99_ms"] == pytest.approx(500.0)
        assert snap["latency_samples"] == 2
        assert snap["uptime_seconds"] == pytest.approx(2.0)

    def test_last_ingest_age_tracks_the_clock(self):
        clock = FakeClock(0.0)
        metrics = ServiceMetrics(clock=clock)
        assert metrics.last_ingest_age() is None
        metrics.record_batch(10, 0, {}, enqueued_at=0.0, applied_at=1.0)
        clock.now = 4.5
        assert metrics.last_ingest_age() == pytest.approx(3.5)

    def test_drops_count_separately(self):
        metrics = ServiceMetrics(clock=FakeClock())
        metrics.record_drop(2048)
        metrics.record_drop(100)
        snap = metrics.snapshot()
        assert snap["dropped_batches"] == 2
        assert snap["dropped_packets"] == 2148
        assert snap["batches"] == 0
