"""End-to-end coverage for the detection server and its HTTP API.

Every server binds port 0 (a free port) on loopback; requests use only
stdlib urllib.  The scenario smoke here is the in-process twin of the CI
service-smoke job: serve ``volumetric_flood``, read ``/alerts``, score
against the labeled ground truth.
"""

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request
from types import SimpleNamespace

import pytest

from repro.p4.packet import Packet
from repro.p4.parser import standard_parser
from repro.p4.switch import PacketContext, StandardMetadata
from repro.scenarios import build_scenario, replay_scenario, scenario_names
from repro.scenarios.score import score_digests
from repro.service.server import (
    MAX_BODY_BYTES,
    DetectionService,
    RetuneError,
    default_bindings,
    default_config,
    install_signal_handlers,
    spec_to_json,
)
from repro.service.sources import FeedSource, ScenarioSource, TraceSource
from repro.stat4.library import Stat4, diff
from repro.stat4.runtime import Stat4Runtime
from repro.traffic.builders import udp_frame
from repro.traffic.trace import PacketTrace
from tests.service.test_sources import BAD_LINES

DEADLINE = 30.0


def request(url, path, method="GET", body=None):
    """One JSON request; returns (status, payload) without raising."""
    data = None if body is None else json.dumps(body).encode("utf-8")
    req = urllib.request.Request(url + path, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=10.0) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


def raw_post(service, path, content_length, body):
    """POST ``body`` under a hand-written ``Content-Length`` header;
    returns (status, Connection header, payload)."""
    host, port = service.address
    connection = http.client.HTTPConnection(host, port, timeout=10.0)
    try:
        connection.putrequest("POST", path)
        connection.putheader("Content-Type", "application/json")
        connection.putheader("Content-Length", content_length)
        connection.endheaders(body or None)
        response = connection.getresponse()
        payload = json.loads(response.read().decode("utf-8"))
        return response.status, response.getheader("Connection"), payload
    finally:
        connection.close()


def wait_for(predicate, timeout=DEADLINE):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class HoldOpenSource:
    """Yields the scenario's batches, then idles until released.

    Keeps a finite replay 'live' so HTTP assertions can run against a
    ready server instead of racing the drain.  ``idle`` is set once the
    last batch has been yielded.
    """

    def __init__(self, name="volumetric_flood"):
        self.scenario = build_scenario(name)
        self.gate = threading.Event()
        self.idle = threading.Event()
        self._inner = ScenarioSource(name)

    def __iter__(self):
        yield from self._inner
        self.idle.set()
        self.gate.wait(DEADLINE)

    def release(self):
        self.gate.set()


@pytest.fixture
def live_service():
    source = HoldOpenSource()
    service = DetectionService(source, name="test").start()
    try:
        assert wait_for(lambda: service.metrics.batches > 0)
        yield service, source
    finally:
        source.release()
        service.close()


class TestScenarioSmoke:
    def test_served_volumetric_flood_scores_perfectly(self):
        source = ScenarioSource("volumetric_flood")
        service = DetectionService(source, with_http=False)
        service.start()
        try:
            assert service.wait(DEADLINE)
            assert service.drained
            assert service.pipeline.error is None
        finally:
            service.close()
        result = service.recent_alerts()
        digests = [
            SimpleNamespace(
                name=a["name"], fields=a["fields"], timestamp=a["timestamp"]
            )
            for a in result["alerts"]
        ]
        assert digests, "serving the flood scenario produced no alerts"
        score = score_digests(source.scenario.truth, digests)
        assert score.precision == 1.0
        assert score.recall == 1.0
        assert score.f1 == 1.0
        snap = service.metrics.snapshot()
        assert snap["packets"] == len(source.scenario.trace)
        assert snap["alerts"] == len(digests)

    @pytest.mark.parametrize("name", scenario_names())
    def test_served_digests_equal_the_scored_replay(self, name):
        # The quality floors score replay_scenario; the service must emit
        # the same digests in the same order.  They are read from every
        # handler result, not from the bounded /alerts ring.
        service = DetectionService(ScenarioSource(name), with_http=False)
        served = []
        handle = service.pipeline.handler

        def recording(batch):
            result = handle(batch)
            served.extend(result.digests)
            return result

        service.pipeline.handler = recording
        service.start()
        try:
            assert service.wait(DEADLINE)
            assert service.pipeline.error is None
        finally:
            service.close()

        def view(digests):
            return [(d.name, d.fields, d.timestamp) for d in digests]

        scored = replay_scenario(build_scenario(name))
        assert scored, f"{name} raised no alerts to compare"
        assert view(served) == view(scored)


class TestHttpEndpoints:
    def test_healthz_reports_ready_then_drained(self, live_service):
        service, source = live_service
        assert wait_for(
            lambda: request(service.url, "/healthz")[0] == 200
        )
        status, payload = request(service.url, "/healthz")
        assert status == 200
        assert payload["state"] == "ready"
        assert payload["ok"] is True
        assert payload["queue_capacity"] == 8
        assert payload["policy"] == "block"
        source.release()
        assert wait_for(lambda: service.drained)
        status, payload = request(service.url, "/healthz")
        assert status == 200
        assert payload["state"] == "drained"

    def test_stats_are_consistent_with_the_replay(self, live_service):
        service, source = live_service
        assert wait_for(
            lambda: service.metrics.packets == len(source.scenario.trace)
        )
        status, stats = request(service.url, "/stats")
        assert status == 200
        assert stats["packets"] == len(source.scenario.trace)
        assert stats["alerts"] == stats["alert_cursor"]
        assert stats["alerts"] > 0
        assert stats["dropped_batches"] == 0
        assert stats["batch_latency_p99_ms"] is not None
        assert sum(stats["kernels"].values()) > 0

    def test_alerts_cursor_pagination_and_long_poll(self, live_service):
        service, source = live_service
        # Paginate only once the replay is fully ingested: the metrics
        # record a batch after its alerts are appended, so no late append
        # can move the cursor under the assertions below.
        assert wait_for(
            lambda: service.metrics.packets == len(source.scenario.trace)
        )
        assert wait_for(lambda: service.alerts.cursor > 0)
        status, first = request(service.url, "/alerts?limit=1")
        assert status == 200
        assert len(first["alerts"]) == 1
        assert first["alerts"][0]["name"] in ("traffic_spike", "imbalance")
        status, rest = request(service.url, f"/alerts?since={first['cursor']}")
        assert status == 200
        total = service.alerts.cursor
        assert first["cursor"] + len(rest["alerts"]) == total
        # Long-poll on an up-to-date cursor times out empty (bounded wait).
        start = time.monotonic()
        status, empty = request(
            service.url, f"/alerts?since={total}&timeout=0.2"
        )
        assert status == 200
        assert empty["alerts"] == []
        assert time.monotonic() - start >= 0.15

    def test_keep_alive_requests_are_not_delayed(self, live_service):
        # Headers and body go out as two writes; with Nagle's algorithm on,
        # each keep-alive response body waits for the client's delayed ACK
        # (~40 ms per request on Linux loopback).  The requests are timed
        # once the replay is over and every packet is applied, so ingest
        # work holding the GIL cannot stand in for that delay.
        service, source = live_service
        assert source.idle.wait(DEADLINE)
        assert wait_for(
            lambda: service.metrics.snapshot()["packets"]
            == len(source.scenario.trace)
        )
        host, port = service.address
        connection = http.client.HTTPConnection(host, port, timeout=10.0)
        try:
            start = time.monotonic()
            for _ in range(10):
                connection.request("GET", "/alerts?limit=1")
                response = connection.getresponse()
                assert response.status == 200
                json.loads(response.read().decode("utf-8"))
            elapsed = time.monotonic() - start
        finally:
            connection.close()
        assert elapsed < 0.2, f"ten keep-alive requests took {elapsed:.3f}s"

    def test_alerts_rejects_malformed_query(self, live_service):
        service, _source = live_service
        status, payload = request(service.url, "/alerts?since=banana")
        assert status == 400
        assert "bad query parameter" in payload["error"]

    def test_bindings_roundtrip_retune(self, live_service):
        service, _source = live_service
        status, listing = request(service.url, "/bindings")
        assert status == 200
        assert len(listing["bindings"]) == 1  # volumetric_flood binds one stage
        entry = listing["bindings"][0]
        assert "k_sigma" in listing["retune_fields"]
        old_generation = entry["spec"]["generation"]
        status, tuned = request(
            service.url,
            "/bindings",
            method="POST",
            body={"id": entry["id"], "spec": {"k_sigma": 5, "cooldown": 2.5}},
        )
        assert status == 200
        assert tuned["spec"]["k_sigma"] == 5
        assert tuned["spec"]["cooldown"] == 2.5
        assert tuned["spec"]["generation"] > old_generation
        status, relisted = request(service.url, "/bindings")
        assert relisted["bindings"][0]["spec"]["k_sigma"] == 5

    def test_bindings_post_validation(self, live_service):
        service, _source = live_service
        cases = [
            ({"id": 0, "spec": {"dist": 1}}, "not retunable"),
            ({"id": 99, "spec": {"k_sigma": 3}}, "out of range"),
            ({"id": 0, "spec": {}}, "no retune fields"),
            ({"id": 0}, "spec"),
            ({"spec": {"k_sigma": 3}}, "id"),
        ]
        for body, fragment in cases:
            status, payload = request(
                service.url, "/bindings", method="POST", body=body
            )
            assert status == 400, body
            assert fragment in payload["error"]

    def test_alerts_rejects_a_negative_since(self, live_service):
        # A cursor below zero is no cursor; it used to read as "dropped"
        # records that never aged out.
        service, _source = live_service
        status, payload = request(service.url, "/alerts?since=-5")
        assert status == 400
        assert "bad query parameter" in payload["error"]

    def test_bindings_post_rejects_a_non_integer_id(self, live_service):
        service, _source = live_service
        for binding_id in ("x", None, 1.5, True):
            status, payload = request(
                service.url,
                "/bindings",
                method="POST",
                body={"id": binding_id, "spec": {"k_sigma": 3}},
            )
            assert status == 400, binding_id
            assert "integer" in payload["error"]

    def test_bindings_post_rejects_a_malformed_content_length(self, live_service):
        service, _source = live_service
        for length in ("abc", "-1"):
            status, connection, payload = raw_post(
                service, "/bindings", length, b'{"id": 0}'
            )
            assert status == 400, length
            assert connection == "close"
            assert "Content-Length" in payload["error"]

    def test_bindings_post_refuses_an_oversized_body_unread(self, live_service):
        # Announced far beyond the cap and never sent: the server must
        # answer from the header alone instead of trying to read it.
        service, _source = live_service
        status, connection, payload = raw_post(
            service, "/bindings", str(10**15), b""
        )
        assert status == 413
        assert connection == "close"
        assert str(MAX_BODY_BYTES) in payload["error"]
        # The service is still serving.
        assert request(service.url, "/healthz")[0] in (200, 503)

    def test_unknown_route_is_404(self, live_service):
        service, _source = live_service
        assert request(service.url, "/nope")[0] == 404
        assert request(service.url, "/nope", method="POST", body={})[0] == 404

    def test_unknown_post_body_is_not_read_as_the_next_request(self, live_service):
        # An unread body on a keep-alive connection used to be parsed as
        # the next request line, answering a valid GET with an HTML 400.
        service, _source = live_service
        host, port = service.address
        connection = http.client.HTTPConnection(host, port, timeout=10.0)
        try:
            body = b'{"a": 1}'
            assert len(body) == 8
            connection.request(
                "POST", "/nope", body=body, headers={"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            assert response.status == 404
            json.loads(response.read().decode("utf-8"))
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type") == "application/json"
            assert json.loads(response.read().decode("utf-8"))["service"] == "test"
        finally:
            connection.close()

    def test_post_shutdown_reads_its_body(self, live_service):
        service, source = live_service
        host, port = service.address
        connection = http.client.HTTPConnection(host, port, timeout=10.0)
        try:
            connection.request("POST", "/shutdown", body=b'{"now": true}')
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read().decode("utf-8")) == {"stopping": True}
            # Nothing of the body is left on the connection: the next
            # request is answered as itself.
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status in (200, 503)
            assert response.getheader("Content-Type") == "application/json"
            assert json.loads(response.read().decode("utf-8"))["service"] == "test"
        finally:
            connection.close()
        source.release()
        assert wait_for(lambda: service.stopping)

    def test_post_shutdown_rejects_a_malformed_content_length(self, live_service):
        service, _source = live_service
        status, connection, payload = raw_post(service, "/shutdown", "abc", b"{}")
        assert status == 400
        assert connection == "close"
        assert "Content-Length" in payload["error"]
        assert not service.stopping

    def test_post_shutdown_stops_the_pipeline(self, live_service):
        service, source = live_service
        status, payload = request(service.url, "/shutdown", method="POST")
        assert status == 200
        assert payload["stopping"] is True
        source.release()
        assert wait_for(lambda: service.stopping)


def scalar_oracle(frames, times):
    """The default detectors over ``frames`` one packet at a time."""
    stat4 = Stat4(default_config())
    runtime = Stat4Runtime(stat4)
    for stage, match, spec in default_bindings():
        runtime.bind(stage, match, spec)
    parser = standard_parser()
    alerts = []
    for frame, when in zip(frames, times):
        ctx = PacketContext(
            parsed=parser.parse(Packet(frame)),
            meta=StandardMetadata(ingress_port=0, timestamp=when),
        )
        ctx.user["frame_bytes"] = len(frame)
        stat4.process(ctx)
        alerts.extend((d.name, d.fields, d.timestamp) for d in ctx.digests)
    return stat4, alerts


class TestIngestAccounting:
    def test_stats_count_the_frames_the_parser_rejected(self):
        trace = PacketTrace()
        truncated = 0
        for i in range(300):
            frame = udp_frame(0x0A000000 | (i % 40))
            if i % 7 == 3:
                frame = frame[: 14 + i % 20]  # cut inside the IPv4 header
                truncated += 1
            trace.append(i * 0.01, frame)
        service = DetectionService(
            TraceSource(trace=trace, batch_size=64), with_http=False
        ).start()
        try:
            assert service.wait(DEADLINE)
            assert service.drained
        finally:
            service.close()
        stats = service.stats()
        assert stats["rejected_frames"] == truncated
        assert stats["packets"] == 300 - truncated
        assert "bad_lines" not in stats  # only a feed has lines

    def test_bad_feed_lines_leave_the_service_serving(self):
        fields = [
            (0x0A000007 if i % 3 == 0 else 0x0A000000 | i % 50, i * 0.01, i)
            for i in range(600)
        ]
        good = [
            json.dumps({"dst": dst, "ts": ts, "sport": sport}).encode()
            for dst, ts, sport in fields
        ]
        lines = []
        for i, line in enumerate(good):
            lines.append(line)
            if i % 60 == 0:
                lines.extend(BAD_LINES.values())
        bad = len(lines) - len(good)
        feed = FeedSource(batch_size=64)
        service = DetectionService(feed, with_http=False).start()
        try:
            with socket.create_connection(feed.address, timeout=10.0) as conn:
                conn.sendall(b"\n".join(lines) + b"\n")
            assert service.wait(DEADLINE)
            assert service.pipeline.error is None
            assert service.pipeline.state() == "drained"
        finally:
            service.close()
        stats = service.stats()
        assert stats["bad_lines"] == bad
        assert stats["packets"] == len(good)
        oracle, alerts = scalar_oracle(
            [udp_frame(dst, sport=sport) for dst, _ts, sport in fields],
            [ts for _dst, ts, _sport in fields],
        )
        served = service.recent_alerts()["alerts"]
        assert alerts, "the good lines raise no alert"
        assert [(a["name"], a["fields"], a["timestamp"]) for a in served] == alerts
        assert diff(service.stat4.snapshot(), oracle.snapshot()) == []


class TestDegradedOverHttp:
    def test_healthz_flips_to_503_degraded_when_ingest_stalls(self):
        clock = {"now": 0.0}
        source = HoldOpenSource()
        service = DetectionService(
            source,
            degraded_after=5.0,
            clock=lambda: clock["now"],
            name="degraded-test",
        ).start()
        try:
            # The source decodes batch by batch, so an empty queue does not
            # mean it is done: wait until every batch has been applied.
            assert wait_for(
                lambda: service.metrics.packets == len(source.scenario.trace)
            )
            assert wait_for(
                lambda: service.pipeline.queue_depth == 0
                and service.pipeline.state() == "ready"
            )
            status, _ = request(service.url, "/healthz")
            assert status == 200
            clock["now"] = 6.0  # silence beyond the threshold
            status, payload = request(service.url, "/healthz")
            assert status == 503
            assert payload["state"] == "degraded"
            assert payload["ok"] is False
            assert payload["last_ingest_age_seconds"] > 5.0
        finally:
            source.release()
            service.close()


class TestServiceConfiguration:
    def test_scenario_source_supplies_detector_config(self):
        source = HoldOpenSource()
        service = DetectionService(source, with_http=False)
        assert service.config is source.scenario.config
        assert len(service.handles) == len(source.scenario.bindings)
        source.release()

    def test_defaults_apply_without_a_scenario(self):
        service = DetectionService([], with_http=False)
        assert service.config.binding_stages == default_config().binding_stages
        assert len(service.handles) == len(default_bindings())

    def test_retune_error_without_http(self):
        service = DetectionService([], with_http=False)
        with pytest.raises(RetuneError):
            service.retune(0, {"kind": "percentile"})
        with pytest.raises(RetuneError):
            service.retune(0, {})

    def test_spec_to_json_is_json_serializable(self):
        for _stage, _match, spec in default_bindings():
            json.dumps(spec_to_json(spec))


class TestSignalHandlers:
    def test_first_signal_requests_graceful_stop(self):
        import signal as signal_module

        source = HoldOpenSource()
        service = DetectionService(source, with_http=False).start()
        previous = install_signal_handlers(
            service, signals=(signal_module.SIGUSR1,)
        )
        try:
            signal_module.raise_signal(signal_module.SIGUSR1)
            assert wait_for(lambda: service.stopping)
        finally:
            signal_module.signal(
                signal_module.SIGUSR1, previous[signal_module.SIGUSR1]
            )
            source.release()
            service.close()
