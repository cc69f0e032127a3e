# p4-ok-file — host-side HTTP serving layer, not data-plane code.
"""The always-on detection server behind ``repro serve``.

:class:`DetectionService` composes the pieces the batch pipeline already
has — a fresh :class:`~repro.stat4.library.Stat4` with binding entries
installed through :class:`~repro.stat4.runtime.Stat4Runtime`, a
:class:`~repro.netsim.switchnode.SwitchNode`, and a scalar
:class:`~repro.stat4.batch.BatchEngine` or shm
:class:`~repro.stat4.parallel.ParallelBatchEngine` — under the bounded
:class:`~repro.service.pipeline.ServicePipeline`, and exposes a stdlib
``ThreadingHTTPServer`` JSON API (no dependencies beyond the standard
library):

- ``GET /healthz`` — liveness: pipeline state (200 only for ready or
  drained), queue depth, last-ingest age;
- ``GET /stats``   — cumulative counters (packets, frames the parser
  rejected, a feed's bad lines), per-kernel event counts, packets/sec
  EWMA, p50/p99 batch latency, alert-latency p99;
- ``GET /alerts``  — recent k·σ digests; ``?since=<cursor>`` resumes an
  incremental read, ``&timeout=<s>`` long-polls for new ones;
- ``GET /bindings`` / ``POST /bindings`` — inspect and retune the live
  binding-table entries through ``Stat4Runtime.rebind`` (the paper's
  runtime control-plane knob, now over HTTP);
- ``POST /shutdown`` — graceful stop (same path as SIGTERM).

Concurrency model: exactly one worker thread touches the detector, so
batch processing needs no internal locking; ``POST /bindings`` runs on an
HTTP thread and takes :attr:`DetectionService._detector_lock` against the
worker's ingest — a rebind lands *between* batches, preserving the
data-plane atomicity the batch engine documents.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.netsim.network import Network
from repro.netsim.switchnode import SwitchNode
from repro.p4.parser import standard_parser
from repro.p4.pipeline import PipelineProgram
from repro.p4.registers import RegisterFile
from repro.service.metrics import AlertLog, ServiceMetrics
from repro.service.pipeline import ServicePipeline
from repro.stat4.batch import BatchEngine, PacketBatch
from repro.stat4.binding import MATCH_ALL, BindingMatch
from repro.stat4.config import Stat4Config
from repro.stat4.distributions import TrackSpec
from repro.stat4.extract import ExtractSpec
from repro.stat4.library import Stat4
from repro.stat4.parallel import ParallelBatchEngine, shutdown_pools
from repro.stat4.runtime import BindingHandle, Stat4Runtime
from repro.traffic.columns import ensure_termination_cleanup

__all__ = [
    "DetectionService",
    "default_config",
    "default_bindings",
    "spec_to_json",
    "install_signal_handlers",
    "RETUNE_FIELDS",
]

#: Spec fields ``POST /bindings`` may rewrite, with their coercions.
#: Structural fields (dist, kind, extract) stay immutable over HTTP — those
#: change *what* a slot tracks, which is a redeploy, not a retune.
RETUNE_FIELDS: Dict[str, Callable[[Any], Any]] = {
    "k_sigma": int,
    "min_samples": int,
    "margin": int,
    "cooldown": float,
    "interval": float,
    "window": int,
    "alert": str,
    "percentile_alert": str,
    "percent": lambda v: None if v is None else int(v),
    "accept_lo": int,
    "accept_hi": int,
}

#: Upper bound on an ``/alerts`` long-poll, regardless of the query.
MAX_LONG_POLL = 30.0


def default_config() -> Stat4Config:
    """The detector geometry for sources without their own (feed, synthetic)."""
    return Stat4Config(counter_num=2, counter_size=256, binding_stages=2)


def default_bindings() -> List[Tuple[int, BindingMatch, TrackSpec]]:
    """Default detectors: per-interval rate spikes + per-/24-host imbalance.

    Stage 0 tracks the packet rate over one-second intervals with a 2σ
    spike check; stage 1 tracks the frequency of the destination's last
    octet with a 2σ imbalance check — together the two Table-1 staples,
    one binding per stage (each stage yields at most one rule per packet).
    """
    runtime = Stat4Runtime()  # message-only: used purely for spec builders
    return [
        (
            0,
            MATCH_ALL,
            runtime.rate_over_time(
                dist=0, interval=1.0, k_sigma=2, alert="traffic_spike", min_samples=4
            ),
        ),
        (
            1,
            MATCH_ALL,
            runtime.frequency_of(
                dist=1,
                extract=ExtractSpec.field("ipv4.dst", mask=0xFF),
                k_sigma=2,
                alert="imbalance",
                min_samples=32,
                margin=2,
            ),
        ),
    ]


def spec_to_json(spec: TrackSpec) -> Dict[str, Any]:
    """A JSON-ready view of one binding's :class:`TrackSpec`."""
    return {
        "dist": spec.dist,
        "kind": spec.kind.value,
        "extract": {
            "source": spec.extract.source,
            "shift": spec.extract.shift,
            "mask": spec.extract.mask,
            "constant_value": spec.extract.constant_value,
        },
        "interval": spec.interval,
        "k_sigma": spec.k_sigma,
        "alert": spec.alert,
        "percent": spec.percent,
        "window": spec.window,
        "percentile_alert": spec.percentile_alert,
        "min_samples": spec.min_samples,
        "margin": spec.margin,
        "cooldown": spec.cooldown,
        "accept_lo": spec.accept_lo,
        "accept_hi": spec.accept_hi,
        "generation": spec.generation,
    }


class RetuneError(ValueError):
    """A ``POST /bindings`` request that cannot be applied (HTTP 400)."""


class DetectionService:
    """The long-running detection server (see module docstring).

    Args:
        source: iterable of batches (see :mod:`repro.service.sources`).
            A :class:`~repro.service.sources.ScenarioSource` brings its own
            detector configuration, used unless overridden here.
        config: detector geometry (default: the source's, else
            :func:`default_config`).
        bindings: ``(stage, match, spec)`` entries (same defaulting).
        engine: ``"scalar"`` or ``"parallel"``.
        workers: parallel-engine worker processes.
        queue_depth / policy / degraded_after: pipeline knobs (see
            :class:`ServicePipeline`).
        with_http: serve the JSON API (off for in-process bench use).
        host / port: HTTP bind address (port 0 picks a free port; read
            the result back from :attr:`address`).
        clock: injectable monotonic clock for tests.
    """

    def __init__(
        self,
        source: Iterable[PacketBatch],
        config: Optional[Stat4Config] = None,
        bindings: Optional[Sequence[Tuple[int, BindingMatch, TrackSpec]]] = None,
        engine: str = "scalar",
        workers: int = 4,
        queue_depth: int = 8,
        policy: str = "block",
        degraded_after: float = 5.0,
        with_http: bool = True,
        host: str = "127.0.0.1",
        port: int = 0,
        alert_capacity: int = 1024,
        name: str = "service",
        clock: Callable[[], float] = time.monotonic,
    ):
        scenario = getattr(source, "scenario", None)
        if config is None:
            config = scenario.config if scenario is not None else default_config()
        if bindings is None:
            bindings = (
                list(scenario.bindings) if scenario is not None else default_bindings()
            )
        self.source = source
        self.scenario = scenario
        self.config = config
        self.name = name
        self.engine_kind = engine
        self._clock = clock
        self._detector_lock = threading.Lock()

        # Detector: the exact construction the scenario scorer uses, so the
        # served pipeline and the gated replay run identical code.
        registers = RegisterFile()
        self.stat4 = Stat4(config, registers)
        self.runtime = Stat4Runtime(self.stat4)
        self.handles: List[BindingHandle] = []
        for stage, match, spec in bindings:
            handle, _ = self.runtime.bind(stage, match, spec)
            self.handles.append(handle)
        program = PipelineProgram(
            name=f"service_{name}",
            parser=standard_parser(),
            registers=registers,
            ingress=self.stat4.process,
        )
        self.stat4.install_into(program)
        self.node = SwitchNode(f"service-{name}", program)
        # Unwired CPU port: digests still come back from ingest_batch,
        # which is what the alert log records.
        Network().add(self.node)

        if engine == "scalar":
            self.engine: BatchEngine = BatchEngine(self.stat4)
        elif engine == "parallel":
            self.engine = ParallelBatchEngine(self.stat4, workers=workers)
        else:
            raise ValueError(f"unknown engine {engine!r}; pick scalar or parallel")

        self.metrics = ServiceMetrics(clock=clock)
        self.alerts = AlertLog(capacity=alert_capacity)
        self.pipeline = ServicePipeline(
            source,
            self._handle_batch,
            queue_depth=queue_depth,
            policy=policy,
            metrics=self.metrics,
            degraded_after=degraded_after,
            clock=clock,
        )

        self._httpd: Optional[ThreadingHTTPServer] = None
        self._http_thread: Optional[threading.Thread] = None
        if with_http:
            self._httpd = _ServiceHTTPServer((host, port), _ServiceHandler)
            self._httpd.service = self

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> Optional[Tuple[str, int]]:
        """The bound HTTP ``(host, port)``; None without HTTP."""
        if self._httpd is None:
            return None
        return self._httpd.server_address[:2]

    @property
    def url(self) -> Optional[str]:
        address = self.address
        if address is None:
            return None
        return f"http://{address[0]}:{address[1]}"

    def start(self) -> "DetectionService":
        """Install the shm sweep chain, start HTTP and the pipeline."""
        # The columns SIGTERM sweep must sit underneath any handler the CLI
        # chains on top — a served process dying mid-ingest must not leave
        # /dev/shm segments behind (see install_signal_handlers).
        ensure_termination_cleanup()
        if self._httpd is not None and self._http_thread is None:
            self._http_thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-service-http",
                daemon=True,
            )
            self._http_thread.start()
        self.pipeline.start()
        return self

    def stop(self) -> None:
        """Request a graceful stop (signal-handler safe: just sets events)."""
        self.pipeline.stop()

    @property
    def stopping(self) -> bool:
        return self.pipeline.stopping

    @property
    def drained(self) -> bool:
        return self.pipeline.drained

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the pipeline threads exit (finite sources drain)."""
        return self.pipeline.join(timeout)

    def close(self, timeout: float = 5.0) -> None:
        """Stop everything: pipeline, HTTP, and the engine's pool segments."""
        self.pipeline.stop()
        self.pipeline.join(timeout)
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            if self._http_thread is not None:
                self._http_thread.join(timeout)
                self._http_thread = None
        if isinstance(self.engine, ParallelBatchEngine):
            # Sweep any segment a killed-mid-batch fan-out left registered;
            # pools themselves are process-global and swept at exit.
            from repro.traffic.columns import release_all_segments

            release_all_segments()

    # -- the worker-side handler ------------------------------------------

    def _handle_batch(self, batch: PacketBatch) -> Any:
        with self._detector_lock:
            result = self.node.ingest_batch(batch, self.engine)
        for digest in result.digests:
            self.alerts.append(digest)
        return result

    # -- control-plane (HTTP-facing) views --------------------------------

    def health(self) -> Dict[str, Any]:
        payload = self.pipeline.health()
        payload["service"] = self.name
        payload["engine"] = self.engine_kind
        payload["alert_cursor"] = self.alerts.cursor
        return payload

    def stats(self) -> Dict[str, Any]:
        payload = self.metrics.snapshot()
        payload["service"] = self.name
        payload["engine"] = self.engine_kind
        payload["state"] = self.pipeline.state()
        payload["queue_depth"] = self.pipeline.queue_depth
        payload["alert_cursor"] = self.alerts.cursor
        bad_lines = getattr(self.source, "bad_lines", None)
        if bad_lines is not None:
            # A feed's lines that failed validation (FeedSource.bad_lines).
            payload["bad_lines"] = bad_lines
        if isinstance(self.engine, ParallelBatchEngine):
            # Merge-engine observability: how every fanned-out chunk was
            # reconciled since start (adopt/fold are the fast paths; a high
            # replay share means chunks keep crossing alert boundaries).
            payload["merge_chunks"] = {
                "adopted": self.engine.merge_adopted_chunks,
                "folded": self.engine.merge_folded_chunks,
                "replayed": self.engine.merge_replayed_chunks,
            }
        return payload

    def describe_bindings(self) -> Dict[str, Any]:
        with self._detector_lock:
            entries = [
                {
                    "id": index,
                    "stage": handle.stage,
                    "entry_id": handle.entry_id,
                    "match": {
                        "ether_type": handle.match.ether_type,
                        "dst_prefix": handle.match.dst_prefix,
                        "protocol": handle.match.protocol,
                        "tcp_flags": handle.match.tcp_flags,
                    },
                    "spec": spec_to_json(handle.spec),
                }
                for index, handle in enumerate(self.handles)
            ]
        return {"bindings": entries, "retune_fields": sorted(RETUNE_FIELDS)}

    def retune(self, binding_id: int, overrides: Dict[str, Any]) -> Dict[str, Any]:
        """Rewrite one live binding's spec (the ``POST /bindings`` core).

        Only :data:`RETUNE_FIELDS` may change; the rebind lands between
        batches (detector lock) and bumps the spec generation, so the slot
        resets exactly as the runtime API documents.
        """
        if not overrides:
            raise RetuneError("no retune fields given")
        coerced: Dict[str, Any] = {}
        for key, value in overrides.items():
            if key not in RETUNE_FIELDS:
                raise RetuneError(
                    f"field {key!r} is not retunable "
                    f"(allowed: {', '.join(sorted(RETUNE_FIELDS))})"
                )
            try:
                coerced[key] = RETUNE_FIELDS[key](value)
            except (TypeError, ValueError) as exc:
                raise RetuneError(f"bad value for {key!r}: {exc}") from exc
        with self._detector_lock:
            if not 0 <= binding_id < len(self.handles):
                raise RetuneError(
                    f"binding id {binding_id} out of range "
                    f"[0, {len(self.handles)})"
                )
            handle = self.handles[binding_id]
            try:
                new_spec = replace(handle.spec, **coerced)
            except Exception as exc:  # ValueRangeError and friends
                raise RetuneError(str(exc)) from exc
            new_handle, _ = self.runtime.rebind(handle, spec=new_spec)
            self.handles[binding_id] = new_handle
        return {
            "id": binding_id,
            "stage": new_handle.stage,
            "entry_id": new_handle.entry_id,
            "spec": spec_to_json(new_handle.spec),
        }

    def recent_alerts(
        self, since: int = 0, timeout: float = 0.0, limit: int = 0
    ) -> Dict[str, Any]:
        timeout = min(max(timeout, 0.0), MAX_LONG_POLL)
        if timeout > 0:
            return self.alerts.wait_since(since, timeout=timeout, limit=limit)
        return self.alerts.since(since, limit=limit)


# -- signal wiring -------------------------------------------------------------


def install_signal_handlers(
    service: DetectionService,
    signals: Sequence[int] = (signal.SIGINT, signal.SIGTERM),
) -> Dict[int, Any]:
    """Graceful-then-forceful shutdown, chained over the shm sweep.

    The columns module's SIGTERM sweep is installed first (via
    ``ensure_termination_cleanup`` in :meth:`DetectionService.start`), and
    this handler chains on top of whatever was installed:

    - first signal: request a graceful stop — the serve loop drains,
      ``close()`` runs, and the CLI sweeps the pools on the way out;
    - second signal (the operator insists): sweep pools and shm segments
      *now*, then fall through to the previous disposition, which for
      SIGTERM is the columns sweep chain ending in process death.

    Returns the previous handlers (main-thread only; callers in tests use
    it to restore).  Raises ValueError off the main thread, like
    ``signal.signal`` itself.
    """
    previous: Dict[int, Any] = {}

    def _handle(signum: int, frame: Any) -> None:
        if service.stopping:
            shutdown_pools()
            prior = previous.get(signum)
            if callable(prior):
                prior(signum, frame)
            elif prior is signal.SIG_IGN:
                return
            else:
                signal.signal(signum, signal.SIG_DFL)
                signal.raise_signal(signum)
        else:
            service.stop()

    for signum in signals:
        previous[signum] = signal.signal(signum, _handle)
    return previous


# -- HTTP plumbing -------------------------------------------------------------


class _ServiceHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    service: "DetectionService"


class _ServiceHandler(BaseHTTPRequestHandler):
    """Routes the four endpoints; every response is JSON."""

    server: _ServiceHTTPServer
    protocol_version = "HTTP/1.1"
    # _send_json writes headers and body separately; on a keep-alive
    # connection Nagle's algorithm would hold the body until the client's
    # delayed ACK (~40 ms on Linux loopback).
    disable_nagle_algorithm = True

    # -- helpers -----------------------------------------------------------

    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _query(self) -> Dict[str, str]:
        raw = parse_qs(urlsplit(self.path).query)
        return {key: values[-1] for key, values in raw.items()}

    def _read_body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            return {}
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RetuneError(f"request body is not JSON: {exc}") from exc

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # HTTP access noise stays out of the server log

    # -- routes ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        service = self.server.service
        route = urlsplit(self.path).path.rstrip("/") or "/"
        if route == "/healthz":
            payload = service.health()
            self._send_json(200 if payload["ok"] else 503, payload)
        elif route == "/stats":
            self._send_json(200, service.stats())
        elif route == "/alerts":
            query = self._query()
            try:
                since = int(query.get("since", 0))
                timeout = float(query.get("timeout", 0.0))
                limit = int(query.get("limit", 0))
            except ValueError as exc:
                self._send_json(400, {"error": f"bad query parameter: {exc}"})
                return
            self._send_json(200, service.recent_alerts(since, timeout, limit))
        elif route == "/bindings":
            self._send_json(200, service.describe_bindings())
        else:
            self._send_json(404, {"error": f"no such endpoint {route!r}"})

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        service = self.server.service
        route = urlsplit(self.path).path.rstrip("/") or "/"
        if route == "/shutdown":
            service.stop()
            self._send_json(200, {"stopping": True})
        elif route == "/bindings":
            try:
                body = self._read_body()
                if not isinstance(body, dict) or "id" not in body:
                    raise RetuneError('body must be {"id": N, "spec": {...}}')
                overrides = body.get("spec")
                if not isinstance(overrides, dict):
                    raise RetuneError('body must carry a "spec" object')
                result = service.retune(int(body["id"]), overrides)
            except RetuneError as exc:
                self._send_json(400, {"error": str(exc)})
                return
            self._send_json(200, result)
        else:
            self._send_json(404, {"error": f"no such endpoint {route!r}"})
