#!/usr/bin/env python3
"""End-to-end benchmark of the detection path; see perfbench/README.md.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pcap_flood --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  Inputs come from ``--seed`` alone; every alert the
program returns is checked against the scalar ``Stat4.process`` oracle.
"""

from __future__ import annotations

import argparse
import ctypes
import http.client
import json
import os
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import inputs
import procstat
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: This run's inputs, oracle outputs and child logs; removed at exit.
WORK = HERE / ".work" / str(os.getpid())


def spans_path(workload: str) -> str:
    """Where the last traced run of ``workload`` leaves its spans, for inspection."""
    return str(HERE / ".work" / f"spans-{workload}.json")


#: Set-up-only launches per run, besides the launches that measure.
SETUP_PROBES = 5
#: ``repro serve --batch-size``: the feed flushes a batch every this many lines.
BATCH_SIZE = 2048
#: A feed run whose sender fell further behind its schedule is invalid.
MAX_SENDER_LATE_S = 0.1
#: Harness processes per untraced columns run, so that no single process's
#: memory layout, or a slow spell of the host as long as it, sets the run's speed.
COLUMN_LAUNCHES = 3
#: Ceiling on any single wait for a child (ready line, exit, a socket).
CHILD_TIMEOUT_S = 60.0
#: Ceiling on one launch's wait for its service to drain.
DRAIN_TIMEOUT_S = 120.0

#: The processes under test run on the last allowed vCPU with the speed
#: sampler; the benchmark's own client runs on the others.
CPUS = sorted(os.sched_getaffinity(0))
MEASURED_CPU = CPUS[-1]


class BenchError(RuntimeError):
    """The run cannot produce a valid measurement."""


def note(message: str) -> None:
    """A diagnostic line on standard error; the result stays on standard output."""
    print(message, file=sys.stderr, flush=True)


# -- child processes -------------------------------------------------------------


class Child:
    """A child launched from the checkout root in its own process group."""

    launches = 0

    def __init__(self, argv: Sequence[str], cpus: Optional[Sequence[int]] = None, stdin: Any = None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part
        )
        env["PYTHONHASHSEED"] = "0"
        Child.launches += 1
        self.err_path = WORK / f"child-{Child.launches}.err"
        self._err = open(self.err_path, "w+", encoding="utf-8")
        self.launched = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, *argv],
            cwd=ROOT,
            env=env,
            stdin=stdin,
            stdout=subprocess.PIPE,
            stderr=self._err,
            text=True,
            start_new_session=True,
        )
        _CHILDREN.append(self)
        try:
            os.sched_setaffinity(self.proc.pid, set(cpus if cpus is not None else CPUS))
        except ProcessLookupError:
            pass  # it already exited; read_line or wait reports why

    @property
    def pid(self) -> int:
        return self.proc.pid

    def read_line(self, prefix: str) -> Tuple[str, float]:
        """The first stdout line starting with ``prefix`` and when it arrived."""
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        stdout = self.proc.stdout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BenchError(f"child {self.pid} printed no {prefix!r} line")
            ready, _, _ = select.select([stdout], [], [], remaining)
            if not ready:
                continue
            line = stdout.readline()
            arrived = time.monotonic()
            if not line:
                raise BenchError(f"child exited before {prefix!r}: {self.errors()}")
            if line.startswith(prefix):
                return line.strip(), arrived

    def wait(self) -> int:
        """Wait for the child to exit; returns its exit code."""
        try:
            code = self.proc.wait(CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError(f"child {self.pid} did not exit")
        self._reap_group()
        return code

    def kill(self) -> None:
        """Kill the child and everything it started, and wait for them."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self._reap_group()

    def errors(self) -> str:
        self._err.flush()
        return self.err_path.read_text(encoding="utf-8")[-2000:]

    def _reap_group(self) -> None:
        """Kill and reap anything the child left in its group (pool workers), then close.

        The benchmark is the child subreaper of its children's orphans (see
        :func:`adopt_orphans`), so it can wait for them itself.
        """
        group = self.proc.pid
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                os.killpg(group, signal.SIGKILL)
            except ProcessLookupError:
                break
            try:
                while os.waitpid(-group, os.WNOHANG)[0]:
                    pass
            except ChildProcessError:
                pass
            time.sleep(0.005)
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                stream.close()
        self._err.close()
        if self in _CHILDREN:
            _CHILDREN.remove(self)


_CHILDREN: List[Child] = []


def adopt_orphans() -> None:
    """Become the subreaper of the processes our children start (Linux).

    A child that exits before its pool workers leaves them to the nearest
    subreaper; with this set that is the benchmark, which then reaps them
    in :meth:`Child._reap_group` instead of waiting for init to.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def harness(*argv: str, cpus: Optional[Sequence[int]] = None) -> Child:
    return Child([str(HERE / "harness.py"), *argv], cpus=cpus)


def run_harness(*argv: str) -> None:
    child = harness(*argv)
    if child.wait() != 0:
        raise BenchError(f"harness {argv[0]} failed: {child.errors()}")


def serve_args(*source: str) -> List[str]:
    """Arguments of ``repro serve`` for ``source``, HTTP on a free port."""
    return [*source, "--batch-size", str(BATCH_SIZE), "--port", "0"]


def serve_cli(*source: str) -> Child:
    """``repro serve`` on the measured vCPU."""
    return Child(["-m", "repro", "serve", *serve_args(*source)], cpus=[MEASURED_CPU])


def serve_traced(workload: str, out_path: Path, *source: str) -> Child:
    """The same ``repro serve`` in the harness, with the tracer's wrappers installed."""
    argv = ("serve", "--out", str(out_path), "--spans", spans_path(workload), "--")
    return harness(*argv, *serve_args(*source), cpus=[MEASURED_CPU])


def ready(child: Child) -> Tuple[str, str, float]:
    """Wait for a service's ``serving`` line: its URL, label and arrival time."""
    line, arrived = child.read_line("serving ")
    words = line.split()
    return words[words.index("on") + 1], words[1], arrived


def setup_probes(make: Callable[[], Child], prefix: str) -> List[Tuple[float, float]]:
    """``(launched, ready)`` of set-up-only launches.

    A service is killed once ready; the columns harness exits by itself
    after ``READY``, which lets it shut its worker pool down.
    """
    windows = []
    for _ in range(SETUP_PROBES):
        child = make()
        _line, arrived = child.read_line(prefix)
        windows.append((child.launched, arrived))
        if prefix == "READY":
            child.wait()
        else:
            child.kill()
    return windows


class Sampler:
    """The speed sampler (see speed.py), pinned to the measured vCPU."""

    def __init__(self) -> None:
        self.child = Child(
            [str(HERE / "speed.py"), str(MEASURED_CPU), str(speed.TICK_S)],
            cpus=[MEASURED_CPU],
            stdin=subprocess.PIPE,
        )
        self.child.read_line("READY")

    def stop(self) -> speed.Speed:
        self.child.proc.stdin.close()
        probes = [tuple(map(int, line.split())) for line in self.child.proc.stdout if line.strip()]
        if self.child.wait() != 0:
            raise BenchError(f"speed sampler failed: {self.child.errors()}")
        return speed.Speed(probes)


# -- HTTP client ---------------------------------------------------------------------


class Client:
    """One keep-alive HTTP connection to the service."""

    def __init__(self, url: str):
        host, port = url.split("//", 1)[1].rsplit(":", 1)
        self.conn = http.client.HTTPConnection(host, int(port), timeout=CHILD_TIMEOUT_S)

    def call(self, method: str, path: str) -> Dict[str, Any]:
        self.conn.request(method, path)
        response = self.conn.getresponse()
        return json.loads(response.read())

    def close(self) -> None:
        self.conn.close()


class AlertReader:
    """Drains ``/alerts`` by long-poll, as a controller would, until drained.

    Records when each alert first arrived, counts alerts the ring dropped,
    and takes the instant the last batch was applied from ``/healthz``.
    """

    def __init__(self, client: Client, expected: int, sending: Optional[threading.Event] = None):
        self.client = client
        self.expected = expected
        self.sending = sending
        self.alerts: List[list] = []
        self.arrived: List[float] = []
        self.lost = 0
        self.drained_at = 0.0

    def run(self) -> None:
        cursor = 0
        deadline = time.monotonic() + DRAIN_TIMEOUT_S
        while True:
            if time.monotonic() > deadline:
                raise BenchError("the service did not drain in time")
            settled = len(self.alerts) + self.lost >= self.expected and (
                self.sending is None or not self.sending.is_set()
            )
            page = self.client.call("GET", f"/alerts?since={cursor}&timeout={0.01 if settled else 0.5}")
            cursor = self._take(page, time.monotonic())
            if page["alerts"] and not settled:
                continue
            health = self.client.call("GET", "/healthz")
            if health["state"] in ("drained", "error", "stopped"):
                age = health.get("last_ingest_age_seconds") or 0.0
                self.drained_at = time.monotonic() - age
                self._take(self.client.call("GET", f"/alerts?since={cursor}"), time.monotonic())
                return

    def _take(self, page: Dict[str, Any], arrived: float) -> int:
        self.lost += page["dropped"]
        for alert in page["alerts"]:
            self.alerts.append([alert["name"], alert["fields"], alert["timestamp"]])
            self.arrived.append(arrived)
        return page["cursor"]


def finish_service(child: Child, client: Client) -> Dict[str, Any]:
    """Read ``/stats`` and the peak RSS, then shut the service down."""
    stats = client.call("GET", "/stats")
    stats["rss_mb"] = procstat.tree_hwm_mb(child.pid)
    client.call("POST", "/shutdown")
    client.close()
    if child.wait() != 0:
        raise BenchError(f"service exited badly: {child.errors()}")
    return stats


# -- correctness -------------------------------------------------------------------


def load_json(path: Path) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def failed_packets(actual: List[list], oracle: Dict[str, Any], applied: int, dropped: int) -> int:
    """Packets whose alerts differ from the oracle's, plus packets dropped or lost.

    An alert that aged out of the ``/alerts`` ring before it was read is
    missing from ``actual``, so its packet counts here.
    """
    expected = oracle["alerts"]
    want: Dict[float, List[list]] = {}
    for row in expected:
        want.setdefault(row[2], []).append(row)
    got: Dict[float, List[list]] = {}
    for row in actual:
        got.setdefault(row[2], []).append(row)
    failed = sum(1 for ts in set(want) | set(got) if want.get(ts) != got.get(ts))
    if not failed and actual != expected:
        failed = 1  # the same alerts per packet, in the wrong order across packets
    return failed + max(0, oracle["packets"] - applied) + dropped


# -- repro serve: pcap_flood and feed_paced ----------------------------------------------


def pcap_pass(make: Callable[[], Child], oracle: Dict[str, Any]) -> Dict[str, Any]:
    """One launch over the whole capture, unpaced, drained by one long-poll client."""
    child = make()
    url, _label, started = ready(child)
    cpu0 = procstat.tree_cpu_s(child.pid)
    client = Client(url)
    reader = AlertReader(client, len(oracle["alerts"]))
    reader.run()
    cpu1 = procstat.tree_cpu_s(child.pid)
    stats = finish_service(child, client)
    return {
        "launched": child.launched,
        "started": started,
        "drained": reader.drained_at,
        "cpu_s": cpu1 - cpu0,
        "applied": stats["packets"],
        "offered": oracle["offered"],
        "arrived": reader.arrived,
        "alerts": reader.alerts,
        "rss_mb": stats["rss_mb"],
        "lost": reader.lost,
        "failed": failed_packets(reader.alerts, oracle, stats["packets"], stats["dropped_packets"]),
    }


def send_feed(address: Tuple[str, int], lines: Sequence[bytes], start: float) -> float:
    """Send each line when due on the cumulative schedule; returns the worst lateness."""
    late = 0.0
    with socket.create_connection(address, timeout=CHILD_TIMEOUT_S) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sent = 0
        total = len(lines)
        while sent < total:
            now = time.monotonic()
            due = min(total, int((now - start) * inputs.FEED_RATE_PPS) + 1)
            if due > sent:
                late = max(late, now - (start + inputs.feed_due(sent)))
                sock.sendall(b"".join(lines[sent:due]))
                sent = due
            if sent < total:
                time.sleep(max(start + inputs.feed_due(sent) - time.monotonic(), 0.001))
    return late


def feed_pass(make: Callable[[], Child], lines: Sequence[bytes], oracle: Dict[str, Any]) -> Dict[str, Any]:
    """One launch: this thread sends on schedule, a second one long-polls ``/alerts``."""
    child = make()
    url, label, _ready = ready(child)
    host, port = label.split(":", 1)[1].rsplit(":", 1)
    client = Client(url)
    sending = threading.Event()
    sending.set()
    reader = AlertReader(client, len(oracle["alerts"]), sending)
    failures: List[BaseException] = []

    def read_alerts() -> None:
        try:
            reader.run()
        except (BenchError, OSError, ValueError) as exc:
            failures.append(exc)

    poller = threading.Thread(target=read_alerts, name="alert-reader")
    start = time.monotonic() + 0.05
    cpu0 = procstat.tree_cpu_s(child.pid)
    poller.start()
    try:
        late = send_feed((host, int(port)), lines, start)
    except OSError as exc:
        raise BenchError(f"the feed connection failed: {exc}") from exc
    finally:
        sending.clear()
        poller.join(DRAIN_TIMEOUT_S)
    if poller.is_alive() or failures:
        raise BenchError(f"reading /alerts failed: {failures or 'no drain'}")
    cpu1 = procstat.tree_cpu_s(child.pid)
    stats = finish_service(child, client)
    latency = [
        (arrived - start - inputs.feed_due(packet_index(alert))) * 1e3
        for alert, arrived in zip(reader.alerts, reader.arrived)
    ]
    return {
        "started": start,
        "drained": reader.drained_at,
        "cpu_s": cpu1 - cpu0,
        "applied": stats["packets"],
        "offered": oracle["offered"],
        "latency_ms": latency,
        "alerts": reader.alerts,
        "arrived": reader.arrived,
        "rss_mb": stats["rss_mb"],
        "late_s": late,
        "lost": reader.lost,
        "failed": failed_packets(reader.alerts, oracle, stats["packets"], stats["dropped_packets"]),
    }


def packet_index(alert: list) -> int:
    """The feed packet that raised an alert: its timestamp is the packet's due offset."""
    return round(alert[2] * inputs.FEED_RATE_PPS)


def feed_latency_ms(run: Dict[str, Any], packets: int, rate: speed.Speed) -> List[float]:
    """Per alert: the fill wait, from the schedule, plus the rest in reference time.

    A packet waits, by the schedule alone, until the last line of its
    batch is due; from then on the time goes to work on the measured
    vCPU (decode, parse, queue, engine, alert log, ``/alerts``), which is
    scaled by that vCPU's speed.
    """
    out = []
    for alert, arrived in zip(run["alerts"], run["arrived"]):
        index = packet_index(alert)
        last = min((index // BATCH_SIZE + 1) * BATCH_SIZE, packets) - 1
        full = run["started"] + inputs.feed_due(last)
        fill = inputs.feed_due(last) - inputs.feed_due(index)
        out.append((fill + (arrived - full) * rate.factor(full, arrived)) * 1e3)
    return out


def pcap_flood(args, phases=inputs.PCAP_PHASES) -> Tuple[Dict[str, float], int, int]:
    pcap = WORK / "capture.pcap"
    inputs.write_pcap(str(pcap), inputs.pcap_flood_records(args.seed, phases))
    oracle_path = WORK / "oracle.json"
    run_harness("oracle", "--kind", "pcap", "--input", str(pcap), "--out", str(oracle_path))
    oracle = load_json(oracle_path)
    cli = lambda: serve_cli("--trace", str(pcap))  # noqa: E731
    sampler = Sampler()
    setups = setup_probes(cli, "serving ")
    passes: List[Dict[str, Any]] = []
    deadline = time.monotonic() + args.seconds
    while not passes or (not args.trace and time.monotonic() < deadline):
        passes.append(pcap_pass(cli, oracle))
    if args.trace:
        out_path = WORK / "traced.json"
        traced = pcap_pass(lambda: serve_traced(args.workload, out_path, "--trace", str(pcap)), oracle)
    rate = sampler.stop()
    note_launches(passes + ([traced] if args.trace else []), oracle, rate)
    setups += [(run["launched"], run["started"]) for run in passes]
    if not args.trace:
        return service_end_to_end(passes, setups, rate), *attempted_failed(passes)
    report = load_json(out_path)
    metrics = service_layers(report)
    metrics["traffic.trace.load_ns_per_pkt"] = report["load_ns"] / report["records"]
    metrics["service.sources.first_batch_s"] = report["first_batch_ns"] / 1e9
    metrics["bench.tracing_overhead"] = rate.scaled(traced["started"], traced["drained"]) / rate.scaled(
        passes[0]["started"], passes[0]["drained"]
    )
    return metrics, *attempted_failed(passes + [traced])


def feed_paced(args) -> Tuple[Dict[str, float], int, int]:
    seconds = args.seconds / 2 if args.trace else args.seconds
    lines = inputs.feed_lines(args.seed, int(inputs.FEED_RATE_PPS * seconds))
    feed = WORK / "feed.jsonl"
    feed.write_bytes(b"".join(lines))
    oracle_path = WORK / "oracle.json"
    run_harness("oracle", "--kind", "feed", "--input", str(feed), "--out", str(oracle_path))
    oracle = load_json(oracle_path)
    cli = lambda: serve_cli("--feed", "127.0.0.1:0")  # noqa: E731
    sampler = Sampler()
    setups = setup_probes(cli, "serving ")
    passes = [feed_pass(cli, lines, oracle)]
    if args.trace:
        out_path = WORK / "traced.json"
        traced = lambda: serve_traced(args.workload, out_path, "--feed", "127.0.0.1:0")  # noqa: E731
        passes.append(feed_pass(traced, lines, oracle))
    rate = sampler.stop()
    note_launches(passes, oracle, rate)
    late = max(run["late_s"] for run in passes)
    if late > MAX_SENDER_LATE_S:
        raise BenchError(f"run invalid, not slow: the sender ran {late * 1e3:.0f} ms late")
    if not args.trace:
        run = passes[0]
        latency = feed_latency_ms(run, len(lines), rate)
        metrics = {
            "throughput_pps": run["applied"] / (run["drained"] - run["started"]),
            "alert_latency_p50_ms": percentile(latency, 50),
            "alert_latency_p99_ms": percentile(latency, 99),
            "cpu_us_per_pkt": run["cpu_s"] * rate.factor(run["started"], run["drained"]) / run["applied"] * 1e6,
            "setup_s": statistics.median(rate.scaled(*window) for window in setups),
            "peak_rss_mb": run["rss_mb"],
        }
        return metrics, *attempted_failed(passes)
    untraced, traced = passes
    report = load_json(out_path)
    metrics = service_layers(report)
    metrics.update(feed_breakdown(report, traced))
    metrics["bench.generator.late_ms_max"] = late * 1e3
    metrics["bench.tracing_overhead"] = (
        traced["cpu_s"] * rate.factor(traced["started"], traced["drained"])
    ) / (untraced["cpu_s"] * rate.factor(untraced["started"], untraced["drained"]))
    return metrics, *attempted_failed(passes)


def service_end_to_end(
    passes: List[Dict[str, Any]], setups: List[Tuple[float, float]], rate: speed.Speed
) -> Dict[str, float]:
    """pcap_flood's metrics: medians over launches of reference-time figures."""
    rows = []
    for run in passes:
        wall = rate.scaled(run["started"], run["drained"])
        latency = [rate.scaled(run["started"], arrived) * 1e3 for arrived in run["arrived"]]
        rows.append(
            (
                run["applied"] / wall,
                percentile(latency, 50),
                percentile(latency, 99),
                run["cpu_s"] * rate.factor(run["started"], run["drained"]) / run["applied"] * 1e6,
                run["rss_mb"],
            )
        )
    medians = [statistics.median(column) for column in zip(*rows)]
    return {
        "throughput_pps": medians[0],
        "alert_latency_p50_ms": medians[1],
        "alert_latency_p99_ms": medians[2],
        "cpu_us_per_pkt": medians[3],
        "setup_s": statistics.median(rate.scaled(*window) for window in setups),
        "peak_rss_mb": medians[4],
    }


def service_layers(report: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics of a traced ``repro serve`` run."""
    wall = report["end_ns"] - report["start_ns"]
    packets = report["packets"]
    leaf = report["leaf"]
    digests = sum(count for _s, _e, count in report["handled"])
    parse_calls, parse_ns = leaf.get("p4.parser:parse", [0, 0])
    append_calls, append_ns = leaf.get("service.metrics:append", [0, 0])
    metrics = layer_shares(report["layers_ns"], wall)
    metrics.update(kernel_events(report["kernels"]))
    metrics.update(gc_metrics(leaf.get("py.gc:collect", [0, 0]), wall))
    metrics["p4.parser.parse_ns_per_pkt"] = parse_ns / max(1, parse_calls)
    metrics["p4.parser.rejected"] = report["counts"].get("p4.parser:parse.failed", 0)
    metrics["stat4.batch.assemble_ns_per_pkt"] = report["from_contexts_ns"] / packets
    metrics["stat4.batch.extract_ns_per_pkt"] = report["values_for_ns"] / packets
    metrics["stat4.batch.process_ns_per_pkt"] = report["process_ns"] / packets
    metrics["netsim.switchnode.push_ns_per_digest"] = (report["ingest_ns"] - report["process_ns"]) / max(1, digests)
    metrics["service.metrics.append_ns_per_digest"] = append_ns / max(1, append_calls)
    busy = sum(end - start for start, end, _d in report["handled"])
    metrics["service.pipeline.worker_busy_share"] = busy / wall
    if not report["records"]:
        metrics["service.sources.feed_decode_ns_per_pkt"] = sum(cpu for _y, _p, cpu in report["yields"]) / packets
    return metrics


def feed_breakdown(report: Dict[str, Any], traced: Dict[str, Any]) -> Dict[str, float]:
    """Split each traced alert's latency at the instants the proxies recorded.

    due -> batch full (fill wait, from the schedule) -> batch yielded by
    the source -> handler starts (queue wait) -> alert appended -> alert
    read by the client.  The parts add up to the alert's latency.
    """
    start_ns = traced["started"] * 1e9
    batches = []  # (last packet, yield ns, handler start ns)
    last = -1
    for (yielded, packets, _cpu), (handled, _end, _digests) in zip(report["yields"], report["handled"]):
        last += packets
        batches.append((last, yielded, handled))
    parts: Dict[str, List[float]] = {"fill": [], "source": [], "queue": [], "handler": [], "delivery": []}
    batch = 0
    for cursor, (alert, arrived) in enumerate(zip(traced["alerts"], traced["arrived"])):
        index = packet_index(alert)
        while batches[batch][0] < index:
            batch += 1
        last, yielded, handled = batches[batch]
        appended = report["appended_at"][cursor]
        parts["fill"].append(inputs.feed_due(last) - inputs.feed_due(index))
        parts["source"].append((yielded - start_ns) / 1e9 - inputs.feed_due(last))
        parts["queue"].append((handled - yielded) / 1e9)
        parts["handler"].append((appended - handled) / 1e9)
        parts["delivery"].append(arrived - appended / 1e9)
    medians = {name: statistics.median(values) * 1e3 for name, values in parts.items()}
    queue_waits = [(handled - yielded) / 1e6 for _last, yielded, handled in batches]
    return {
        "service.sources.fill_wait_ms_p50": medians["fill"],
        "service.pipeline.queue_wait_ms_p50": percentile(queue_waits, 50),
        "service.pipeline.queue_wait_ms_p99": percentile(queue_waits, 99),
        "service.server.alerts_ms_p50": medians["delivery"],
        "bench.latency_parts_share": sum(medians.values()) / statistics.median(traced["latency_ms"]),
    }


# -- columns_mixed / columns_parallel ----------------------------------------------------


def columns(args, engine: str) -> Tuple[Dict[str, float], int, int]:
    """Harness processes run the passes; a pass fails on any alert or state difference.

    ``columns_mixed`` runs on the measured vCPU, like the reference loop it
    is scaled by; ``columns_parallel``'s harness keeps both vCPUs, which
    its worker pool needs.
    """
    cpus = [MEASURED_CPU] if engine == "batch" else None
    oracle_path = WORK / "oracle.json"
    run_harness("oracle", "--kind", "columns", "--seed", str(args.seed), "--out", str(oracle_path))
    oracle = load_json(oracle_path)
    sampler = Sampler()
    setups = setup_probes(
        lambda: harness("columns", "--engine", engine, "--setup-only", cpus=[MEASURED_CPU]), "READY"
    )
    rate = sampler.stop()
    launches = 1 if args.trace else COLUMN_LAUNCHES
    reports = []
    for index in range(launches):
        out_path = WORK / f"columns-{index}.json"
        argv = ["columns", "--engine", engine, "--seed", str(args.seed), "--seconds", str(args.seconds / launches)]
        if args.trace:
            argv += ["--trace", "--spans", spans_path(args.workload)]
        child = harness(*argv, "--out", str(out_path), cpus=cpus)
        if child.wait() != 0:
            raise BenchError(f"columns harness failed: {child.errors()}")
        reports.append(load_json(out_path))
    report = {**reports[-1], "passes": [run for launch in reports for run in launch["passes"]]}
    runs = report["passes"] + ([report["traced"]["summary"]] if args.trace else [])
    checked = [
        {
            "offered": oracle["offered"],
            "failed": oracle["offered"]
            if run["state"] != oracle["state"]
            else failed_packets(run["alerts"], oracle, run["packets"], 0),
        }
        for run in runs
    ]
    note(
        f"{len(runs)} passes, {sum(run['state'] != oracle['state'] for run in runs)} with a detector "
        f"state unlike the oracle's, {sum(run['failed'] for run in checked)} packets failed"
    )
    if not args.trace:
        metrics = columns_end_to_end(report["passes"])
        metrics["setup_s"] = statistics.median(rate.scaled(*window) for window in setups)
        metrics["peak_rss_mb"] = statistics.median(launch["rss_mb"] for launch in reports)
        return metrics, *attempted_failed(checked)
    traced = report["traced"]
    packets = traced["summary"]["packets"]
    wall = traced["wall_ns"]
    metrics = layer_shares(traced["layers_ns"], wall)
    process_key = "stat4.parallel.process_ns_per_pkt" if engine == "parallel" else "stat4.batch.process_ns_per_pkt"
    metrics[process_key] = traced["process_ns"] / packets
    metrics["stat4.batch.extract_ns_per_pkt"] = traced["values_for_ns"] / packets
    metrics.update(kernel_events(traced["kernels"]))
    metrics.update(gc_metrics(traced["gc"], wall))
    adopted, folded, replayed = traced["merge"]
    metrics["stat4.parallel.chunks_adopted"] = adopted
    metrics["stat4.parallel.chunks_folded"] = folded
    metrics["stat4.parallel.chunks_replayed"] = replayed
    metrics["stat4.parallel.replay_share"] = replayed / max(1, adopted + folded + replayed)
    for shape, ns in traced["shapes"].items():
        metrics[f"stat4.batch.{shape}_ns_per_event"] = ns
    metrics["bench.tracing_overhead"] = reference_seconds(traced["summary"]) / statistics.median(
        reference_seconds(run) for run in report["passes"]
    )
    return metrics, *attempted_failed(checked)


def reference_batches(run: Dict[str, Any]) -> List[float]:
    """Each batch's time in reference seconds.

    A batch is scaled by the median of three references: the one run just
    before it, the one just after it and the one after the next batch.
    They bracket the batch closely, so a slow spell of the host that hits
    a single batch is scaled away, and the median keeps one disturbed
    reference from distorting the batch.
    """
    references = run["reference_ns"]
    out = []
    for index, batch in enumerate(run["batch_ns"]):
        nearby = references[max(0, index - 1) : index + 2]
        out.append(batch / statistics.median(nearby) * speed.CPU_REFERENCE_S)
    return out


def reference_seconds(run: Dict[str, Any]) -> float:
    return sum(reference_batches(run))


def columns_end_to_end(passes: List[Dict[str, Any]]) -> Dict[str, float]:
    """Medians over passes of reference-time figures.

    Alerts are rare here (a few per pass, in the flood's batches), so the
    latency is taken per packet: from handing its batch to the engine until
    the engine returned the batch's digests, one batch in flight.
    """
    rows = []
    for run in passes:
        batches = reference_batches(run)
        elapsed = sum(batches)
        rows.append(
            (
                run["packets"] / elapsed,
                weighted_percentile(batches, run["batch_packets"], 50) * 1e3,
                weighted_percentile(batches, run["batch_packets"], 99) * 1e3,
                run["cpu_s"] * elapsed / (sum(run["batch_ns"]) / 1e9) / run["packets"] * 1e6,
            )
        )
    medians = [statistics.median(column) for column in zip(*rows)]
    return {
        "throughput_pps": medians[0],
        "alert_latency_p50_ms": medians[1],
        "alert_latency_p99_ms": medians[2],
        "cpu_us_per_pkt": medians[3],
    }


# -- metrics ---------------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile."""
    if not values:
        raise BenchError("no alerts were read, so no alert latency")
    ordered = sorted(values)
    return ordered[max(0, int(-(-len(ordered) * q // 100)) - 1)]


def weighted_percentile(values: Sequence[float], weights: Sequence[int], q: float) -> float:
    """Nearest-rank percentile of ``values``, each counted ``weight`` times."""
    rank = -(-sum(weights) * q // 100)
    seen = 0
    for value, weight in sorted(zip(values, weights)):
        seen += weight
        if seen >= rank:
            return value
    raise BenchError("no batches to take a percentile of")


def attempted_failed(runs: List[Dict[str, Any]]) -> Tuple[int, int]:
    return sum(run["offered"] for run in runs), sum(run["failed"] for run in runs)


def note_launches(passes: List[Dict[str, Any]], oracle: Dict[str, Any], rate: speed.Speed) -> None:
    for index, run in enumerate(passes):
        note(
            f"launch {index}: {run['applied']} packets applied, {len(run['alerts'])} of "
            f"{len(oracle['alerts'])} alerts read, {run['lost']} lost to the /alerts ring, "
            f"{run['failed']} packets failed, speed factor {rate.factor(run['started'], run['drained']):.3f}"
        )


#: Layers with spans in a traced run.
LAYERS = (
    "service.sources",
    "p4.parser",
    "stat4.batch",
    "stat4.parallel",
    "netsim.switchnode",
    "service.pipeline",
    "service.metrics",
)


def layer_shares(layers_ns: Dict[str, int], wall_ns: float) -> Dict[str, float]:
    """Each layer's self time as a share of the traced window, and the sum with GC."""
    shares = {f"{layer}.self_share": layers_ns.get(layer, 0) / wall_ns for layer in LAYERS}
    shares["bench.self_time_share"] = sum(layers_ns.values()) / wall_ns
    return shares


KERNELS = (
    "frequency_fast",
    "percentile_fast",
    "sparse_fast",
    "time_series",
    "exact_loop",
    "frequency_parallel",
    "percentile_parallel",
    "alert_parallel",
    "merge_parallel",
)


def kernel_events(kernels: Dict[str, int]) -> Dict[str, float]:
    out: Dict[str, float] = {f"stat4.batch.events.{name}": kernels.get(name, 0) for name in KERNELS}
    out["stat4.batch.slow_path_share"] = kernels.get("exact_loop", 0) / max(1, sum(kernels.values()))
    return out


def gc_metrics(gc_leaf: Sequence[int], wall_ns: float) -> Dict[str, float]:
    collections, ns = gc_leaf
    return {"py.gc.pause_share": ns / wall_ns, "py.gc.collections": collections}


# -- entry point -----------------------------------------------------------------------


WORKLOADS: Dict[str, Callable[[Any], Tuple[Dict[str, float], int, int]]] = {
    "pcap_flood": pcap_flood,
    # Not in BENCHMARK.json: it reproduces the alert loss under "Known
    # failures" in README.md and reports failed operations until that is fixed.
    "pcap_overload": lambda args: pcap_flood(args, inputs.PCAP_OVERLOAD_PHASES),
    "feed_paced": feed_paced,
    "columns_mixed": lambda args: columns(args, "batch"),
    "columns_parallel": lambda args: columns(args, "parallel"),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    if len(CPUS) > 1:
        os.sched_setaffinity(0, set(CPUS[:-1]))
    adopt_orphans()
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        measured, attempted, failed = WORKLOADS[args.workload](args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        for child in list(_CHILDREN):
            child.kill()
        shutil.rmtree(WORK, ignore_errors=True)
    if args.trace:
        # A layer this workload never enters did no work on it.
        measured = {**{item["name"]: 0 for item in declared}, **measured}
    missing = [item["name"] for item in declared if item["name"] not in measured]
    if missing:
        print(f"benchmark error: not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {item["name"]: {"value": measured[item["name"]], "unit": item["unit"]} for item in declared}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
