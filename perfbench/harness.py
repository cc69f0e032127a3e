"""The benchmark's child process: oracle, columnar engine runs, traced service.

Run from the checkout root with ``PYTHONPATH=src``; ``run.py`` launches it.
Modes:

- ``oracle``: the scalar ``Stat4.process`` loop over a workload's frames
  (parse, then one ``process`` call per packet), written as the expected
  alert list.  Never timed.
- ``columns``: ``BatchEngine`` or ``ParallelBatchEngine`` over pre-built
  columnar ``PacketBatch``es, pass after pass on a fresh detector until
  the time is up, every pass checked against the oracle.
- ``serve``: ``repro serve`` itself (``repro.cli.main``), run in this
  process with the tracer's wrappers installed on the classes it builds.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import inputs
import procstat
import speed

now_ns = time.monotonic_ns

BATCH_SIZE = 2048


def _emit(line: str) -> None:
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


# -- detectors -----------------------------------------------------------------


def default_detector():
    """The detectors ``repro serve`` installs for a trace or feed."""
    from repro.service.server import default_bindings, default_config

    return default_config(), default_bindings()


#: The four kernel shapes of the columns workloads, one per binding stage.
SHAPES = ("time_series", "tracked_alerting", "sparse", "tally")


def columns_detector():
    """A rate spike, a tracked median with k-sigma, a sparse heavy key, plain moments."""
    from repro.stat4.binding import MATCH_ALL
    from repro.stat4.config import Stat4Config
    from repro.stat4.extract import ExtractSpec
    from repro.stat4.runtime import Stat4Runtime

    config = Stat4Config(counter_num=4, counter_size=256, binding_stages=4, sparse_dists=(2,))
    specs = Stat4Runtime()
    bindings = [
        (0, MATCH_ALL, specs.rate_over_time(dist=0, interval=0.25, k_sigma=2, min_samples=8)),
        (
            1,
            MATCH_ALL,
            specs.frequency_of(
                dist=1,
                extract=ExtractSpec.field("udp.dst_port", mask=0xFF),
                k_sigma=2,
                alert="port_imbalance",
                percent=50,
                percentile_alert="port_median_moved",
                min_samples=64,
                margin=4,
                cooldown=0.5,
            ),
        ),
        (
            2,
            MATCH_ALL,
            specs.sparse_frequency_of(
                dist=2,
                extract=ExtractSpec.field("ipv4.src"),
                k_sigma=3,
                alert="heavy_source",
                min_samples=16,
                margin=8,
                cooldown=0.5,
            ),
        ),
        (3, MATCH_ALL, specs.frequency_of(dist=3, extract=ExtractSpec.field("ipv4.dst", mask=0xFF))),
    ]
    return config, bindings


def build_stat4(config, bindings):
    from repro.stat4.library import Stat4
    from repro.stat4.runtime import Stat4Runtime

    stat4 = Stat4(config)
    runtime = Stat4Runtime(stat4)
    for stage, match, spec in bindings:
        runtime.bind(stage, match, spec)
    return stat4


def alert_row(digest: Any) -> list:
    return [digest.name, dict(digest.fields), digest.timestamp]


def detector_state(stat4) -> str:
    """A digest of every register array and each bound slot's working state.

    Two detectors that applied the same packets the same way have equal
    digests: cells, moments, percentile walk, interval and cooldown state.
    """
    state: Dict[str, Any] = {array.name: array.peek() for array in stat4.registers}
    for dist in range(stat4.config.counter_num):
        slot = stat4.state_of(dist)
        if slot is None:
            continue
        tracker = slot.tracker
        state[f"slot{dist}"] = [
            [slot.stats.count, slot.stats.xsum, slot.stats.xsumsq],
            [slot.window_index, slot.window_filled, slot.interval_start, slot.current_count],
            [slot.last_alert, slot.last_percentile_alert],
            None if tracker is None else [tracker.freqs, tracker.low, tracker.high, tracker.total],
        ]
    return hashlib.sha256(json.dumps(state, sort_keys=True).encode()).hexdigest()


# -- oracle ------------------------------------------------------------------------


def run_oracle(records: Sequence[inputs.Record], detector) -> Dict[str, Any]:
    """Expected alerts: parse each frame, then the scalar ``Stat4.process``."""
    from repro.p4.errors import ParseError
    from repro.p4.packet import Packet
    from repro.p4.parser import standard_parser
    from repro.p4.switch import PacketContext, StandardMetadata

    gc.disable()
    stat4 = build_stat4(*detector)
    parser = standard_parser()
    alerts: List[list] = []
    rejected = 0
    for when, frame in records:
        try:
            parsed = parser.parse(Packet(frame, created_at=when))
        except ParseError:
            rejected += 1
            continue
        ctx = PacketContext(parsed=parsed, meta=StandardMetadata(ingress_port=0, timestamp=when))
        ctx.user["frame_bytes"] = len(frame)
        stat4.process(ctx)
        alerts.extend(alert_row(digest) for digest in ctx.digests)
    return {
        "offered": len(records),
        "packets": len(records) - rejected,
        "alerts": alerts,
        "state": detector_state(stat4),
    }


def oracle_main(args) -> int:
    if args.kind == "pcap":
        records, detector = inputs.read_pcap(args.input), default_detector()
    elif args.kind == "feed":
        with open(args.input, "rb") as handle:
            records = inputs.feed_records(handle.read().splitlines(keepends=True))
        detector = default_detector()
    else:
        records = inputs.column_records(inputs.column_fields(args.seed))
        detector = columns_detector()
    result = run_oracle(records, detector)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


# -- columns -----------------------------------------------------------------------


def column_batches(fields: Dict[str, list]) -> List[Tuple[list, list, Dict[str, list]]]:
    """Raw per-batch columns; :func:`fresh_batches` turns them into PacketBatches."""
    raw = []
    n = len(fields["ts"])
    for start in range(0, n, BATCH_SIZE):
        stop = min(start + BATCH_SIZE, n)
        dst = fields["dst"][start:stop]
        keys = [(inputs.ETHERTYPE_IPV4, d, inputs.PROTO_UDP, 0) for d in dst]
        columns = {
            "ipv4.src": fields["src"][start:stop],
            "ipv4.dst": dst,
            "udp.src_port": fields["sport"][start:stop],
            "udp.dst_port": fields["dport"][start:stop],
        }
        raw.append((fields["ts"][start:stop], keys, columns))
    return raw


def fresh_batches(raw) -> list:
    """New batch objects, so no pass reuses another pass's cached value columns."""
    from repro.stat4.batch import PacketBatch

    return [
        PacketBatch(ts, keys, columns=dict(columns), frame_bytes=[inputs.MIN_FRAME] * len(ts))
        for ts, keys, columns in raw
    ]


def make_engine(kind: str, stat4):
    if kind == "parallel":
        from repro.stat4.parallel import ParallelBatchEngine

        return ParallelBatchEngine(stat4, workers=2, executor="process")
    from repro.stat4.batch import BatchEngine

    return BatchEngine(stat4)


def warm_pool(kind: str, config, bindings) -> None:
    """Bring the process pool up with a throwaway detector and batch."""
    if kind != "parallel":
        return
    raw = column_batches(inputs.column_fields(-1))[:1]
    make_engine(kind, build_stat4(config, bindings)).process(fresh_batches(raw)[0])


def run_columns_pass(kind, detector, raw, tracer=None) -> Dict[str, Any]:
    """One pass over every batch on a fresh detector; set-up is not timed.

    After each batch the speed reference runs once, outside the timed
    calls, so each batch's time can be scaled by the speed of the moment.
    ``window_ns`` is the whole pass less those references and the CPU reads.
    """
    stat4 = build_stat4(*detector)
    engine = make_engine(kind, stat4)
    batches = fresh_batches(raw)
    if tracer is not None:
        from tracer import EngineProxy

        span = "stat4.parallel:process" if kind == "parallel" else "stat4.batch:process"
        engine = EngineProxy(engine, tracer, span)
        tracer.watch_gc()
    digests: List[Any] = []
    batch_ns: List[int] = []
    reference_ns: List[int] = []
    applied = 0
    cpu = 0.0
    bench_ns = 0
    pass_start = now_ns()
    for batch in batches:
        before = now_ns()
        cpu0 = procstat.tree_cpu_s(os.getpid())
        start = now_ns()
        result = engine.process(batch)
        end = now_ns()
        cpu += procstat.tree_cpu_s(os.getpid()) - cpu0
        applied += result.packets
        digests.extend(result.digests)
        reference = now_ns()
        speed.cpu_reference()
        after = now_ns()
        batch_ns.append(end - start)
        reference_ns.append(after - reference)
        bench_ns += (start - before) + (reference - end) + (after - reference)
    window_ns = now_ns() - pass_start - bench_ns
    if tracer is not None:
        tracer.unwatch_gc()
    return {
        "engine": engine,
        "packets": applied,
        "batch_packets": [len(ts) for ts, _k, _c in raw],
        "cpu_s": cpu,
        "alerts": [alert_row(d) for d in digests],
        "state": detector_state(stat4),
        "batch_ns": batch_ns,
        "reference_ns": reference_ns,
        "window_ns": window_ns,
    }


def columns_main(args) -> int:
    detector = columns_detector()
    warm_pool(args.engine, *detector)
    make_engine(args.engine, build_stat4(*detector))
    _emit("READY")
    if args.setup_only:
        return 0
    raw = column_batches(inputs.column_fields(args.seed))
    gc.collect()
    report: Dict[str, Any] = {"passes": []}
    deadline = time.monotonic() + (args.seconds / 2 if args.trace else args.seconds)
    while not report["passes"] or time.monotonic() < deadline:
        run = run_columns_pass(args.engine, detector, raw)
        report["passes"].append(_pass_summary(run))
    if args.trace:
        report["traced"] = traced_columns(args, detector, raw)
    report["rss_mb"] = procstat.tree_hwm_mb(os.getpid())
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


def _pass_summary(run: Dict[str, Any]) -> Dict[str, Any]:
    return {
        key: run[key]
        for key in ("packets", "batch_packets", "cpu_s", "alerts", "state", "batch_ns", "reference_ns")
    }


def traced_columns(args, detector, raw) -> Dict[str, Any]:
    """A traced pass, then one pass per kernel shape bound alone."""
    from repro.stat4.batch import PacketBatch
    from tracer import Tracer

    tracer = Tracer()
    values_for = PacketBatch.values_for
    PacketBatch.values_for = tracer.wrap("stat4.batch:values_for", values_for)
    try:
        run = run_columns_pass(args.engine, detector, raw, tracer=tracer)
    finally:
        PacketBatch.values_for = values_for
    tracer.dump(args.spans)
    engine = run["engine"]
    out: Dict[str, Any] = {
        "summary": _pass_summary(run),
        "wall_ns": run["window_ns"],
        "layers_ns": tracer.self_ns_by_layer(),
        "process_ns": tracer.total_ns(engine._span),
        "values_for_ns": tracer.total_ns("stat4.batch:values_for"),
        "kernels": engine.kernels,
        "gc": tracer.leaf.get("py.gc:collect", [0, 0]),
        "merge": [
            getattr(engine, "merge_adopted_chunks", 0),
            getattr(engine, "merge_folded_chunks", 0),
            getattr(engine, "merge_replayed_chunks", 0),
        ],
        "shapes": {},
    }
    config, bindings = detector
    for shape, binding in zip(SHAPES, bindings):
        alone = run_columns_pass(args.engine, (config, [binding]), raw)
        out["shapes"][shape] = sum(alone["batch_ns"]) / alone["packets"]
    return out


# -- traced service ------------------------------------------------------------------


def serve_main(args) -> int:
    """``repro serve <serve_args>`` through ``repro.cli.main``, with spans.

    The wrappers go on the classes before the CLI runs: ``Parser.parse``,
    ``PacketBatch.from_contexts`` / ``values_for`` and ``PacketTrace.load``
    are timed where they are defined, and ``DetectionService.__init__``
    hands the service it builds the source, engine and alert-log proxies.
    """
    from repro import cli
    from repro.p4.errors import ParseError
    from repro.p4.parser import Parser
    from repro.service import DetectionService
    from repro.stat4.batch import PacketBatch
    from repro.traffic.trace import PacketTrace
    from tracer import AlertLogProxy, EngineProxy, SourceProxy, Tracer

    tracer = Tracer()
    Parser.parse = tracer.wrap_leaf("p4.parser:parse", Parser.parse, failure=ParseError)
    from_contexts = PacketBatch.from_contexts.__func__
    PacketBatch.from_contexts = classmethod(tracer.wrap("stat4.batch:from_contexts", from_contexts))
    PacketBatch.values_for = tracer.wrap("stat4.batch:values_for", PacketBatch.values_for)

    loaded: List[Tuple[int, int]] = []  # (ns, records) per PacketTrace.load
    load = PacketTrace.load.__func__

    def timed_load(cls, *load_args, **load_kwargs):
        start = now_ns()
        trace = load(cls, *load_args, **load_kwargs)
        loaded.append((now_ns() - start, len(trace)))
        return trace

    PacketTrace.load = classmethod(timed_load)

    built: List[Dict[str, Any]] = []
    init = DetectionService.__init__

    def traced_init(service, *init_args, **init_kwargs):
        init(service, *init_args, **init_kwargs)
        parts = {
            "service": service,
            "source": SourceProxy(service.pipeline.source, tracer),
            "engine": EngineProxy(service.engine, tracer, "stat4.batch:process"),
            "alerts": AlertLogProxy(service.alerts, tracer),
            "handler": _HandlerSpans(service.pipeline.handler, tracer),
        }
        service.source = service.pipeline.source = parts["source"]
        service.engine = parts["engine"]
        service.alerts = parts["alerts"]
        service.pipeline.handler = parts["handler"]
        service.node.ingest_batch = tracer.wrap("netsim.switchnode:ingest_batch", service.node.ingest_batch)
        service.metrics.record_batch = tracer.wrap("service.metrics:record_batch", service.metrics.record_batch)
        start = service.start

        def timed_start():
            tracer.watch_gc()
            parts["start_ns"] = now_ns()
            return start()

        service.start = timed_start
        built.append(parts)

    DetectionService.__init__ = traced_init
    code = cli.main(["serve", *args.serve_args])
    tracer.unwatch_gc()
    tracer.dump(args.spans)
    (parts,) = built
    service = parts["service"]
    end_ns = int(service.metrics.last_ingest * 1e9) if service.metrics.last_ingest else now_ns()
    report = {
        "start_ns": parts["start_ns"],
        "end_ns": end_ns,
        "load_ns": sum(ns for ns, _records in loaded),
        "records": sum(records for _ns, records in loaded),
        "layers_ns": tracer.self_ns_by_layer(),
        "leaf": tracer.leaf,
        "counts": tracer.counts,
        "first_batch_ns": parts["source"].first_batch_ns,
        "yields": parts["source"].yields,
        "handled": parts["handler"].handled,
        "appended_at": parts["alerts"].appended_at,
        "kernels": parts["engine"].kernels,
        "packets": parts["engine"].packets,
        "process_ns": tracer.total_ns("stat4.batch:process"),
        "ingest_ns": tracer.total_ns("netsim.switchnode:ingest_batch"),
        "values_for_ns": tracer.total_ns("stat4.batch:values_for"),
        "from_contexts_ns": tracer.total_ns("stat4.batch:from_contexts"),
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return code


class _HandlerSpans:
    """The pipeline's batch handler with a span and its start and end instants."""

    def __init__(self, handler, tracer):
        self._handler = handler
        self._tracer = tracer
        #: Per batch: (start ns, end ns, digests).
        self.handled: List[Tuple[int, int, int]] = []

    def __call__(self, batch):
        start = now_ns()
        self._tracer.begin("service.pipeline:handle")
        try:
            result = self._handler(batch)
        finally:
            self._tracer.end()
        self.handled.append((start, now_ns(), len(result.digests)))
        return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    modes = parser.add_subparsers(dest="mode", required=True)
    oracle = modes.add_parser("oracle")
    oracle.add_argument("--kind", choices=["pcap", "feed", "columns"], required=True)
    oracle.add_argument("--input", default=None)
    oracle.add_argument("--seed", type=int, default=0)
    oracle.add_argument("--out", required=True)
    columns = modes.add_parser("columns")
    columns.add_argument("--engine", choices=["batch", "parallel"], required=True)
    columns.add_argument("--seed", type=int, default=0)
    columns.add_argument("--seconds", type=float, default=10.0)
    columns.add_argument("--out", default=None)
    columns.add_argument("--trace", action="store_true")
    columns.add_argument("--spans", default=None, help="where the traced pass writes its spans")
    columns.add_argument("--setup-only", action="store_true")
    serve = modes.add_parser("serve")
    serve.add_argument("--out", required=True)
    serve.add_argument("--spans", required=True, help="where the spans are written at exit")
    serve.add_argument("serve_args", nargs=argparse.REMAINDER, help="arguments of repro serve, after --")
    args = parser.parse_args(argv)
    if args.mode == "oracle":
        return oracle_main(args)
    if args.mode == "columns":
        return columns_main(args)
    if args.serve_args[:1] == ["--"]:
        args.serve_args = args.serve_args[1:]
    return serve_main(args)


if __name__ == "__main__":
    sys.exit(main())
