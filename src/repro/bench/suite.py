# p4-ok-file — host-side benchmarking harness, not data-plane code.
"""The fixed benchmark suite behind ``repro bench``.

One kernel per hot loop:

- ``mean_variance`` — dense frequency counting with moments only (the
  batched counting kernel; the headline scalar-vs-batched ratio);
- ``percentile``  — frequency counting plus the one-step-per-packet
  median walk, no alerts (order-dependent: the generated per-packet
  loop, ``exact_loop``, so batching only amortizes dispatch);
- ``time_series`` — interval closes over a circular window;
- ``sparse``      — HashPipe-style hashed slots (order-dependent);
- ``tracked_alerting`` — the tracker + k·σ + percentile-alert shape
  (the generated per-packet loop) over the hot-key serving workload, the
  one row whose alert streams fire;
- ``sparse_alerting`` — the same slots with the k·σ check open (a
  margin, no cooldown) over keys that overflow the table plus a hot key,
  so the check runs on every packet and alerts fire;
- ``sharded_mean_variance`` — the cluster hot loop: key-hash routing,
  per-shard counting on a 4-shard :class:`~repro.cluster.sharded.ShardedStat4`,
  and the exact network-wide merge;
- ``service_throughput`` — the always-on serving stack end to end:
  pre-built batches through :class:`~repro.service.server.DetectionService`
  (bounded queue, producer/worker threads, alert log) against the scalar
  per-packet loop with the same default bindings.  A ``service`` report
  section records sustained pps and p99 batch/alert latency.

A separate ``cluster`` report section sweeps the same workload across
1→8 shards, splitting routed-ingest time from controller-side merge time
(the scale-out overhead curve in ``docs/BENCHMARKS.md``).  The ``paper``
section runs each of the paper's claims once (:mod:`repro.bench.paper`)
and reports the numbers ``benchmarks/paper_baseline.json`` bounds.

Every row is one declaration, ``(scalar setup, scalar run, batched setup,
batched run)``, over a workload drawn from one destination walk
(:func:`~repro.traffic.builders.walk_dst`); one loop times them all,
best-of-``repeats``.  A setup builds a fresh, ready subject (a bound
:class:`Stat4` and its engine, a cluster with every shard's engine, or a
service) before the timer starts.  Batch *assembly* (parsing, column
extraction) is excluded from the batched timings, and the value-column
cache is shared across repeats exactly as a long-lived engine would.

The emitted report is schema-versioned (``repro-bench/3``: one batched
row and one ``speedups`` ratio per kernel, and the ``paper`` section); CI
compares the ``speedups`` section against committed floors, never the
absolute pps (machine-dependent).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.compare import format_table
from repro.bench.paper import run_claims
from repro.cluster.sharded import ShardedStat4
from repro.p4.parser import standard_parser
from repro.p4.switch import PacketContext, StandardMetadata
from repro.service import DetectionService, ListSource
from repro.service.server import default_bindings, default_config
from repro.stat4.batch import HAS_NUMPY, PacketBatch
from repro.stat4.binding import BindingMatch
from repro.stat4.config import Stat4Config
from repro.stat4.distributions import TrackSpec
from repro.stat4.extract import ExtractSpec
from repro.stat4.library import Stat4
from repro.stat4.runtime import Stat4Runtime
from repro.traffic.builders import udp_to, walk_dst

__all__ = [
    "SCHEMA_VERSION",
    "SCENARIO_SCHEMA",
    "run_suite",
    "write_report",
    "format_report",
    "format_kernels",
    "format_scenario_table",
]

SCHEMA_VERSION = "repro-bench/3"
SCENARIO_SCHEMA = "repro-scenarios/2"

#: (packets per kernel, timing repeats) per profile.
_FULL_PROFILE = (20_000, 3)
_QUICK_PROFILE = (4_000, 2)

#: Shard counts the merge-overhead scaling section sweeps.
_CLUSTER_SHARDS = (1, 2, 4, 8)
#: Cluster size the gated sharded kernel runs at.
_CLUSTER_KERNEL_SHARDS = 4
#: What the ``service`` section takes from the service's metrics.
_SERVICE_KEYS = (
    "alerts", "batch_latency_p99_ms", "alert_latency_p99_ms", "dropped_batches"
)

_FREQUENCY = Stat4Config(counter_num=2, counter_size=256, binding_stages=1)
_SPARSE = Stat4Config(
    counter_num=2, counter_size=64, binding_stages=1, sparse_dists=(0,)
)
_IPV4 = BindingMatch(ether_type=0x0800)

#: One row: ``(scalar setup, scalar run, batched setup, batched run)``;
#: each setup returns the subject its run takes.
_Setup, _Run = Callable[[], Any], Callable[[Any], Any]
_Row = Tuple[_Setup, _Run, _Setup, _Run]


def _revision() -> str:
    """Short git revision of *this checkout*, or the ``"unknown"`` sentinel.

    Anchored to the package directory (not the caller's cwd) so running the
    bench from inside an unrelated git repository cannot stamp that repo's
    revision onto the report — history indexing keys on this value and must
    never see an empty or foreign string.
    """
    anchor = os.path.dirname(os.path.abspath(__file__))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
            cwd=anchor,
        )
        rev = out.stdout.strip()
        return rev if out.returncode == 0 and rev else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _best_of(
    repeats: int, run: Callable[[Any], None], setup: Callable[[], Any]
) -> Tuple[float, Any]:
    """The best of ``repeats`` timed ``run(setup())`` calls, and the subject
    of that call.  Each call gets a fresh subject, built before its timer
    starts."""
    best, best_subject = None, None
    for _ in range(repeats):
        subject = setup()
        start = time.perf_counter()
        run(subject)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best, best_subject = elapsed, subject
    return (best if best is not None else 0.0), best_subject


def _row(name: str, mode: str, packets: int, seconds: float) -> Dict[str, Any]:
    """One kernel timing row (``mode`` is ``"scalar"`` or ``"batched"``)."""
    pps = packets / seconds if seconds > 0 else 0.0
    return {
        "name": name,
        "mode": mode,
        "packets": packets,
        "seconds": seconds,
        "pps": pps,
        # Absolute per-packet cost: the speedup ratios re-anchor whenever
        # the scalar baseline moves, so comparisons across revisions need
        # a machine-local absolute column too.
        "ns_per_packet": 1e9 / pps if pps > 0 else None,
    }


def _contexts(packets: int, gap: float, hot_every: int = 0) -> List[PacketContext]:
    """The bench walk as parsed UDP contexts, ``gap`` seconds apart."""
    parser = standard_parser()
    contexts = []
    for index in range(packets):
        packet = udp_to(walk_dst(index, hot_every))
        ctx = PacketContext(
            parsed=parser.parse(packet),
            meta=StandardMetadata(ingress_port=0, timestamp=index * gap),
        )
        ctx.user["frame_bytes"] = len(packet)
        contexts.append(ctx)
    return contexts


def _detector(
    config: Stat4Config, bindings: Sequence[Tuple[int, BindingMatch, TrackSpec]]
) -> Stat4:
    stat4 = Stat4(config)
    runtime = Stat4Runtime(stat4)
    for stage, match, spec in bindings:
        runtime.bind(stage, match, spec)
    return stat4


def _per_packet(contexts: List[PacketContext]) -> Callable[[Any], None]:
    """The scalar run: the subject's per-packet path over every context."""

    def run(subject: Any) -> None:
        for ctx in contexts:
            subject.process(ctx)

    return run


def _detector_row(
    config: Stat4Config, spec: TrackSpec, gap: float, hot_every: int = 0
) -> Callable[[int], _Row]:
    """One bound :class:`Stat4`: its per-packet loop against its
    :class:`~repro.stat4.batch.BatchEngine` over one batch."""
    fresh = partial(_detector, config, [(0, _IPV4, spec)])

    def declare(packets: int) -> _Row:
        contexts = _contexts(packets, gap, hot_every)
        batch = PacketBatch.from_contexts(contexts)
        return (
            fresh,
            _per_packet(contexts),
            lambda: fresh().batch_engine(),
            lambda engine: engine.process(batch),
        )

    return declare


def _cluster(shards: int) -> ShardedStat4:
    """The dst-keyed counting cluster, bound, with every shard's engine built."""
    cluster = ShardedStat4(shards, config=_FREQUENCY)
    spec = cluster.specs.frequency_of(0, ExtractSpec.field("ipv4.dst", mask=0xFF))
    cluster.bind(0, _IPV4, spec)
    for node in cluster.nodes:
        node.batch_engine()
    return cluster


def _cluster_row(packets: int) -> _Row:
    """Routed ingest plus the exact merge on a 4-shard cluster.

    Scalar mode routes every packet individually through the owner shard's
    per-packet path; batched mode routes the batch once and runs the
    per-shard counting kernels.  Both end with the exact network-wide merge
    (:meth:`ShardedStat4.merged`), so the ratio prices routing, per-shard
    ingestion, and merging — the whole cluster hot loop.
    """
    contexts = _contexts(packets, 1e-4)
    batch = PacketBatch.from_contexts(contexts)
    per_packet = _per_packet(contexts)

    def run_scalar(cluster: ShardedStat4) -> None:
        per_packet(cluster)
        cluster.merged(0)

    def run_batched(cluster: ShardedStat4) -> None:
        cluster.ingest(batch)
        cluster.merged(0)

    fresh = partial(_cluster, _CLUSTER_KERNEL_SHARDS)
    return fresh, run_scalar, fresh, run_batched


def _drain(service: DetectionService) -> None:
    service.start()
    drained = service.wait(300)
    service.close()
    if not drained or service.pipeline.error is not None:
        raise RuntimeError(f"service pipeline failed: {service.pipeline.error!r}")


def _service_row(packets: int) -> _Row:
    """The whole serving stack in-process.

    Scalar mode is the per-packet loop over the hot-key workload with the
    default bindings (rate spike + imbalance).  Batched mode drives
    :class:`DetectionService` end to end — bounded queue, producer and
    worker threads, alert log — over pre-built 2,048-packet batches
    (``with_http=False``; the HTTP listener idles off-thread in a real
    deployment and would not be in the packet path anyway).  The ratio
    therefore prices everything the server adds on top of the batch
    engine: queue hops, thread handoff, telemetry, alert-log appends.
    """
    config = default_config()
    contexts = _contexts(packets, 1e-3, hot_every=16)
    batches = [
        PacketBatch.from_contexts(contexts[start : start + 2048])
        for start in range(0, packets, 2048)
    ]

    def fresh_service() -> DetectionService:
        return DetectionService(
            ListSource(batches), config, default_bindings(), with_http=False
        )

    fresh = partial(_detector, config, default_bindings())
    return fresh, _per_packet(contexts), fresh_service, _drain


def _rows() -> Dict[str, Callable[[int], _Row]]:
    """Every kernel row, in report order: name -> packets -> :data:`_Row`."""
    specs = Stat4Runtime()  # message-only: the spec builders
    octet = ExtractSpec.field("ipv4.dst", mask=0xFF)
    dst = ExtractSpec.field("ipv4.dst")
    return {
        "mean_variance": _detector_row(_FREQUENCY, specs.frequency_of(0, octet), 1e-4),
        "percentile": _detector_row(
            _FREQUENCY, specs.frequency_of(0, octet, percent=50), 1e-4
        ),
        "time_series": _detector_row(
            _FREQUENCY, specs.rate_over_time(0, interval=0.008, k_sigma=2), 1e-3
        ),
        "sparse": _detector_row(_SPARSE, specs.sparse_frequency_of(0, dst), 1e-4),
        # The all-three shape over the hot-key workload: both alert streams
        # fire once the min-samples gate opens, and the day-long cooldown
        # then silences them, so the row prices the generated per-packet
        # loop with its tracker walk and alert gates.
        "tracked_alerting": _detector_row(
            _FREQUENCY,
            specs.frequency_of(
                0,
                octet,
                percent=50,
                percentile_alert="median_moved",
                k_sigma=2,
                min_samples=64,
                cooldown=86_400.0,
            ),
            1e-3,
            hot_every=16,
        ),
        # The sparse k·σ check left open: a margin and no cooldown over the
        # hot-key workload, whose 1,024 walking keys overflow the table's
        # 128 cells, so the row prices the check on every packet, the
        # evictions, and the hot key's alerts.
        "sparse_alerting": _detector_row(
            _SPARSE,
            specs.sparse_frequency_of(0, dst, k_sigma=2, margin=2),
            1e-3,
            hot_every=16,
        ),
        "sharded_mean_variance": _cluster_row,
        "service_throughput": _service_row,
    }


def _time_kernels(
    packets: int, repeats: int
) -> Tuple[List[Dict[str, Any]], Dict[str, float], Dict[str, Any]]:
    """The scalar row, the batched row and the speedup of every kernel.

    Returns ``(rows, speedups, service section)``.  The section comes from
    the service row's best batched run: sustained pps and p99 batch/alert
    latency (absolute, machine-dependent, never gated; the gated number
    is the speedup ratio like every other kernel).
    """
    kernels: List[Dict[str, Any]] = []
    speedups: Dict[str, float] = {}
    best: Dict[str, Tuple[float, Any]] = {}  # name -> (batched pps, subject)
    for name, declare in _rows().items():
        scalar_setup, scalar_run, batched_setup, batched_run = declare(packets)
        scalar_seconds, _ = _best_of(repeats, scalar_run, scalar_setup)
        batched_seconds, subject = _best_of(repeats, batched_run, batched_setup)
        scalar = _row(name, "scalar", packets, scalar_seconds)
        batched = _row(name, "batched", packets, batched_seconds)
        kernels += [scalar, batched]
        best[name] = (batched["pps"], subject)
        if scalar["pps"] > 0 and batched["pps"] > 0:
            speedups[name] = batched["pps"] / scalar["pps"]
    pps, service = best["service_throughput"]
    snapshot = service.metrics.snapshot()
    section = {"packets": packets, "pps": pps}
    section.update((key, snapshot[key]) for key in _SERVICE_KEYS)
    return kernels, speedups, section


def _time_cluster_scaling(packets: int, repeats: int) -> List[Dict[str, Any]]:
    """Merge-overhead scaling: the same batch at 1→8 shards.

    Separates routed ingestion from the controller-side merge so the
    artifact shows where scale-out costs land as the cluster grows (the
    merge is O(cells·shards) host-side work; ingestion throughput should
    hold roughly flat since the same packets run the same kernels, just
    partitioned).
    """
    batch = PacketBatch.from_contexts(_contexts(packets, 1e-4))
    rows: List[Dict[str, Any]] = []
    for shards in _CLUSTER_SHARDS:
        ingest_seconds, ingested = _best_of(
            repeats, lambda cluster: cluster.ingest(batch), partial(_cluster, shards)
        )
        merge_seconds, _ = _best_of(
            repeats, lambda cluster: cluster.merged(0), lambda: ingested
        )
        rows.append(
            {
                "shards": shards,
                "packets": packets,
                "ingest_seconds": ingest_seconds,
                "ingest_pps": packets / ingest_seconds if ingest_seconds > 0 else 0.0,
                "merge_seconds": merge_seconds,
            }
        )
    return rows


def _run_scenarios() -> Dict[str, Any]:
    """The adversarial quality leaderboard (``repro bench --scenarios``).

    Scenario sizes are fixed by the catalog — never scaled by ``--quick``
    — so every row is bit-deterministic and the committed floors in
    ``benchmarks/scenario_baseline.json`` can be exact.
    """
    from repro.scenarios import run_scenario_suite

    return {"schema": SCENARIO_SCHEMA, "rows": run_scenario_suite()}


def run_suite(
    quick: bool = False,
    skip_paper: bool = False,
    packets: Optional[int] = None,
    repeats: Optional[int] = None,
    scenarios: bool = False,
    scenarios_only: bool = False,
) -> Dict[str, Any]:
    """Run the full suite; returns the report as a plain dict.

    Args:
        quick: the CI profile — fewer packets and repeats per kernel (the
            paper section and the scenarios run the same either way).
        skip_paper: leave out the paper section (used by unit tests).
        packets / repeats: override the profile (tests use tiny values).
        scenarios: also run the labeled adversarial scenario suite and
            attach its quality leaderboard under ``report["scenarios"]``.
        scenarios_only: run the scenario suite alone — the scenario CI
            job wants quality rows without paying for timing runs.
    """
    profile_packets, profile_repeats = _QUICK_PROFILE if quick else _FULL_PROFILE
    n = packets if packets is not None else profile_packets
    reps = repeats if repeats is not None else profile_repeats
    if scenarios_only:
        kernels, speedups, service = [], {}, None
    else:
        kernels, speedups, service = _time_kernels(n, reps)
    report: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "revision": _revision(),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "quick": quick,
        "kernels": kernels,
        "cluster": [] if scenarios_only else _time_cluster_scaling(n, reps),
        "service": service,
        "speedups": speedups,
        "paper": {} if skip_paper or scenarios_only else run_claims(),
    }
    if scenarios or scenarios_only:
        report["scenarios"] = _run_scenarios()
    return report


def _numpy_version() -> Optional[str]:
    if not HAS_NUMPY:
        return None
    import numpy

    return numpy.__version__


def write_report(report: Dict[str, Any], output: Optional[str] = None) -> str:
    """Write the artifact; returns the path written.

    Default filename is ``BENCH_<rev>.json`` in the working directory.
    """
    path = output if output is not None else f"BENCH_{report['revision']}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path


def format_kernels(report: Dict[str, Any], markdown: bool = False) -> str:
    """The per-kernel table: pps, absolute ns/packet and speedup per row.

    The speedup ratios re-anchor whenever the scalar baseline moves, so
    the ns/packet column is what keeps kernels comparable across
    revisions of the same machine.
    """
    speedups = report.get("speedups", {})
    rows = []
    for row in report["kernels"]:
        ratio = speedups.get(row["name"]) if row["mode"] == "batched" else None
        ns = row.get("ns_per_packet")
        rows.append(
            (
                row["name"],
                row["mode"],
                f"{row['pps']:,.0f}",
                "-" if ns is None else f"{ns:,.0f}",
                "" if ratio is None else f"{ratio:.1f}x",
            )
        )
    return format_table(
        f"repro bench — revision {report['revision']} "
        f"(python {report['python']}, "
        f"numpy {report['numpy'] or 'unavailable'}, "
        f"{'quick' if report['quick'] else 'full'} profile)",
        ("kernel", "mode", "pps", "ns/pkt", "speedup"),
        "<<>>>",
        rows,
        markdown,
    )


def _ms(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.2f}ms"


def format_report(report: Dict[str, Any]) -> str:
    """Human-readable kernel table plus the service, cluster, paper and
    scenario sections."""
    sections = [format_kernels(report)]
    service = report.get("service")
    if service:
        values = (
            f"{service['pps']:,.0f}",
            str(service["alerts"]),
            _ms(service["batch_latency_p99_ms"]),
            _ms(service["alert_latency_p99_ms"]),
            str(service["dropped_batches"]),
        )
        title = (
            f"service throughput ({service['packets']:,} packets through "
            "the bounded-queue serving stack):"
        )
        header = ("pps", "alerts", "batch p99", "alert p99", "dropped")
        sections.append(format_table(title, header, ">>>>>", [values]))
    cluster = [
        (
            str(row["shards"]),
            f"{row['ingest_pps']:,.0f}",
            _ms(row["merge_seconds"] * 1e3),
        )
        for row in report.get("cluster") or ()
    ]
    if cluster:
        title = "cluster scaling (routed ingest + merge):"
        header = ("shards", "ingest pps", "merge")
        sections.append(format_table(title, header, ">>>", cluster))
    sections.append(_paper_table(report))
    sections.append(format_scenario_table(report))
    return "\n\n".join(section for section in sections if section)


def _claim_value(value: Optional[float]) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return "-" if value is None else str(value)


def _paper_table(report: Dict[str, Any]) -> str:
    """Every number the paper section measured, or ``""`` when it did not
    run."""
    rows = [
        (claim, metric, _claim_value(value))
        for claim, metrics in (report.get("paper") or {}).items()
        for metric, value in metrics.items()
    ]
    if not rows:
        return ""
    return format_table("paper claims:", ("claim", "metric", "value"), "<<>", rows)


def format_scenario_table(report: Dict[str, Any]) -> str:
    """The quality-leaderboard table, or ``""`` when no scenarios ran."""
    section = report.get("scenarios")
    if not section or not section.get("rows"):
        return ""
    rows = []
    for row in section["rows"]:
        latency = row["latency_intervals"]
        victim = row["victim_identified"]
        rows.append(
            (
                row["scenario"],
                f"{row['precision']:.3f}",
                f"{row['recall']:.3f}",
                f"{row['f1']:.3f}",
                "-" if latency is None else f"{latency:.1f}iv",
                str(row["false_positive_intervals"]),
                "-" if victim is None else str(victim).lower(),
            )
        )
    return format_table(
        f"scenario quality leaderboard ({section['schema']}):",
        ("scenario", "prec", "recall", "f1", "latency", "fp", "victim"),
        "<>>>>>>",
        rows,
    )
