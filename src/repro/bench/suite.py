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
- ``sparse_alerting`` — the same slots with the k·σ check open (a
  margin, no cooldown) over keys that overflow the table plus a hot key,
  so the check runs on every packet and alerts fire;
- ``sharded_mean_variance`` — the cluster hot loop: key-hash routing,
  per-shard counting on a 4-shard :class:`~repro.cluster.sharded.ShardedStat4`,
  and the exact network-wide merge;
- ``tracked_alerting`` — the tracker + k·σ + percentile-alert shape
  (the generated per-packet loop) over the hot-key serving workload, the
  one row whose alert streams fire;
- ``service_throughput`` — the always-on serving stack end to end:
  pre-built batches through :class:`~repro.service.server.DetectionService`
  (bounded queue, producer/worker threads, alert log) against the scalar
  per-packet loop with the same default bindings.  A ``service`` report
  section records sustained pps and p99 batch/alert latency.

A separate ``cluster`` report section sweeps the same workload across
1→8 shards, splitting routed-ingest time from controller-side merge time
(the scale-out overhead curve in ``docs/BENCHMARKS.md``).

Each kernel times the *same* prepared workload through the scalar path and
the batched path, best-of-``repeats``, on a fresh detector per
measurement (a :class:`Stat4`, a cluster or a service), built and bound
before the timer starts.  Batch *assembly* (parsing,
column extraction) is excluded from the batched timings: the artifact
reports steady-state ingestion throughput, and the value-column cache is
shared across repeats exactly as a long-lived engine would share it.

The emitted report is schema-versioned (``repro-bench/2``: one batched
row and one ``speedups`` ratio per kernel); CI compares the ``speedups``
section against committed floors, never the absolute pps
(machine-dependent).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from typing import Any, Callable, Dict, List, Optional

from repro.bench.compare import format_table
from repro.p4.parser import standard_parser
from repro.p4.switch import PacketContext, StandardMetadata
from repro.stat4.batch import HAS_NUMPY, BatchEngine, PacketBatch
from repro.stat4.binding import BindingMatch
from repro.stat4.config import Stat4Config
from repro.stat4.extract import ExtractSpec
from repro.stat4.library import Stat4
from repro.stat4.runtime import Stat4Runtime
from repro.traffic.builders import udp_to

__all__ = [
    "SCHEMA_VERSION",
    "SCENARIO_SCHEMA",
    "run_suite",
    "write_report",
    "format_report",
    "format_kernels",
    "format_scenario_table",
]

SCHEMA_VERSION = "repro-bench/2"
SCENARIO_SCHEMA = "repro-scenarios/2"

#: (packets per kernel, timing repeats) per profile.
_FULL_PROFILE = (20_000, 3)
_QUICK_PROFILE = (4_000, 2)


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
    repeats: int, run: Callable[..., None], setup: Optional[Callable[[], Any]] = None
) -> float:
    """The best of ``repeats`` timed calls of ``run``.  With ``setup``,
    each call gets a fresh ``setup()`` result, built before its timer
    starts."""
    best = None
    for _ in range(repeats):
        args = () if setup is None else (setup(),)
        start = time.perf_counter()
        run(*args)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best if best is not None else 0.0


def _row(name: str, mode: str, packets: int, seconds: float) -> Dict[str, Any]:
    """One kernel timing row (``mode`` is ``"scalar"`` or ``"batched"``)."""
    return {
        "name": name,
        "mode": mode,
        "packets": packets,
        "seconds": seconds,
        "pps": packets / seconds if seconds > 0 else 0.0,
    }


def _make_contexts(packets: int, dst_values: int, timestamp_gap: float):
    """Parse a UDP workload into packet contexts (shared by both paths)."""
    parser = standard_parser()
    contexts = []
    for index in range(packets):
        # Deterministic value stream without random: a multiplicative walk
        # over the dst domain gives every cell roughly equal mass.
        dst = (index * 2654435761) % dst_values
        packet = udp_to(0x0A000000 | dst)
        ctx = PacketContext(
            parsed=parser.parse(packet),
            meta=StandardMetadata(
                ingress_port=0, timestamp=index * timestamp_gap
            ),
        )
        ctx.user["frame_bytes"] = len(packet)
        contexts.append(ctx)
    return contexts


def _bind(build_spec: Callable[[Stat4Runtime], Any], config: Stat4Config) -> Stat4:
    stat4 = Stat4(config)
    runtime = Stat4Runtime(stat4)
    spec = build_spec(runtime)
    runtime.bind(0, BindingMatch(ether_type=0x0800), spec)
    return stat4


def _uniform_contexts(gap: float) -> Callable[[int], Any]:
    """The multiplicative-walk workload at ``gap`` seconds per packet."""
    return lambda packets: _make_contexts(
        packets, dst_values=1024, timestamp_gap=gap
    )


#: name -> (config, spec builder, workload: packets -> contexts).
def _kernel_definitions() -> Dict[str, Any]:
    freq_config = Stat4Config(counter_num=2, counter_size=256, binding_stages=1)
    sparse_config = Stat4Config(
        counter_num=2, counter_size=64, binding_stages=1, sparse_dists=(0,)
    )
    return {
        "mean_variance": (
            freq_config,
            lambda rt: rt.frequency_of(0, ExtractSpec.field("ipv4.dst", mask=0xFF)),
            _uniform_contexts(1e-4),
        ),
        "percentile": (
            freq_config,
            lambda rt: rt.frequency_of(
                0, ExtractSpec.field("ipv4.dst", mask=0xFF), percent=50
            ),
            _uniform_contexts(1e-4),
        ),
        "time_series": (
            freq_config,
            lambda rt: rt.rate_over_time(0, interval=0.008, k_sigma=2),
            _uniform_contexts(1e-3),
        ),
        "sparse": (
            sparse_config,
            lambda rt: rt.sparse_frequency_of(0, ExtractSpec.field("ipv4.dst")),
            _uniform_contexts(1e-4),
        ),
        # The all-three shape over the hot-key workload: both alert streams
        # fire once the min-samples gate opens, and the day-long cooldown
        # then silences them, so the row prices the generated per-packet
        # loop with its tracker walk and alert gates.
        "tracked_alerting": (
            freq_config,
            lambda rt: rt.frequency_of(
                0,
                ExtractSpec.field("ipv4.dst", mask=0xFF),
                percent=50,
                percentile_alert="median_moved",
                k_sigma=2,
                min_samples=64,
                cooldown=86_400.0,
            ),
            _make_service_contexts,
        ),
        # The sparse k·σ check left open: a margin and no cooldown over the
        # hot-key workload, whose 1,024 walking keys overflow the table's
        # 128 cells, so the row prices the check on every packet, the
        # evictions, and the hot key's alerts.
        "sparse_alerting": (
            sparse_config,
            lambda rt: rt.sparse_frequency_of(
                0, ExtractSpec.field("ipv4.dst"), k_sigma=2, margin=2
            ),
            _make_service_contexts,
        ),
    }


def _time_stat4_kernels(packets: int, repeats: int) -> List[Dict[str, Any]]:
    """Scalar and batched rows per kernel; each repeat's detector is built
    and bound before its timer starts."""
    results: List[Dict[str, Any]] = []
    for name, (config, build_spec, workload) in _kernel_definitions().items():
        contexts = workload(packets)

        def fresh():
            return _bind(build_spec, config)

        def run_scalar(stat4):
            for ctx in contexts:
                stat4.process(ctx)

        results.append(
            _row(name, "scalar", packets, _best_of(repeats, run_scalar, fresh))
        )
        batch = PacketBatch.from_contexts(contexts)

        def run_batched(stat4):
            BatchEngine(stat4).process(batch)

        results.append(
            _row(name, "batched", packets, _best_of(repeats, run_batched, fresh))
        )
    return results


def _make_service_contexts(packets: int, hot_every: int = 16):
    """The serving workload: the multiplicative walk plus a standing hot key.

    Every ``hot_every``-th packet hits one destination, so the default
    imbalance detector (2σ on the last octet) keeps firing once its
    ``min_samples`` gate opens — the service kernel must price alert
    emission and the alert-log append, not just silent counting.
    """
    parser = standard_parser()
    contexts = []
    for index in range(packets):
        if hot_every and index % hot_every == 0:
            dst = 0x0A000007
        else:
            dst = 0x0A000000 | ((index * 2654435761) % 1024)
        packet = udp_to(dst)
        ctx = PacketContext(
            parsed=parser.parse(packet),
            meta=StandardMetadata(ingress_port=0, timestamp=index * 1e-3),
        )
        ctx.user["frame_bytes"] = len(packet)
        contexts.append(ctx)
    return contexts


def _time_service_kernels(packets: int, repeats: int) -> Any:
    """The ``service_throughput`` kernel: the whole serving stack in-process.

    Scalar mode is the per-packet loop over the same workload with the
    same default bindings (rate spike + imbalance).  Batched mode drives
    :class:`~repro.service.server.DetectionService` end to end — bounded
    queue, producer and worker threads, alert log — over pre-built
    batches (``with_http=False``; the HTTP listener idles off-thread in a
    real deployment and would not be in the packet path anyway).  The
    ratio therefore prices everything the server adds on top of the batch
    engine: queue hops, thread handoff, telemetry, alert-log appends.

    Returns ``(kernel rows, service report section)`` — the section
    carries sustained pps and p99 batch/alert latency (absolute,
    machine-dependent, never gated; the gated number is the speedup ratio
    like every other kernel).
    """
    from repro.service import DetectionService, ListSource
    from repro.service.server import default_bindings, default_config

    config = default_config()
    contexts = _make_service_contexts(packets)
    name = "service_throughput"

    def fresh_stat4():
        stat4 = Stat4(config)
        runtime = Stat4Runtime(stat4)
        for stage, match, spec in default_bindings():
            runtime.bind(stage, match, spec)
        return stat4

    def run_scalar(stat4):
        for ctx in contexts:
            stat4.process(ctx)

    results = [
        _row(name, "scalar", packets, _best_of(repeats, run_scalar, fresh_stat4))
    ]
    batch_size = 2048
    batches = [
        PacketBatch.from_contexts(contexts[start : start + batch_size])
        for start in range(0, len(contexts), batch_size)
    ]
    holder: Dict[str, Any] = {}

    def fresh_service():
        return DetectionService(
            ListSource(batches),
            config=config,
            bindings=default_bindings(),
            with_http=False,
        )

    def run_service(service):
        service.start()
        drained = service.wait(300)
        service.close()
        if not drained or service.pipeline.error is not None:
            raise RuntimeError(
                f"service pipeline failed: {service.pipeline.error!r}"
            )
        holder["service"] = service

    batched = _row(
        name, "batched", packets, _best_of(repeats, run_service, fresh_service)
    )
    results.append(batched)
    snapshot = holder["service"].metrics.snapshot()
    section = {
        "packets": packets,
        "pps": batched["pps"],
        "alerts": snapshot["alerts"],
        "batch_latency_p99_ms": snapshot["batch_latency_p99_ms"],
        "alert_latency_p99_ms": snapshot["alert_latency_p99_ms"],
        "dropped_batches": snapshot["dropped_batches"],
    }
    return results, section


#: Shard counts the merge-overhead scaling section sweeps.
_CLUSTER_SHARDS = (1, 2, 4, 8)
#: Cluster size the gated sharded kernel runs at.
_CLUSTER_KERNEL_SHARDS = 4


def _cluster_workload(packets: int):
    """The sharded kernel's workload + binding (dense frequency, dst-keyed)."""
    from repro.cluster.sharded import ShardedStat4

    config = Stat4Config(counter_num=2, counter_size=256, binding_stages=1)
    contexts = _make_contexts(packets, dst_values=1024, timestamp_gap=1e-4)
    match = BindingMatch(ether_type=0x0800)

    def build(shards: int) -> ShardedStat4:
        cluster = ShardedStat4(shards, config=config)
        spec = cluster.specs.frequency_of(
            0, ExtractSpec.field("ipv4.dst", mask=0xFF)
        )
        cluster.bind(0, match, spec)
        return cluster

    return contexts, build


def _time_cluster_kernels(packets: int, repeats: int) -> List[Dict[str, Any]]:
    """The ``sharded_mean_variance`` kernel: routed ingest plus merge.

    Scalar mode routes every packet individually through the owner shard's
    per-packet path; batched mode routes the batch once and runs the
    per-shard counting kernels.  Both end with the exact network-wide merge
    (:meth:`ShardedStat4.merged`), so the ratio prices routing, per-shard
    ingestion, and merging — the whole cluster hot loop.
    """
    contexts, build = _cluster_workload(packets)

    def fresh():
        return build(_CLUSTER_KERNEL_SHARDS)

    def run_scalar(cluster):
        for ctx in contexts:
            cluster.process(ctx)
        cluster.merged(0)

    batch = PacketBatch.from_contexts(contexts)

    def run_batched(cluster):
        cluster.ingest(batch)
        cluster.merged(0)

    name = "sharded_mean_variance"
    return [
        _row(name, "scalar", packets, _best_of(repeats, run_scalar, fresh)),
        _row(name, "batched", packets, _best_of(repeats, run_batched, fresh)),
    ]


def _time_cluster_scaling(packets: int, repeats: int) -> List[Dict[str, Any]]:
    """Merge-overhead scaling: the same batch at 1→8 shards.

    Separates routed ingestion from the controller-side merge so the
    artifact shows where scale-out costs land as the cluster grows (the
    merge is O(cells·shards) host-side work; ingestion throughput should
    hold roughly flat since the same packets run the same kernels, just
    partitioned).
    """
    contexts, build = _cluster_workload(packets)
    batch = PacketBatch.from_contexts(contexts)
    rows: List[Dict[str, Any]] = []
    for shards in _CLUSTER_SHARDS:
        holder = {}

        def run_ingest():
            fresh = build(shards)
            fresh.ingest(batch)
            holder["cluster"] = fresh

        ingest_seconds = _best_of(repeats, run_ingest)
        ingested = holder["cluster"]

        def run_merge():
            ingested.merged(0)

        merge_seconds = _best_of(repeats, run_merge)
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


def _time_experiments(quick: bool) -> List[Dict[str, Any]]:
    from repro.experiments.table2_sqrt import run_table2
    from repro.experiments.validation import run_validation, run_validation_batched

    experiments: List[Dict[str, Any]] = []

    def timed(name: str, run: Callable[[], Any]) -> None:
        start = time.perf_counter()
        run()
        experiments.append(
            {"name": name, "seconds": time.perf_counter() - start}
        )

    timed("table2_sqrt", run_table2)
    packets = 2_000 if quick else 10_000
    timed(f"validation_{packets}", lambda: run_validation(packets=packets))
    timed(
        f"validation_batched_{packets}",
        lambda: run_validation_batched(packets=packets),
    )
    if not quick:
        from repro.experiments.table3_median import DEFAULT_SIZES, run_table3

        sizes = [(n, label) for n, label in DEFAULT_SIZES if n <= 4096]
        timed("table3_median_4096", lambda: run_table3(sizes=sizes, repetitions=3))
    return experiments


def _speedups(kernels: List[Dict[str, Any]]) -> Dict[str, float]:
    """``{kernel: batched pps / scalar pps}`` for every timed kernel."""
    scalar_pps: Dict[str, float] = {}
    for row in kernels:
        if row["mode"] == "scalar":
            scalar_pps[row["name"]] = row["pps"]
    speedups: Dict[str, float] = {}
    for row in kernels:
        if row["mode"] != "batched":
            continue
        base = scalar_pps.get(row["name"], 0.0)
        if base <= 0 or row["pps"] <= 0:
            continue
        speedups[row["name"]] = row["pps"] / base
    return speedups


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
    skip_experiments: bool = False,
    packets: Optional[int] = None,
    repeats: Optional[int] = None,
    scenarios: bool = False,
    scenarios_only: bool = False,
) -> Dict[str, Any]:
    """Run the full suite; returns the report as a plain dict.

    Args:
        quick: the CI profile — fewer packets, fewer repeats, cheaper
            experiment set.
        skip_experiments: kernels only (used by unit tests).
        packets / repeats: override the profile (tests use tiny values).
        scenarios: also run the labeled adversarial scenario suite and
            attach its quality leaderboard under ``report["scenarios"]``.
        scenarios_only: skip the perf kernels entirely — the scenario CI
            job wants quality rows without paying for timing runs.
    """
    run_scenario_rows = scenarios or scenarios_only
    profile_packets, profile_repeats = _QUICK_PROFILE if quick else _FULL_PROFILE
    n = packets if packets is not None else profile_packets
    reps = repeats if repeats is not None else profile_repeats
    if scenarios_only:
        kernels: List[Dict[str, Any]] = []
        service_section: Optional[Dict[str, Any]] = None
    else:
        kernels = _time_stat4_kernels(n, reps)
        kernels.extend(_time_cluster_kernels(n, reps))
        service_rows, service_section = _time_service_kernels(n, reps)
        kernels.extend(service_rows)
    # Absolute per-packet cost per row: the speedup ratios re-anchor
    # whenever the scalar baseline moves, so comparisons across revisions
    # need a machine-local absolute column too.
    for row in kernels:
        row["ns_per_packet"] = 1e9 / row["pps"] if row["pps"] > 0 else None
    report: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "revision": _revision(),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "quick": quick,
        "kernels": kernels,
        "experiments": (
            []
            if skip_experiments or scenarios_only
            else _time_experiments(quick)
        ),
        "cluster": [] if scenarios_only else _time_cluster_scaling(n, reps),
        "service": service_section,
        "speedups": _speedups(kernels),
    }
    if run_scenario_rows:
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


def format_report(report: Dict[str, Any]) -> str:
    """Human-readable kernel table plus the service, cluster, experiment
    and scenario sections."""
    lines = [format_kernels(report)]
    service = report.get("service")
    if service:
        batch_p99 = (
            "-"
            if service["batch_latency_p99_ms"] is None
            else f"{service['batch_latency_p99_ms']:.2f}ms"
        )
        alert_p99 = (
            "-"
            if service["alert_latency_p99_ms"] is None
            else f"{service['alert_latency_p99_ms']:.2f}ms"
        )
        lines.append("")
        lines.append(
            f"service throughput ({service['packets']:,} packets through "
            "the bounded-queue serving stack):"
        )
        lines.append(
            f"  {'pps':>12} {'alerts':>7} "
            f"{'batch p99':>10} {'alert p99':>10} {'dropped':>8}"
        )
        lines.append(
            f"  {service['pps']:>12,.0f} {service['alerts']:>7} "
            f"{batch_p99:>10} {alert_p99:>10} {service['dropped_batches']:>8}"
        )
    if report.get("cluster"):
        lines.append("")
        lines.append("cluster scaling (routed ingest + merge):")
        lines.append(f"  {'shards':>6} {'ingest pps':>12} {'merge':>10}")
        for row in report["cluster"]:
            lines.append(
                f"  {row['shards']:>6} "
                f"{row['ingest_pps']:>12,.0f} {row['merge_seconds'] * 1e3:>8.2f}ms"
            )
    if report.get("experiments"):
        lines.append("")
        lines.append("experiments:")
        for row in report["experiments"]:
            lines.append(f"  {row['name']:<28} {row['seconds']:.2f}s")
    scenario_section = format_scenario_table(report)
    if scenario_section:
        lines.append("")
        lines.append(scenario_section)
    return "\n".join(lines)


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
