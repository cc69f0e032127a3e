# p4-ok-file — host-side benchmarking harness, not data-plane code.
"""The fixed benchmark suite behind ``repro bench``.

One kernel per hot loop:

- ``mean_variance`` — dense frequency counting with moments only (the
  batched counting kernel; the headline scalar-vs-batched ratio);
- ``percentile``  — frequency counting plus the one-step-per-packet
  median walk (order-dependent, so batching only amortizes dispatch);
- ``time_series`` — interval closes over a circular window;
- ``sparse``      — HashPipe-style hashed slots (order-dependent);
- ``sharded_mean_variance`` — the cluster hot loop: key-hash routing,
  per-shard counting on a 4-shard :class:`~repro.cluster.sharded.ShardedStat4`,
  and the exact network-wide merge;
- ``shm_parallel_mean_variance`` — the same counting workload through
  :class:`~repro.stat4.parallel.ParallelBatchEngine` at ``--workers``
  workers: columns packed into a ``multiprocessing.shared_memory``
  segment, process workers attaching by descriptor, chunked tallies
  merged exactly, against the scalar loop;
- ``service_throughput`` — the always-on serving stack end to end:
  pre-built batches through :class:`~repro.service.server.DetectionService`
  (bounded queue, producer/worker threads, alert log) against the scalar
  per-packet loop with the same default bindings.  A ``service`` report
  section records sustained pps and p99 batch/alert latency.

A separate ``cluster`` report section sweeps the same workload across
1→8 shards, splitting routed-ingest time from controller-side merge time
(the scale-out overhead curve in ``docs/BENCHMARKS.md``).

Each kernel times the *same* prepared workload through the scalar path and
the batched path, best-of-``repeats``, on a fresh
:class:`Stat4` instance per measurement.  Batch *assembly* (parsing,
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
    "format_kernels_markdown",
    "format_merge_markdown",
    "format_scenario_table",
]

SCHEMA_VERSION = "repro-bench/2"
SCENARIO_SCHEMA = "repro-scenarios/1"

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


def _best_of(repeats: int, run: Callable[[], None]) -> float:
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        run()
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


#: name -> (config, spec builder, timestamp gap).
def _kernel_definitions() -> Dict[str, Any]:
    freq_config = Stat4Config(counter_num=2, counter_size=256, binding_stages=1)
    sparse_config = Stat4Config(
        counter_num=2, counter_size=64, binding_stages=1, sparse_dists=(0,)
    )
    return {
        "mean_variance": (
            freq_config,
            lambda rt: rt.frequency_of(0, ExtractSpec.field("ipv4.dst", mask=0xFF)),
            1e-4,
        ),
        "percentile": (
            freq_config,
            lambda rt: rt.frequency_of(
                0, ExtractSpec.field("ipv4.dst", mask=0xFF), percent=50
            ),
            1e-4,
        ),
        "time_series": (
            freq_config,
            lambda rt: rt.rate_over_time(0, interval=0.008, k_sigma=2),
            1e-3,
        ),
        "sparse": (
            sparse_config,
            lambda rt: rt.sparse_frequency_of(0, ExtractSpec.field("ipv4.dst")),
            1e-4,
        ),
    }


def _time_stat4_kernels(packets: int, repeats: int) -> List[Dict[str, Any]]:
    results: List[Dict[str, Any]] = []
    for name, (config, build_spec, gap) in _kernel_definitions().items():
        contexts = _make_contexts(packets, dst_values=1024, timestamp_gap=gap)

        def run_scalar():
            stat4 = _bind(build_spec, config)
            for ctx in contexts:
                stat4.process(ctx)

        results.append(_row(name, "scalar", packets, _best_of(repeats, run_scalar)))
        batch = PacketBatch.from_contexts(contexts)

        def run_batched():
            stat4 = _bind(build_spec, config)
            BatchEngine(stat4).process(batch)

        results.append(
            _row(name, "batched", packets, _best_of(repeats, run_batched))
        )
    return results


def _parallel_workload():
    """Config + spec builder of the ``shm_parallel_mean_variance`` kernel."""
    config = Stat4Config(counter_num=2, counter_size=256, binding_stages=1)

    def build_spec(rt):
        return rt.frequency_of(0, ExtractSpec.field("ipv4.dst", mask=0xFF))

    return config, build_spec


def _time_shm_parallel_kernels(
    packets: int, repeats: int, workers: int
) -> List[Dict[str, Any]]:
    """The ``shm_parallel_mean_variance`` kernel: zero-copy process fan-out.

    The committed floor gates the whole fan-out path — segment packing,
    descriptor pickling, worker attach, tally, merge — against the scalar
    loop.  At ``workers=1`` the engine delegates to the serial fast path,
    which keeps the one-worker CI leg meaningful (the floor then gates the
    serial batched kernel).
    """
    from repro.stat4.parallel import ParallelBatchEngine

    config, build_spec = _parallel_workload()
    contexts = _make_contexts(packets, dst_values=1024, timestamp_gap=1e-4)

    def run_scalar():
        stat4 = _bind(build_spec, config)
        for ctx in contexts:
            stat4.process(ctx)

    batch = PacketBatch.from_contexts(contexts)

    def run_shm():
        stat4 = _bind(build_spec, config)
        ParallelBatchEngine(stat4, workers=workers).process(batch)

    name = "shm_parallel_mean_variance"
    return [
        _row(name, "scalar", packets, _best_of(repeats, run_scalar)),
        _row(name, "batched", packets, _best_of(repeats, run_shm)),
    ]


def _merge_workload():
    """Config + spec builder for the merge-engine ingest kernel.

    The all-three shape (tracker + k·σ + percentile alert) over the
    hot-key workload: both alert streams fire once the min-samples gate
    opens, and the day-long cooldown then covers every later chunk, so
    steady state exercises the fold path (telescoped moments + resumable
    tracker walk) while the leading chunk exercises speculative adoption —
    the regime the committed ``merge_parallel`` floor gates.
    """
    config = Stat4Config(counter_num=2, counter_size=256, binding_stages=1)

    def build_spec(rt):
        return rt.frequency_of(
            0,
            ExtractSpec.field("ipv4.dst", mask=0xFF),
            percent=50,
            percentile_alert="median_moved",
            k_sigma=2,
            min_samples=64,
            cooldown=86_400.0,
        )

    return config, build_spec


def _time_merge_parallel_kernels(packets: int, repeats: int, workers: int) -> Any:
    """The ``merge_parallel`` kernel: tracked+alerting fan-out with merge.

    The last previously-serial shape, driven through the merge engine
    (the same transport the ``shm_parallel_mean_variance`` floor gates),
    against the scalar per-packet loop.  Returns ``(kernel rows, merge section)``; the
    section records the chunk-resolution mix (adopted / folded / replayed)
    so the replay-fallback rate is a reported number rather than prose —
    CI surfaces it next to the speedup delta.

    This kernel pins its own geometry at four workers: below two the
    engine delegates to the serial generated kernel, which would measure
    the serial engine instead of the merge engine; the committed floor
    gates the engine at its deployment geometry, not the CI matrix axis.
    """
    from repro.stat4.parallel import ParallelBatchEngine

    workers = max(workers, 4)
    config, build_spec = _merge_workload()
    contexts = _make_service_contexts(packets)
    name = "merge_parallel"

    def run_scalar():
        stat4 = _bind(build_spec, config)
        for ctx in contexts:
            stat4.process(ctx)

    results = [_row(name, "scalar", packets, _best_of(repeats, run_scalar))]
    batch = PacketBatch.from_contexts(contexts)
    holder: Dict[str, Any] = {}

    def run_merge():
        stat4 = _bind(build_spec, config)
        engine = ParallelBatchEngine(stat4, workers=workers)
        engine.process(batch)
        holder["engine"] = engine

    # One untimed warm-up: the pinned geometry means this kernel may
    # be the first to spawn its pool size (a workers=1 matrix leg
    # never spawned one), and process spawn plus worker imports are
    # not what the floor gates.
    run_merge()
    results.append(_row(name, "batched", packets, _best_of(repeats, run_merge)))
    engine = holder["engine"]
    resolved = (
        engine.merge_adopted_chunks
        + engine.merge_folded_chunks
        + engine.merge_replayed_chunks
    )
    section = {
        "packets": packets,
        "workers": workers,
        "adopted_chunks": engine.merge_adopted_chunks,
        "folded_chunks": engine.merge_folded_chunks,
        "replayed_chunks": engine.merge_replayed_chunks,
        "fallback_replay_rate": (
            engine.merge_replayed_chunks / resolved if resolved else 0.0
        ),
    }
    return results, section


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

    def run_scalar():
        stat4 = Stat4(config)
        runtime = Stat4Runtime(stat4)
        for stage, match, spec in default_bindings():
            runtime.bind(stage, match, spec)
        for ctx in contexts:
            stat4.process(ctx)

    results = [_row(name, "scalar", packets, _best_of(repeats, run_scalar))]
    batch_size = 2048
    batches = [
        PacketBatch.from_contexts(contexts[start : start + batch_size])
        for start in range(0, len(contexts), batch_size)
    ]
    holder: Dict[str, Any] = {}

    def run_service():
        service = DetectionService(
            ListSource(batches),
            config=config,
            bindings=default_bindings(),
            engine="scalar",
            with_http=False,
        )
        service.start()
        drained = service.wait(300)
        service.close()
        if not drained or service.pipeline.error is not None:
            raise RuntimeError(
                f"service pipeline failed: {service.pipeline.error!r}"
            )
        holder["service"] = service

    batched = _row(name, "batched", packets, _best_of(repeats, run_service))
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

    def run_scalar():
        cluster = build(_CLUSTER_KERNEL_SHARDS)
        for ctx in contexts:
            cluster.process(ctx)
        cluster.merged(0)

    batch = PacketBatch.from_contexts(contexts)

    def run_batched():
        cluster = build(_CLUSTER_KERNEL_SHARDS)
        cluster.ingest(batch)
        cluster.merged(0)

    name = "sharded_mean_variance"
    return [
        _row(name, "scalar", packets, _best_of(repeats, run_scalar)),
        _row(name, "batched", packets, _best_of(repeats, run_batched)),
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


def _run_scenarios(workers: int, scenario_engine: str) -> Dict[str, Any]:
    """The adversarial quality leaderboard (``repro bench --scenarios``).

    Scenario sizes are fixed by the catalog — never scaled by ``--quick``
    — so every row is bit-deterministic and the committed floors in
    ``benchmarks/scenario_baseline.json`` can be exact.
    """
    from repro.scenarios import ENGINES, run_scenario_suite

    engines = list(ENGINES) if scenario_engine == "both" else [scenario_engine]
    rows: List[Dict[str, Any]] = []
    for engine in engines:
        rows.extend(run_scenario_suite(engine=engine, workers=workers))
    return {
        "schema": SCENARIO_SCHEMA,
        "engines": engines,
        "workers": workers,
        "rows": rows,
    }


def run_suite(
    quick: bool = False,
    skip_experiments: bool = False,
    packets: Optional[int] = None,
    repeats: Optional[int] = None,
    workers: int = 4,
    scenarios: bool = False,
    scenarios_only: bool = False,
    scenario_engine: str = "scalar",
) -> Dict[str, Any]:
    """Run the full suite; returns the report as a plain dict.

    Args:
        quick: the CI profile — fewer packets, fewer repeats, cheaper
            experiment set.
        skip_experiments: kernels only (used by unit tests).
        packets / repeats: override the profile (tests use tiny values).
        workers: worker count for the parallel ingest kernels
            (``repro bench --workers``); recorded in the report.
        scenarios: also run the labeled adversarial scenario suite and
            attach its quality leaderboard under ``report["scenarios"]``.
        scenarios_only: skip the perf kernels entirely — the scenario CI
            job wants quality rows without paying for timing runs.
        scenario_engine: replay path for the scenario rows — ``"scalar"``,
            ``"parallel"`` (process pool + shared-memory columns), or
            ``"both"`` (scalar + parallel).
    """
    if scenario_engine not in ("scalar", "parallel", "both"):
        raise ValueError(
            f"unknown scenario engine {scenario_engine!r}; "
            "pick 'scalar', 'parallel' or 'both'"
        )
    run_scenario_rows = scenarios or scenarios_only
    profile_packets, profile_repeats = _QUICK_PROFILE if quick else _FULL_PROFILE
    n = packets if packets is not None else profile_packets
    reps = repeats if repeats is not None else profile_repeats
    if scenarios_only:
        kernels: List[Dict[str, Any]] = []
        service_section: Optional[Dict[str, Any]] = None
        merge_section: Optional[Dict[str, Any]] = None
    else:
        kernels = _time_stat4_kernels(n, reps)
        kernels.extend(_time_cluster_kernels(n, reps))
        kernels.extend(_time_shm_parallel_kernels(n, reps, workers))
        merge_rows, merge_section = _time_merge_parallel_kernels(n, reps, workers)
        kernels.extend(merge_rows)
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
        "workers": workers,
        "kernels": kernels,
        "experiments": (
            []
            if skip_experiments or scenarios_only
            else _time_experiments(quick)
        ),
        "cluster": [] if scenarios_only else _time_cluster_scaling(n, reps),
        "service": service_section,
        "merge": merge_section,
        "speedups": _speedups(kernels),
    }
    if run_scenario_rows:
        report["scenarios"] = _run_scenarios(workers, scenario_engine)
    return report


def _numpy_version() -> Optional[str]:
    if not HAS_NUMPY:
        return None
    import numpy

    return numpy.__version__


def _ratio_and_ns(report: Dict[str, Any], row: Dict[str, Any]) -> Any:
    """A kernel row's speedup text (batched rows only) and ns/packet text."""
    ratio = ""
    if row["mode"] == "batched":
        value = report.get("speedups", {}).get(row["name"])
        if value is not None:
            ratio = f"{value:.1f}x"
    ns = row.get("ns_per_packet")
    return ratio, (f"{ns:,.0f}" if ns is not None else "-")


def write_report(report: Dict[str, Any], output: Optional[str] = None) -> str:
    """Write the artifact; returns the path written.

    Default filename is ``BENCH_<rev>.json`` in the working directory.
    """
    path = output if output is not None else f"BENCH_{report['revision']}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path


def format_report(report: Dict[str, Any]) -> str:
    """Human-readable kernel table plus experiment timings."""
    lines = [
        f"repro bench — revision {report['revision']} "
        f"(python {report['python']}, "
        f"numpy {report['numpy'] or 'unavailable'}, "
        f"{'quick' if report['quick'] else 'full'} profile)",
        "",
        f"{'kernel':<26} {'mode':<8} {'pps':>12} {'ns/pkt':>9} {'speedup':>8}",
    ]
    for row in report["kernels"]:
        ratio, ns_text = _ratio_and_ns(report, row)
        lines.append(
            f"{row['name']:<26} {row['mode']:<8} "
            f"{row['pps']:>12,.0f} {ns_text:>9} {ratio:>8}"
        )
    merge = report.get("merge")
    if merge:
        lines.append("")
        lines.append(
            f"merge-engine chunk resolution ({merge['packets']:,} packets, "
            f"{merge['workers']} workers): "
            f"adopted {merge['adopted_chunks']}, "
            f"folded {merge['folded_chunks']}, "
            f"replayed {merge['replayed_chunks']}, "
            f"fallback {merge['fallback_replay_rate'] * 100:.1f}%"
        )
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


def format_merge_markdown(report: Dict[str, Any]) -> str:
    """Markdown twin of the merge-resolution table, or ``""`` without one.

    CI appends this to ``GITHUB_STEP_SUMMARY`` so the fallback-replay
    rate — the health metric of the merge engine's speculation — shows
    on the run page next to the floor verdicts.  A creeping rate means
    chunks keep missing the fixpoint/fold fast paths and the committed
    ``merge_parallel`` floor is living on borrowed time.
    """
    merge = report.get("merge")
    if not merge:
        return ""
    lines = [
        "### Merge-engine chunk resolution",
        "",
        f"{merge['packets']:,} packets, {merge['workers']} workers",
        "",
        "| adopted | folded | replayed | fallback replay |",
        "| ---: | ---: | ---: | ---: |",
        f"| {merge['adopted_chunks']} | {merge['folded_chunks']} "
        f"| {merge['replayed_chunks']} "
        f"| {merge['fallback_replay_rate'] * 100:.1f}% |",
        "",
    ]
    return "\n".join(lines)


def format_kernels_markdown(report: Dict[str, Any]) -> str:
    """Markdown twin of the per-kernel table, or ``""`` without kernels.

    CI appends this to ``GITHUB_STEP_SUMMARY`` next to the floor
    verdicts: the speedup ratios re-anchor whenever the scalar baseline
    moves, so the absolute ns/packet column is what makes kernels
    comparable across revisions of the same runner.
    """
    kernels = report.get("kernels")
    if not kernels:
        return ""
    lines = [
        "### Kernel timings",
        "",
        f"revision {report['revision']}, "
        f"{'quick' if report.get('quick') else 'full'} profile",
        "",
        "| kernel | mode | pps | ns/pkt | speedup |",
        "| --- | --- | ---: | ---: | ---: |",
    ]
    for row in kernels:
        ratio, ns_text = _ratio_and_ns(report, row)
        lines.append(
            f"| {row['name']} | {row['mode']} "
            f"| {row['pps']:,.0f} | {ns_text} | {ratio} |"
        )
    lines.append("")
    return "\n".join(lines)


def format_scenario_table(report: Dict[str, Any]) -> str:
    """The quality-leaderboard table, or ``""`` when no scenarios ran."""
    section = report.get("scenarios")
    if not section or not section.get("rows"):
        return ""
    lines = [
        f"scenario quality leaderboard ({section['schema']}):",
        f"  {'scenario':<18} {'engine':<9} {'prec':>6} {'recall':>6} "
        f"{'f1':>6} {'latency':>8} {'fp':>4} {'victim':>7}",
    ]
    for row in section["rows"]:
        latency = (
            "-"
            if row["latency_intervals"] is None
            else f"{row['latency_intervals']:.1f}iv"
        )
        victim = "-" if row["victim_identified"] is None else str(row["victim_identified"]).lower()
        lines.append(
            f"  {row['scenario']:<18} {row['engine']:<9} "
            f"{row['precision']:>6.3f} {row['recall']:>6.3f} "
            f"{row['f1']:>6.3f} {latency:>8} "
            f"{row['false_positive_intervals']:>4} {victim:>7}"
        )
    return "\n".join(lines)
