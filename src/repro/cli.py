# p4-ok-file — host-side CLI entry point, not data-plane code.
"""Command-line interface: ``python -m repro <experiment> [options]``.

Each subcommand runs one of the paper's experiments (or an extension) and
prints the same formatted output the benchmarks emit — a convenience for
exploring parameters without writing a script.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import List, Optional, Tuple

__all__ = ["main", "build_parser"]


def _bounded(kind: type, low: float, high: float = math.inf, above: bool = False):
    """An argparse type: a ``kind`` (int or float) value in ``[low, high]``,
    or in ``(low, high]`` when ``above``."""
    bounds = f"{'(' if above else '['}{low}, {high}{']' if high < math.inf else ')'}"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}"
            ) from None
        past_low = low < value if above else low <= value
        # NaN fails every comparison, and infinity the last one.
        if not (past_low and value <= high and value < math.inf):
            raise argparse.ArgumentTypeError(f"must be in {bounds}, got {text}")
        return value

    return parse


_POSITIVE_INT = _bounded(int, 1)
_POSITIVE_FLOAT = _bounded(float, 0, above=True)
_NON_NEGATIVE_FLOAT = _bounded(float, 0)
_PORT = _bounded(int, 0, 65535)


def _host_port(text: str) -> Tuple[str, int]:
    """An argparse type: ``HOST:PORT`` with the port in [0, 65535]; an
    empty host is 127.0.0.1."""
    host, colon, port = text.rpartition(":")
    if not colon:
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {text!r}")
    return host or "127.0.0.1", _PORT(port)


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Stats 101 in P4: Towards In-Switch Anomaly "
            "Detection' (HotNets '21) — experiment runner"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table2", help="Table 2: approximate-sqrt error profile")

    table3 = sub.add_parser("table3", help="Table 3: online-median error")
    table3.add_argument("--repetitions", type=_POSITIVE_INT, default=20)
    table3.add_argument(
        "--max-n", type=_bounded(int, 100), default=65536, help="largest domain size"
    )

    validate = sub.add_parser("validate", help="Figure 5: echo validation")
    validate.add_argument("--packets", type=_POSITIVE_INT, default=10_000)
    validate.add_argument("--seed", type=int, default=0)
    differential = validate.add_mutually_exclusive_group()
    differential.add_argument(
        "--batched",
        action="store_true",
        help="differential run: batched ingestion vs the scalar library",
    )
    validate.add_argument(
        "--batch-size",
        type=_POSITIVE_INT,
        default=1024,
        help="chunk size for --batched",
    )
    differential.add_argument(
        "--shards",
        type=_POSITIVE_INT,
        metavar="N",
        help=(
            "differential run: route the stream across N switch shards and "
            "check the merged statistics against a single-switch oracle, "
            "bit for bit"
        ),
    )

    case = sub.add_parser("case-study", help="Figure 6: detection + drill-down")
    case.add_argument("--interval", type=_POSITIVE_FLOAT, default=0.008, help="seconds")
    case.add_argument("--window", type=_bounded(int, 0), default=100)
    case.add_argument("--seed", type=int, default=1)
    case.add_argument("--control-delay", type=_NON_NEGATIVE_FLOAT, default=0.02)
    case.add_argument("--processing", type=_NON_NEGATIVE_FLOAT, default=0.05)
    case.add_argument("--spike-intervals", type=_POSITIVE_INT, default=80)
    case.add_argument("--poisson", action="store_true")

    sweep = sub.add_parser("sweep", help="Figure 6: interval/window sweep")
    sweep.add_argument("--repetitions", type=_POSITIVE_INT, default=1)

    sub.add_parser("reactivity", help="Figure 1: push vs pull trade-off")
    sub.add_parser("resources", help="Sec. 4: resource consumption report")
    multiswitch = sub.add_parser(
        "multiswitch", help="Sec. 5: sharded cross-switch aggregation"
    )
    multiswitch.add_argument(
        "--shards", type=_POSITIVE_INT, default=4, help="cluster size (switches)"
    )
    sub.add_parser("identify", help="victim-identification strategies")
    sub.add_parser("ablations", help="all design-choice ablations")

    lint = sub.add_parser(
        "lint",
        help=(
            "static analysis: expressibility, widths, binding tables "
            "(ST4xx), the kernel table (ST504, ST510)"
        ),
    )
    lint.add_argument(
        "targets",
        nargs="*",
        help=(
            "deployment .json, P4 .p4 source, Python file, directory, or "
            "dotted module name (e.g. repro.core.stats)"
        ),
    )
    lint.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )
    lint.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero when any error-severity diagnostic fires",
    )
    lint.add_argument(
        "--max-value",
        type=_POSITIVE_INT,
        default=None,
        help="worst-case value magnitude for width checks on .p4 targets",
    )
    lint.add_argument(
        "--rules", action="store_true", help="print the rule index and exit"
    )

    bench = sub.add_parser(
        "bench", help="throughput suite: scalar vs batched, BENCH_<rev>.json"
    )
    bench.add_argument(
        "--quick", action="store_true", help="the CI profile (fewer packets)"
    )
    bench.add_argument(
        "--json", action="store_true", help="print the report as JSON on stdout"
    )
    bench.add_argument(
        "--output",
        type=str,
        default=None,
        help="artifact path (default BENCH_<rev>.json in the working dir)",
    )
    bench.add_argument(
        "--baseline",
        action="append",
        default=[],
        metavar="FILE",
        help=(
            "check the report against this committed floors file; repeat "
            "for several.  The file's schema picks the report section: "
            "speedups (its tolerance applies), scenarios or paper claims"
        ),
    )
    bench.add_argument(
        "--scenarios-only",
        action="store_true",
        help="run only the scenario suite (skip the kernels and paper claims)",
    )
    bench.add_argument(
        "--history",
        nargs="?",
        const=os.path.join("benchmarks", "history"),
        default=None,
        metavar="DIR",
        help=(
            "append the report to the bench history in DIR (default "
            "benchmarks/history) and print trend deltas vs the previous "
            "revision"
        ),
    )
    bench.add_argument(
        "--scenarios",
        action="store_true",
        help=(
            "also replay the labeled adversarial scenario suite and report "
            "precision/recall/F1 and detection latency per scenario"
        ),
    )

    serve = sub.add_parser(
        "serve",
        help=(
            "always-on streaming detection service: bounded-queue ingest "
            "with an HTTP API (/healthz /stats /alerts /bindings)"
        ),
    )
    source = serve.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--scenario",
        type=str,
        default=None,
        help="replay a labeled catalog scenario (installs its detector)",
    )
    source.add_argument(
        "--trace", type=str, default=None, help="replay a saved pcap file"
    )
    source.add_argument(
        "--synthetic",
        type=_POSITIVE_INT,
        default=None,
        metavar="PACKETS",
        help="deterministic synthetic generator (PACKETS per loop)",
    )
    source.add_argument(
        "--feed",
        type=_host_port,
        default=None,
        metavar="HOST:PORT",
        help="listen for a line-delimited JSON packet feed on this address",
    )
    serve.add_argument(
        "--rate",
        type=_NON_NEGATIVE_FLOAT,
        default=0.0,
        metavar="PPS",
        help=(
            "pace a scenario, trace or synthetic source at this many "
            "packets/sec (0 = as fast as possible; a feed is paced by its sender)"
        ),
    )
    serve.add_argument(
        "--loop", action="store_true", help="repeat a finite source forever"
    )
    serve.add_argument("--batch-size", type=_POSITIVE_INT, default=2048)
    serve.add_argument(
        "--queue-depth",
        type=_POSITIVE_INT,
        default=8,
        help="bounded ingest queue size (batches in flight)",
    )
    serve.add_argument(
        "--policy",
        choices=["block", "drop"],
        default="block",
        help="backpressure when the queue is full: block the source or shed",
    )
    serve.add_argument(
        "--degraded-after",
        type=_NON_NEGATIVE_FLOAT,
        default=5.0,
        help="seconds of ingest silence before /healthz turns degraded",
    )
    serve.add_argument("--host", type=str, default="127.0.0.1")
    serve.add_argument(
        "--port", type=_PORT, default=8080, help="HTTP port (0 = pick a free one)"
    )
    serve.add_argument(
        "--exit-when-drained",
        action="store_true",
        help="exit once a finite source is fully applied (CI smoke mode)",
    )

    generate = sub.add_parser(
        "generate", help="emit the P4-16 program for a configuration"
    )
    generate.add_argument("--counter-num", type=_POSITIVE_INT, default=8)
    generate.add_argument("--counter-size", type=_POSITIVE_INT, default=256)
    generate.add_argument("--binding-stages", type=_POSITIVE_INT, default=2)
    generate.add_argument(
        "--output", type=str, default="-", help="file path or - for stdout"
    )
    return parser


def _cmd_table2() -> int:
    from repro.experiments.table2_sqrt import format_table2, run_table2

    print(format_table2(run_table2()))
    return 0


def _cmd_table3(args) -> int:
    from repro.experiments.table3_median import (
        DEFAULT_SIZES,
        format_table3,
        run_table3,
    )

    sizes = [(n, label) for n, label in DEFAULT_SIZES if n <= args.max_n]
    print(format_table3(run_table3(sizes=sizes, repetitions=args.repetitions)))
    return 0


def _cmd_validate(args) -> int:
    from repro.experiments.validation import run_validation

    if args.shards is not None:
        from repro.experiments.validation import run_validation_sharded

        sharded = run_validation_sharded(
            packets=args.packets,
            shards=args.shards,
            seed=args.seed,
            batch_size=args.batch_size,
        )
        print(
            f"packets={sharded.packets} shards={sharded.shards} "
            f"loads={sharded.shard_loads} "
            f"mismatches={len(sharded.mismatches)}"
        )
        for detail in sharded.mismatches:
            print(f"  {detail}")
        print("PASSED" if sharded.passed else "FAILED")
        return 0 if sharded.passed else 1

    if args.batched:
        from repro.experiments.validation import run_validation_batched

        diff = run_validation_batched(
            packets=args.packets,
            seed=args.seed,
            batch_size=args.batch_size,
        )
        print(
            f"packets={diff.packets} batches={diff.batches} "
            f"mismatches={len(diff.mismatches)}"
        )
        for detail in diff.mismatches:
            print(f"  {detail}")
        print("PASSED" if diff.passed else "FAILED")
        return 0 if diff.passed else 1

    result = run_validation(packets=args.packets, seed=args.seed)
    print(
        f"replies={result.replies}/{result.packets_sent} "
        f"mismatches={result.mismatches} "
        f"sigma-excess={result.max_sd_relative_error * 100:.2f}%"
    )
    print("PASSED" if result.passed else "FAILED")
    return 0 if result.passed else 1


def _cmd_case_study(args) -> int:
    from repro.experiments.case_study import CaseStudySetup, run_case_study

    setup = CaseStudySetup(
        interval=args.interval,
        window=args.window,
        seed=args.seed,
        control_delay=args.control_delay,
        controller_processing=args.processing,
        spike_intervals=args.spike_intervals,
        poisson=args.poisson,
    )
    result = run_case_study(setup)
    print(f"victim:     {result.victim}")
    print(f"identified: {result.identified}")
    if result.detection_intervals is not None:
        print(f"detected:   {result.detection_intervals:.2f} intervals after onset")
    if result.pinpoint_seconds is not None:
        print(f"pinpoint:   {result.pinpoint_seconds:.2f} s after onset")
    print(f"false alerts before onset: {result.false_alerts_before_onset}")
    for when, what in result.timeline:
        print(f"  t={when:.3f}s {what}")
    return 0 if result.victim_correct else 1


def _cmd_sweep(args) -> int:
    from repro.experiments.case_study import format_sweep, run_case_study_sweep

    results = run_case_study_sweep(repetitions=args.repetitions)
    print(format_sweep(results))
    return 0 if all(r.victim_correct for r in results) else 1


def _cmd_reactivity() -> int:
    from repro.experiments.reactivity import format_reactivity, run_reactivity

    print(format_reactivity(run_reactivity()))
    return 0


def _cmd_resources() -> int:
    from repro.experiments.resources_report import build_case_study_report, summarize

    print(summarize(build_case_study_report()))
    return 0


def _cmd_multiswitch(args) -> int:
    from repro.experiments.multiswitch import run_multiswitch

    result = run_multiswitch(shards=args.shards)
    print(f"shards: {result.shards}  loads: {result.shard_loads}")
    print(f"local alerts: {result.local_alerts}")
    print(f"victim index: {result.victim_index}")
    print(f"merge exact: {'yes' if result.merge_exact else 'NO'}")
    for error in result.merge_errors:
        print(f"  {error}")
    print(f"global outliers: {result.global_outliers}")
    print(f"oracle outliers: {result.oracle_outliers}")
    print(f"control bytes: {result.control_bytes}")
    print("detected: " + ("yes" if result.detected else "NO"))
    return 0 if result.detected else 1


def _cmd_identify() -> int:
    from repro.experiments.hybrid import (
        format_strategies,
        run_identification_comparison,
    )

    print(format_strategies(run_identification_comparison()))
    return 0


def _cmd_ablations() -> int:
    from repro.experiments.ablations import (
        ablate_division_table,
        ablate_lazy_sd,
        ablate_median_steps,
        ablate_square_approx,
        ablate_unit_coarsening,
        format_division_table,
    )

    lazy = ablate_lazy_sd()
    print(f"lazy-sd amortization: {lazy.amortization:.1f}x fewer MSB comparisons")
    square = ablate_square_approx()
    print(
        f"squaring: sigma error {square.mean_sd_error_exact:.3f} (exact) vs "
        f"{square.mean_sd_error_approx:.3f} (shift-approx)"
    )
    for row in ablate_median_steps():
        print(
            f"median steps={row.steps_per_update}: converged after "
            f"{row.samples_to_converge} samples"
        )
    print(format_division_table(ablate_division_table()))
    for row in ablate_unit_coarsening():
        print(
            f"unit 2^{row.unit_shift}: {row.counter_bits_needed} counter bits, "
            f"{row.mean_relative_error * 100:.3f}% error, "
            f"{row.outlier_agreement * 100:.0f}% verdict agreement"
        )
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis import (
        Severity,
        analyze_target,
        format_json,
        format_text,
        rule_index,
    )

    if args.rules:
        print(rule_index())
        return 0
    if not args.targets:
        print("repro lint: no targets given (see --rules for the rule index)")
        return 2

    reports = []
    unresolved = []
    for target in args.targets:
        diagnostics, resolved = analyze_target(target, max_value=args.max_value)
        if not resolved:
            unresolved.append(target)
            continue
        reports.append((target, diagnostics))

    if args.json:
        print(format_json(reports))
    else:
        print(format_text(reports))
    for target in unresolved:
        print(f"repro lint: cannot resolve target {target!r}", file=sys.stderr)
    if unresolved:
        return 2
    if args.strict and any(
        diag.severity is Severity.ERROR
        for _, diagnostics in reports
        for diag in diagnostics
    ):
        return 1
    return 0


def _cmd_bench(args) -> int:
    import json as json_module

    from repro.bench import (
        append_history,
        check_floors,
        format_kernels,
        format_report,
        format_suggestions,
        format_trend,
        format_verdicts,
        load_floors,
        previous_report,
        run_suite,
        suggest_floor_bumps,
        warning_annotations,
        write_report,
    )
    from repro.bench.compare import SCENARIO_BASELINE_SCHEMA

    # Every floors file is read before anything runs: a bad one is a usage
    # error (exit 2), never a regression found after the whole suite.
    try:
        floors_files = [load_floors(path) for path in args.baseline]
    except ValueError as error:
        print(f"repro bench: {error}", file=sys.stderr)
        return 2
    schemas = {floors.schema for floors in floors_files}
    if args.scenarios_only and schemas - {SCENARIO_BASELINE_SCHEMA}:
        print(
            "repro bench: --scenarios-only runs neither the kernels nor the "
            "paper claims, so it takes only scenario floors files",
            file=sys.stderr,
        )
        return 2

    # Under --json, everything except the report itself goes to stderr so
    # stdout stays parseable.
    side = sys.stderr if args.json else sys.stdout

    report = run_suite(
        quick=args.quick,
        scenarios=args.scenarios or SCENARIO_BASELINE_SCHEMA in schemas,
        scenarios_only=args.scenarios_only,
    )
    path = write_report(report, output=args.output)
    if args.json:
        print(json_module.dumps(report, indent=2))
        print(f"wrote {path}", file=sys.stderr)
    else:
        print(format_report(report))
        print(f"wrote {path}")

    previous = None
    if args.history is not None:
        previous = previous_report(args.history, report["revision"])
        print(f"history: {append_history(report, args.history)}", file=side)
        if previous is not None:
            print(format_trend(report, previous), file=side)
        else:
            print("history: no previous revision to compare against", file=side)

    # Workflow commands (::warning::) are parsed from the job log, so they
    # go to stdout — but only when actually running under Actions, to keep
    # local output clean.
    on_actions = bool(os.environ.get("GITHUB_ACTIONS"))
    summary = [format_kernels(report, markdown=True)] if report["kernels"] else []
    failed = False
    for floors in floors_files:
        rows = check_floors(report, floors)
        print(format_verdicts(rows, floors), file=side)
        summary.append(format_verdicts(rows, floors, markdown=True))
        # Floors the last two revisions both beat by a wide margin
        # (advisory).
        suggestions = (
            suggest_floor_bumps(report, previous, floors)
            if previous is not None
            else []
        )
        if suggestions:
            print(format_suggestions(suggestions), file=side)
            summary.append(format_suggestions(suggestions, markdown=True))
        if on_actions:
            for line in warning_annotations(rows, floors.gate):
                print(line)
        failed = failed or any(row.regressed for row in rows)

    # On GitHub Actions, render the tables on the run page too.
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path and floors_files:
        with open(summary_path, "a", encoding="utf-8") as handle:
            handle.write("\n".join(summary) + "\n")
    return 1 if failed else 0


def _cmd_serve(args) -> int:
    import json as json_module
    import time

    from repro.service import (
        DetectionService,
        FeedSource,
        RatePacer,
        ScenarioSource,
        SyntheticSource,
        TraceSource,
        install_signal_handlers,
    )
    from repro.traffic.trace import PacketTrace

    if args.feed is not None and args.rate > 0:
        print(
            "repro serve: error: argument --rate: a feed is paced by its sender, "
            "not by --rate",
            file=sys.stderr,
        )
        return 2
    pacer = RatePacer(args.rate) if args.rate > 0 else None
    feed = None
    # A source that cannot be built is a usage error naming its flag.
    try:
        if args.scenario is not None:
            flag = "--scenario"
            source = ScenarioSource(
                args.scenario, batch_size=args.batch_size, loop=args.loop, pacer=pacer
            )
            label = f"scenario:{args.scenario}"
        elif args.trace is not None:
            flag = "--trace"
            trace = PacketTrace.load(args.trace)
            flag = "--loop"
            source = TraceSource(
                trace=trace, batch_size=args.batch_size, loop=args.loop, pacer=pacer
            )
            label = f"trace:{args.trace}"
        elif args.synthetic is not None:
            flag = "--synthetic"
            source = SyntheticSource(
                packets=args.synthetic,
                batch_size=args.batch_size,
                loop=args.loop,
                pacer=pacer,
            )
            label = f"synthetic:{args.synthetic}"
        else:
            flag = "--feed"
            host, port = args.feed
            feed = source = FeedSource(
                host=host,
                port=port,
                batch_size=args.batch_size,
                serve_forever=args.loop,
            )
            label = f"feed:{source.address[0]}:{source.address[1]}"
    except (KeyError, OSError, ValueError) as error:
        message = error.args[0] if isinstance(error, KeyError) else error
        print(f"repro serve: error: argument {flag}: {message}", file=sys.stderr)
        return 2

    service = DetectionService(
        source,
        queue_depth=args.queue_depth,
        policy=args.policy,
        degraded_after=args.degraded_after,
        host=args.host,
        port=args.port,
    )
    service.start()
    install_signal_handlers(service)
    print(
        f"serving {label} on {service.url} "
        f"(policy={args.policy}, "
        f"queue_depth={args.queue_depth}, rate={args.rate or 'unpaced'})",
        flush=True,
    )
    try:
        while not service.stopping:
            if service.drained:
                if args.exit_when_drained:
                    break
                # Finite source fully applied; keep serving the HTTP API
                # (alerts and stats stay queryable) until told to stop.
            time.sleep(0.2)
    finally:
        if feed is not None:
            feed.close()
        service.close()
        print("final " + json_module.dumps(service.stats()), flush=True)
    if service.pipeline.error is not None:
        print(f"pipeline error: {service.pipeline.error!r}", flush=True)
        return 1
    return 0


def _cmd_generate(args) -> int:
    from repro.p4gen import generate_p4
    from repro.stat4.config import Stat4Config

    source = generate_p4(
        Stat4Config(
            counter_num=args.counter_num,
            counter_size=args.counter_size,
            binding_stages=args.binding_stages,
        )
    )
    if args.output == "-":
        print(source, end="")
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(source)
        print(f"wrote {args.output} ({len(source.splitlines())} lines)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "table2":
        return _cmd_table2()
    if args.command == "table3":
        return _cmd_table3(args)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "case-study":
        return _cmd_case_study(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "reactivity":
        return _cmd_reactivity()
    if args.command == "resources":
        return _cmd_resources()
    if args.command == "multiswitch":
        return _cmd_multiswitch(args)
    if args.command == "identify":
        return _cmd_identify()
    if args.command == "ablations":
        return _cmd_ablations()
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "generate":
        return _cmd_generate(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
