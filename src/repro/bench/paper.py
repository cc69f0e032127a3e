# p4-ok-file — host-side benchmarking harness, not data-plane code.
"""The paper's claims as numbers: the ``paper`` section of ``repro bench``.

Each claim is one declaration in :data:`CLAIMS`: a function that runs its
experiment driver (:mod:`repro.experiments`) once and returns
``{metric: value}``.  ``benchmarks/paper_baseline.json`` bounds those
metrics through the same check as the speed and scenario floors, with no
tolerance: every driver runs fixed parameters on fixed seeds, and
``--quick`` does not scale them, so each number is deterministic.

A flag is reported as 1 or 0.  A claimed order ("error falls with the
input's magnitude") is reported as the number of adjacent pairs out of
that order, and a claimed comparison ``a < b`` as a ratio or difference of
the two, each with its own bound.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from repro.experiments.ablations import (
    ablate_division_table,
    ablate_ewma_vs_window,
    ablate_lazy_sd,
    ablate_median_steps,
    ablate_quantile_sketch,
    ablate_sparse_storage,
    ablate_square_approx,
    ablate_unit_coarsening,
    ablate_zipf,
)
from repro.experiments.case_study import (
    CaseStudySetup,
    run_case_study,
    run_case_study_sweep,
)
from repro.experiments.hybrid import run_identification_comparison
from repro.experiments.mitigation import run_rate_limit
from repro.experiments.multiswitch import run_multiswitch
from repro.experiments.reactivity import run_reactivity
from repro.experiments.resources_report import build_case_study_report
from repro.experiments.sensitivity import run_sensitivity
from repro.experiments.table2_sqrt import run_table2
from repro.experiments.table3_median import run_table3
from repro.experiments.validation import run_validation
from repro.p4.values import TOFINO_LIKE

__all__ = ["CLAIMS", "run_claims"]

Metrics = Dict[str, Optional[float]]


def _falls(values: Sequence[float]) -> int:
    """Adjacent pairs whose later value is lower: 0 when non-decreasing."""
    return sum(later < earlier for earlier, later in zip(values, values[1:]))


def _rises(values: Sequence[float]) -> int:
    """Adjacent pairs whose later value is higher: 0 when non-increasing."""
    return _falls([-value for value in values])


def _ratio(numerator: Optional[float], denominator: Optional[float]) -> Optional[float]:
    if numerator is None or not denominator:
        return None
    return numerator / denominator


def _table2_sqrt() -> Metrics:
    """Table 2: the square root's error per input decade, in percent of y."""
    rows = run_table2()
    metrics: Metrics = {"worst_rises": _rises([row.max_normalized for row in rows])}
    for row in rows:
        decade = f"{row.lo}_{row.hi}"
        metrics[f"p50_{decade}"] = row.p50_normalized
        metrics[f"p90_{decade}"] = row.p90_normalized
        metrics[f"worst_{decade}"] = row.max_normalized
    return metrics


def _table3_median() -> Metrics:
    """Table 3: the median's error (percent of N) before and after N/2."""
    rows = run_table3(sizes=((100, "packet types"), (1000, "per-ms traffic")))
    rows += run_table3(sizes=((65536, "16-bit field"),), repetitions=5)
    metrics: Metrics = {}
    for row in rows:
        metrics[f"before_p50_{row.n}"] = row.before_p50
        metrics[f"before_p90_{row.n}"] = row.before_p90
        metrics[f"after_p50_{row.n}"] = row.after_p50
        metrics[f"after_p90_{row.n}"] = row.after_p90
        metrics[f"p90_drop_{row.n}"] = row.before_p90 - row.after_p90
    return metrics


def _figure5_echo() -> Metrics:
    """Figure 5: switch-side N, Xsum, Xsumsq and σ² equal the host's."""
    result = run_validation(packets=10_000, seed=0)
    return {
        "replies": result.replies,
        "mismatches": result.mismatches,
        "passed": int(result.passed),
        "sd_error": result.max_sd_relative_error,
    }


def _case_study_detection() -> Metrics:
    """Figure 6: detection in the first interval, the victim pinpointed."""
    result = run_case_study(CaseStudySetup(seed=1, spike_intervals=80))
    return {
        "detected": int(result.detected),
        "detection_intervals": result.detection_intervals,
        "subnet_correct": int(result.subnet_correct),
        "victim_correct": int(result.victim_correct),
        "false_alerts": result.false_alerts_before_onset,
        "pinpoint_seconds": result.pinpoint_seconds,
    }


def _case_study_pinpoint() -> Metrics:
    """§4: a 2–3 s pinpoint under bmv2/P4Runtime-scale control latency
    (250 ms one-way channel, 400 ms controller processing)."""
    result = run_case_study(
        CaseStudySetup(
            interval=0.008,
            window=100,
            seed=2,
            control_delay=0.25,
            controller_processing=0.4,
            spike_intervals=450,
            packets_per_interval=30,
        )
    )
    return {
        "victim_correct": int(result.victim_correct),
        "pinpoint_seconds": result.pinpoint_seconds,
    }


def _case_study_sweep() -> Metrics:
    """Figure 6's grid, intervals from 8 ms to 2 s and windows of 10 and
    100, over a fast control channel: detection in the first interval at
    every cell."""
    results = run_case_study_sweep(
        intervals=(0.008, 0.1, 0.5, 2.0),
        windows=(10, 100),
        repetitions=1,
        packets_per_interval=25,
        warmup_intervals=12,
        spike_intervals=40,
        control_delay=0.005,
        controller_processing=0.01,
    )
    latencies = [r.detection_intervals for r in results]
    metrics: Metrics = {
        "undetected": sum(not r.detected for r in results),
        "wrong_victims": sum(not r.victim_correct for r in results),
        "worst_detection_intervals": None if None in latencies else max(latencies),
    }
    for r in results:
        cell = f"{r.setup.interval * 1000:g}ms_w{r.setup.window}"
        metrics[f"intervals_{cell}"] = r.detection_intervals
        metrics[f"pinpoint_s_{cell}"] = r.pinpoint_seconds
    return metrics


def _resources() -> Metrics:
    """§4 resources: a 12-step chain, 2 rules a packet, ~3 KB."""
    report = build_case_study_report()
    return {
        "longest_chain": report.longest_chain,
        "rule_dependencies": report.rule_dependencies,
        "rules_per_packet": report.rules_per_packet,
        "total_bytes": report.total_bytes,
        "fits_tofino_like": int(report.fits_target(TOFINO_LIKE)),
    }


def _reactivity() -> Metrics:
    """Figure 1: a poller's delay grows with its period as its overhead
    shrinks; pushing from the switch beats the whole curve."""
    push, *pulls = run_reactivity(periods=(0.01, 0.05, 0.1, 0.5, 1.0))
    delays = [p.detection_delay for p in pulls]
    overheads = [p.overhead_bps for p in pulls]
    detected = None not in delays
    metrics: Metrics = {
        "push_delay_s": push.detection_delay,
        "push_overhead_bps": push.overhead_bps,
    }
    for pull in pulls:
        metrics[f"delay_s_at_{pull.period:g}s"] = pull.detection_delay
        metrics[f"overhead_bps_at_{pull.period:g}s"] = pull.overhead_bps
    return {
        **metrics,
        "undetected_pulls": delays.count(None),
        "pull_delay_falls": _falls(delays) if detected else None,
        "pull_overhead_rises": _rises(overheads),
        "push_minus_fastest_pull_s": (
            push.detection_delay - delays[0]
            if detected and push.detection_delay is not None
            else None
        ),
        "push_over_cheapest_pull_overhead": _ratio(push.overhead_bps, overheads[-1]),
    }


def _sensitivity() -> Metrics:
    """The detection knee of mean + 2σ under Poisson baselines."""
    rows = run_sensitivity(factors=(1.1, 1.3, 1.5, 2.0, 3.0, 5.0), repetitions=4)
    rates = [row.detection_rate for row in rows]
    return {
        **{f"rate_at_{row.spike_factor:g}x": row.detection_rate for row in rows},
        "lowest_rate_from_1.5x": min(rates[2:]),
        "intervals_at_5x": rows[-1].mean_detection_intervals,
        "rate_falls": _falls(rates),
    }


def _identification() -> Metrics:
    """Victim identification: drill-down, hybrid pull and sparse digest."""
    drill, hybrid, sparse = run_identification_comparison()
    return {
        "drilldown_s": drill.identify_seconds,
        "hybrid_s": hybrid.identify_seconds,
        "sparse_s": sparse.identify_seconds,
        "hybrid_control_bytes": hybrid.control_bytes,
        "sparse_control_bytes": sparse.control_bytes,
        "wrong_victims": sum(
            not r.victim_correct for r in (drill, hybrid, sparse)
        ),
        "hybrid_over_drilldown_s": _ratio(
            hybrid.identify_seconds, drill.identify_seconds
        ),
        "sparse_over_hybrid_s": _ratio(
            sparse.identify_seconds, hybrid.identify_seconds
        ),
    }


def _multiswitch() -> Metrics:
    """§5: a destination flagged only by the merged multi-switch view."""
    return {
        "detected": int(run_multiswitch().detected),
        "detected_at_400_per_destination": int(
            run_multiswitch(packets_per_destination=400).detected
        ),
    }


def _rate_limit() -> Metrics:
    """Figure 1c: the switch rate-limits a 20× spike with no controller."""
    result = run_rate_limit(limit_pps=2000)
    return {"leak": result.leak, "policer_dropped": result.dropped}


def _quantile_sketch() -> Metrics:
    """Percentile cells vs a KLL sketch (QPipe [13])."""
    small, large = ablate_quantile_sketch(domains=(512, 1 << 16), packets=20_000)
    return {
        "cells_error_512": abs(small.tracker_value - small.exact),
        "cells_bytes_65536": large.tracker_bytes,
        "sketch_bytes_65536": large.sketch_bytes,
        "cells_over_sketch_bytes_65536": large.tracker_bytes / large.sketch_bytes,
        "sketch_error_share_65536": abs(large.sketch_value - large.exact)
        / large.domain,
    }


def _sparse_storage() -> Metrics:
    """§5: hashed slots keep a wide domain's heavy keys in under 4 KB."""
    result = ablate_sparse_storage(distinct_keys=300, packets=20_000, slots=128)
    return {
        "heavy_resident": result.heavy_resident,
        "heavy_exact": result.heavy_exact,
        "bytes_used": result.bytes_used,
        "evictions": result.evictions,
    }


def _division_table() -> Metrics:
    """§2's rejected division table: accuracy costs memory."""
    rows = ablate_division_table()
    return {
        "finest_error": rows[-1].worst_relative_error,
        "finest_table_bytes": rows[-1].table_bytes,
        "finest_over_coarsest_bytes": rows[-1].table_bytes / rows[0].table_bytes,
    }


def _ewma() -> Metrics:
    """The circular window vs a shift-based EWMA detector."""
    result = ablate_ewma_vs_window()
    return {
        "window_bits": result.window_bits,
        "ewma_bits": result.ewma_bits,
        "window_spike_latency": result.window_spike_latency,
        "ewma_spike_latency": result.ewma_spike_latency,
        "window_over_ewma_bits": result.window_bits / result.ewma_bits,
        "window_recovery": result.window_recovery,
        "ewma_recovery": result.ewma_recovery,
    }


def _lazy_sd() -> Metrics:
    """§3: lazy σ recomputation amortizes the MSB if-chain."""
    result = ablate_lazy_sd(packets=20_000)
    return {
        "amortization": result.amortization,
        "comparisons_lazy": result.comparisons_lazy,
        "comparisons_eager": result.comparisons_eager,
    }


def _median_steps() -> Metrics:
    """One median step per packet vs more: slower, equally accurate."""
    results = {r.steps_per_update: r for r in ablate_median_steps(budgets=(1, 2, 4, 8))}
    one, eight = results[1].samples_to_converge, results[8].samples_to_converge
    return {
        "samples_at_1_step": one,
        "samples_at_8_steps": eight,
        "slowdown_at_1_step": _ratio(one, eight),
        "worst_final_error": max(r.final_error_percent for r in results.values()),
    }


def _square() -> Metrics:
    """§2's shift squaring: σ error under exact vs approximate squares."""
    result = ablate_square_approx(samples=4000)
    return {
        "exact_mean_error": result.mean_sd_error_exact,
        "exact_max_error": result.max_sd_error_exact,
        "approx_mean_error": result.mean_sd_error_approx,
        "approx_max_error": result.max_sd_error_approx,
        "approx_over_exact_error": result.mean_sd_error_approx
        / result.mean_sd_error_exact,
    }


def _units() -> Metrics:
    """§2's order-of-magnitude counting: narrower counters, same verdicts."""
    rows = ablate_unit_coarsening(shifts=(0, 4, 8, 12))
    return {
        "counter_bits_at_unit_1": rows[0].counter_bits_needed,
        "counter_bits_at_unit_4096": rows[-1].counter_bits_needed,
        "mean_error_at_unit_4096": rows[-1].mean_relative_error,
        "counter_bits_saved": rows[0].counter_bits_needed - rows[-1].counter_bits_needed,
        "lowest_agreement": min(row.outlier_agreement for row in rows),
    }


def _zipf() -> Metrics:
    """§5's caveat: a zipf head is a permanent 2σ outlier."""
    rows = ablate_zipf()
    by_exponent = {row.exponent: row for row in rows}
    skewed = by_exponent[1.5]
    return {
        "uniform_alert_percent": by_exponent[0.0].alert_packets_percent,
        "skewed_alert_percent": skewed.alert_packets_percent,
        "skewed_head_z": skewed.head_z_score,
        "skewed_silencing_k": skewed.silencing_k,
        "alert_percent_falls": _falls([row.alert_packets_percent for row in rows]),
    }


#: Every claim, in report order: label -> its measurement.
CLAIMS: Dict[str, Callable[[], Metrics]] = {
    "table2_sqrt": _table2_sqrt,
    "table3_median": _table3_median,
    "figure5_echo": _figure5_echo,
    "case_study_detection": _case_study_detection,
    "case_study_pinpoint": _case_study_pinpoint,
    "case_study_sweep": _case_study_sweep,
    "resources": _resources,
    "reactivity": _reactivity,
    "sensitivity": _sensitivity,
    "identification": _identification,
    "multiswitch": _multiswitch,
    "rate_limit": _rate_limit,
    "ablation_quantile_sketch": _quantile_sketch,
    "ablation_sparse_storage": _sparse_storage,
    "ablation_division_table": _division_table,
    "ablation_ewma": _ewma,
    "ablation_lazy_sd": _lazy_sd,
    "ablation_median_steps": _median_steps,
    "ablation_square": _square,
    "ablation_units": _units,
    "ablation_zipf": _zipf,
}


def run_claims() -> Dict[str, Metrics]:
    """Run every claim's driver once: ``{claim: {metric: value}}``."""
    return {label: measure() for label, measure in CLAIMS.items()}
