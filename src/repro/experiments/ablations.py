# p4-ok-file — host-side experiment driver, not data-plane code.
"""Ablations of the design choices DESIGN.md calls out.

Each function isolates one decision the paper makes and quantifies the
alternative:

1. :func:`ablate_lazy_sd` — lazy vs eager σ recomputation (Sec. 3's
   amortization of the MSB if-chain).
2. :func:`ablate_square_approx` — exact vs shift-approximated squaring
   (the hardware fallback's accuracy cost).
3. :func:`ablate_median_steps` — one-step-per-packet vs multi-step median
   movement (error decay vs per-packet work).
4. :func:`ablate_division_table` — the rejected alternative of storing
   division approximations in match-action tables ("they require
   significant memory to be accurate", Sec. 2) vs Stat4's scaled tracking.
5. :func:`ablate_unit_coarsening` — order-of-magnitude counting (Sec. 2's
   Gb-unit trick): memory saved vs relative error introduced.
6. :func:`ablate_quantile_sketch` — Stat4's percentile cells vs a
   QPipe-style KLL sketch (domain-bounded memory vs randomized error).
7. :func:`ablate_sparse_storage` — hashed sparse slots for a domain too
   wide for dense cells (Sec. 5's "using hash-tables similarly to [23]").
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.core.approx import approx_isqrt, approx_square
from repro.core.bitops import msb_position_if_chain
from repro.core.ewma import EwmaDetector
from repro.core.percentile import PercentileTracker
from repro.baselines.quantile_sketch import KLLSketch
from repro.core.stats import ScaledStats, exact_square
from repro.experiments.common import FenwickMedian, format_rows
from repro.stat4.sparse import HashedCells

__all__ = [
    "EwmaComparison",
    "ablate_ewma_vs_window",
    "ZipfRow",
    "ablate_zipf",
    "LazySdResult",
    "ablate_lazy_sd",
    "SquareApproxResult",
    "ablate_square_approx",
    "MedianStepsResult",
    "ablate_median_steps",
    "DivisionTableRow",
    "ablate_division_table",
    "format_division_table",
    "UnitCoarseningRow",
    "ablate_unit_coarsening",
    "QuantileSketchRow",
    "ablate_quantile_sketch",
    "SparseStorageResult",
    "ablate_sparse_storage",
]


# -- 0a. window vs EWMA detector ------------------------------------------------


@dataclass(frozen=True)
class EwmaComparison:
    """Windowed mean+2σ vs shift-based EWMA on identical interval streams.

    Attributes:
        window_bits / ewma_bits: detector state in register bits.
        window_spike_latency / ewma_spike_latency: intervals to flag an
            abrupt 8x spike (None = missed).
        window_recovery / ewma_recovery: intervals after the spike ends
            until the detector's threshold falls back within 1.2x of its
            pre-spike level — how long the absorbed spike inflates the
            baseline and blinds the detector to a follow-up anomaly.
    """

    window_bits: int
    ewma_bits: int
    window_spike_latency: object
    ewma_spike_latency: object
    window_recovery: int
    ewma_recovery: int


def ablate_ewma_vs_window(
    window: int = 64,
    baseline: int = 40,
    spike_factor: int = 8,
    spike_intervals: int = 40,
    seed: int = 0,
) -> EwmaComparison:
    """Drive both detectors with the same Poisson interval counts."""
    rng = random.Random(seed)

    def draw(lam: int) -> int:
        # Poisson via exponential gaps (host-side workload generation).
        t = 0
        count = 0
        while True:
            t += rng.expovariate(lam)
            if t >= 1:
                return count
            count += 1

    phases = (
        [baseline] * (3 * window)
        + [baseline * spike_factor] * spike_intervals
        + [baseline] * (3 * window)
    )
    spike_start = 3 * window
    spike_end = spike_start + spike_intervals

    window_stats = ScaledStats()
    cells: List[int] = []
    ewma = EwmaDetector(alpha_shift=3, k_dev=3, margin=3)
    window_flags: List[bool] = []
    ewma_flags: List[bool] = []
    window_thresholds: List[float] = []
    ewma_thresholds: List[float] = []
    margin = max(3, baseline >> 3)
    for lam in phases:
        x = draw(lam)
        flagged = (
            window_stats.count >= 8
            and window_stats.is_outlier(x, 2, margin=margin)
        )
        window_flags.append(flagged)
        if window_stats.count:
            # Per-value threshold: (Xsum + 2 sigma)/N + margin.
            window_thresholds.append(
                (window_stats.xsum + 2 * window_stats.stddev_nx)
                / window_stats.count
                + margin
            )
        else:
            window_thresholds.append(0.0)
        if len(cells) >= window:
            window_stats.replace_value(cells.pop(0), x)
        else:
            window_stats.add_value(x)
        cells.append(x)
        ewma_flags.append(ewma.update(x))
        ewma_thresholds.append(
            ewma.mean + ewma.k_dev * ewma.deviation + ewma.margin
        )

    def first_flag(flags, start, end):
        for i in range(start, min(end, len(flags))):
            if flags[i]:
                return i - start
        return None

    def threshold_recovery(thresholds, start):
        reference = thresholds[spike_start - 1] * 1.2
        for i in range(start, len(thresholds)):
            if thresholds[i] <= reference:
                return i - start
        return len(thresholds) - start

    return EwmaComparison(
        window_bits=window * 32 + 5 * 64,
        ewma_bits=ewma.state_bits,
        window_spike_latency=first_flag(window_flags, spike_start, spike_end),
        ewma_spike_latency=first_flag(ewma_flags, spike_start, spike_end),
        window_recovery=threshold_recovery(window_thresholds, spike_end),
        ewma_recovery=threshold_recovery(ewma_thresholds, spike_end),
    )


# -- 0. zipfian distributions (Sec. 5's caveat) --------------------------------


@dataclass(frozen=True)
class ZipfRow:
    """Behaviour of the k·σ check on zipf-distributed per-prefix counts.

    The paper warns that "the distribution of traffic per prefix may be
    zipfian" and not "straightforward to characterize with the measures we
    currently support" (Sec. 5).  Quantified: under a zipf head, the most
    popular prefix is a *permanent* k·σ outlier, so the check degenerates
    into a head detector.

    Attributes:
        exponent: zipf skew (0 = uniform).
        alert_packets_percent: fraction of baseline packets that trigger
            the 2σ check (with cooldown disabled) — the false-alert load.
        head_z_score: the top prefix's z-score in the final distribution.
        silencing_k: smallest integer k at which the settled baseline stops
            flagging the head (∞-proxy 99 if none ≤ 16 works).
    """

    exponent: float
    alert_packets_percent: float
    head_z_score: float
    silencing_k: int


def ablate_zipf(
    exponents: Sequence[float] = (0.0, 0.5, 1.0, 1.5),
    prefixes: int = 64,
    packets: int = 20_000,
    seed: int = 0,
) -> List[ZipfRow]:
    """Run the 2σ frequency check against zipf workloads of varying skew."""
    rows = []
    for exponent in exponents:
        rng = random.Random(seed)
        weights = [1.0 / ((rank + 1) ** exponent) for rank in range(prefixes)]
        stats = ScaledStats()
        counts = [0] * prefixes
        alerts = 0
        judged = 0
        for _ in range(packets):
            prefix = rng.choices(range(prefixes), weights=weights, k=1)[0]
            old = counts[prefix]
            counts[prefix] = stats.observe_frequency(old)
            if stats.count >= 8:
                judged += 1
                if stats.is_outlier(counts[prefix], 2, margin=1):
                    alerts += 1
        head = max(counts)
        n = stats.count
        mean = stats.xsum / n
        sigma = math.sqrt(
            max(sum(c * c for c in counts if c) / n - mean * mean, 1e-9)
        )
        z = (head - mean) / sigma
        silencing_k = 99
        for k in range(1, 17):
            if not stats.is_outlier(head, k, margin=1):
                silencing_k = k
                break
        rows.append(
            ZipfRow(
                exponent=exponent,
                alert_packets_percent=100.0 * alerts / judged if judged else 0.0,
                head_z_score=z,
                silencing_k=silencing_k,
            )
        )
    return rows


# -- 1. lazy vs eager standard deviation --------------------------------------


@dataclass(frozen=True)
class LazySdResult:
    """MSB-search cost with lazy vs eager recomputation.

    ``comparisons_*`` counts the if-chain comparisons spent on MSB search —
    the cost Sec. 3 says the lazy scheme amortizes.
    """

    packets: int
    value_adds: int
    comparisons_lazy: int
    comparisons_eager: int

    @property
    def amortization(self) -> float:
        """Eager/lazy comparison ratio (> 1 means the paper's choice wins)."""
        if self.comparisons_lazy == 0:
            return float("inf")
        return self.comparisons_eager / self.comparisons_lazy


def ablate_lazy_sd(
    packets: int = 10_000, packets_per_interval: int = 50, seed: int = 0
) -> LazySdResult:
    """Replay a time-series workload and count MSB comparisons both ways.

    Eager recomputation runs the σ pipeline on *every packet*; the lazy
    scheme only when an interval closes (a value joins the distribution).
    """
    rng = random.Random(seed)
    stats = ScaledStats()
    window: List[int] = []
    comparisons_lazy = 0
    comparisons_eager = 0
    value_adds = 0
    current = 0
    for packet in range(packets):
        current += 1
        variance = stats.variance_nx
        if variance > 0:
            # Eager: σ per packet.
            _, cost = msb_position_if_chain(variance, width=64)
            comparisons_eager += cost
        if current >= packets_per_interval + rng.randint(-5, 5):
            if len(window) >= 100:
                stats.replace_value(window.pop(0), current)
            else:
                stats.add_value(current)
            window.append(current)
            value_adds += 1
            current = 0
            variance = stats.variance_nx
            if variance > 0:
                # Lazy: σ only on value-add.
                _, cost = msb_position_if_chain(variance, width=64)
                comparisons_lazy += cost
    return LazySdResult(
        packets=packets,
        value_adds=value_adds,
        comparisons_lazy=comparisons_lazy,
        comparisons_eager=comparisons_eager,
    )


# -- 2. exact vs approximate squaring ---------------------------------------------


@dataclass(frozen=True)
class SquareApproxResult:
    """σ accuracy with exact vs shift-approximated squaring."""

    samples: int
    mean_sd_error_exact: float
    mean_sd_error_approx: float
    max_sd_error_exact: float
    max_sd_error_approx: float


def ablate_square_approx(
    samples: int = 2000, window: int = 100, lo: int = 50, hi: int = 150, seed: int = 0
) -> SquareApproxResult:
    """Run the same stream through both squaring modes and compare σ."""
    rng = random.Random(seed)
    exact_stats = ScaledStats(square=exact_square)
    approx_stats = ScaledStats(square=approx_square)
    window_values: List[int] = []
    errors_exact: List[float] = []
    errors_approx: List[float] = []
    for _ in range(samples):
        value = rng.randint(lo, hi)
        if len(window_values) >= window:
            oldest = window_values.pop(0)
            exact_stats.replace_value(oldest, value)
            approx_stats.replace_value(oldest, value)
        else:
            exact_stats.add_value(value)
            approx_stats.add_value(value)
        window_values.append(value)
        if len(window_values) < 4:
            continue
        n = len(window_values)
        mean = sum(window_values) / n
        true_var_nx = n * n * (
            sum((v - mean) ** 2 for v in window_values) / n
        )
        if true_var_nx <= 0:
            continue
        true_sd = math.sqrt(true_var_nx)
        errors_exact.append(abs(exact_stats.stddev_nx - true_sd) / true_sd)
        errors_approx.append(abs(approx_stats.stddev_nx - true_sd) / true_sd)
    return SquareApproxResult(
        samples=samples,
        mean_sd_error_exact=sum(errors_exact) / len(errors_exact),
        mean_sd_error_approx=sum(errors_approx) / len(errors_approx),
        max_sd_error_exact=max(errors_exact),
        max_sd_error_approx=max(errors_approx),
    )


# -- 3. median movement steps -----------------------------------------------------


@dataclass(frozen=True)
class MedianStepsResult:
    """Convergence of the median tracker at a given per-packet step budget."""

    steps_per_update: int
    samples_to_converge: int
    final_error_percent: float


def ablate_median_steps(
    budgets: Sequence[int] = (1, 2, 4, 8),
    domain: int = 1000,
    samples: int = 2000,
    tolerance_percent: float = 1.0,
    seed: int = 0,
) -> List[MedianStepsResult]:
    """Samples needed until the tracked median stays within tolerance."""
    results = []
    for budget in budgets:
        rng = random.Random(seed)
        tracker = PercentileTracker(domain, steps_per_update=budget)
        exact = FenwickMedian(domain)
        converged_at = samples
        error = 100.0
        for step in range(samples):
            value = rng.randrange(domain)
            tracker.observe(value)
            exact.add(value)
            error = abs(tracker.value - exact.value()) * 100.0 / domain
            if error > tolerance_percent:
                converged_at = samples  # reset: must *stay* within tolerance
            elif converged_at == samples:
                converged_at = step
        results.append(
            MedianStepsResult(
                steps_per_update=budget,
                samples_to_converge=converged_at,
                final_error_percent=error,
            )
        )
    return results


# -- 4. the rejected division lookup table ----------------------------------------


@dataclass(frozen=True)
class DivisionTableRow:
    """Memory a match-action division table needs at a given accuracy.

    The alternative the paper rejects: precompute ``x / N`` (or reciprocal
    mantissas) in a TCAM/SRAM table.  For ``operand_bits``-wide numerators
    matched to ``precision_bits`` of result precision, the table needs an
    entry per (truncated numerator, divisor) pair.
    """

    precision_bits: int
    operand_bits: int
    max_divisor: int
    entries: int
    table_bytes: int
    worst_relative_error: float


def ablate_division_table(
    precisions: Sequence[int] = (4, 6, 8, 10),
    operand_bits: int = 32,
    max_divisor: int = 256,
    entry_bytes: int = 8,
) -> List[DivisionTableRow]:
    """Size the lookup table the paper refuses to pay for.

    A table keyed on the numerator's top ``p`` bits (after normalization)
    and the divisor gives a result with relative error ``~2^-p``; entries
    scale as ``2^p * max_divisor`` and each consumes key+value memory.
    Stat4's scaled-distribution trick needs none of this.
    """
    rows = []
    for precision in precisions:
        entries = (1 << precision) * max_divisor
        rows.append(
            DivisionTableRow(
                precision_bits=precision,
                operand_bits=operand_bits,
                max_divisor=max_divisor,
                entries=entries,
                table_bytes=entries * entry_bytes,
                worst_relative_error=1.0 / (1 << precision),
            )
        )
    return rows


def format_division_table(rows: Sequence[DivisionTableRow]) -> str:
    """Render the memory/accuracy trade-off."""
    header = ["precision", "worst rel error", "entries", "memory"]
    body = [
        [
            f"{row.precision_bits} bits",
            f"{row.worst_relative_error * 100:.2f}%",
            str(row.entries),
            f"{row.table_bytes / 1024:.0f} KB",
        ]
        for row in rows
    ]
    return format_rows(header, body)


# -- 5. order-of-magnitude counting -------------------------------------------------


@dataclass(frozen=True)
class UnitCoarseningRow:
    """Effect of counting in ``2^shift``-byte units (Sec. 2's Gb trick)."""

    unit_shift: int
    counter_bits_needed: int
    mean_relative_error: float
    outlier_agreement: float


def ablate_unit_coarsening(
    shifts: Sequence[int] = (0, 4, 8, 12),
    intervals: int = 400,
    mean_bytes: int = 120_000,
    spike_every: int = 50,
    seed: int = 0,
) -> List[UnitCoarseningRow]:
    """Track per-interval byte counts at several unit granularities.

    Measures the counter width needed, the mean error of the coarsened
    mean (vs exact bytes), and whether the 2σ outlier verdicts agree with
    the full-precision tracker.
    """
    rng = random.Random(seed)
    # One shared workload: normal intervals plus periodic spikes.
    workload = []
    for i in range(intervals):
        value = int(rng.gauss(mean_bytes, mean_bytes * 0.05))
        if spike_every and i and i % spike_every == 0:
            value *= 6
        workload.append(max(value, 0))
    rows = []
    for shift in shifts:
        stats = ScaledStats()
        reference = ScaledStats()
        agree = 0
        judged = 0
        max_cell = 0
        errors: List[float] = []
        for value in workload:
            coarse = value >> shift
            max_cell = max(max_cell, coarse)
            if reference.count >= 4:
                judged += 1
                if stats.is_outlier(coarse, 2) == reference.is_outlier(value, 2):
                    agree += 1
            stats.add_value(coarse)
            reference.add_value(value)
            # Compare the (rescaled) coarse mean against the exact mean.
            if reference.count:
                exact_mean = reference.xsum / reference.count
                coarse_mean = (stats.xsum << shift) / stats.count
                errors.append(abs(coarse_mean - exact_mean) / exact_mean)
        rows.append(
            UnitCoarseningRow(
                unit_shift=shift,
                counter_bits_needed=max(max_cell.bit_length(), 1),
                mean_relative_error=sum(errors) / len(errors),
                outlier_agreement=agree / judged if judged else 1.0,
            )
        )
    return rows


# -- 6. percentile cells vs a quantile sketch ---------------------------------------


@dataclass(frozen=True)
class QuantileSketchRow:
    """Stat4's dense percentile cells vs a KLL sketch on one value domain.

    The paper's related work cites QPipe [13] for in-data-plane quantiles;
    Stat4 instead keeps one frequency cell per possible value:
    deterministic O(1) updates, memory bounded by the domain.
    """

    domain: int
    exact: int
    tracker_value: int
    tracker_bytes: int
    sketch_value: int
    sketch_bytes: int


def ablate_quantile_sketch(
    domains: Sequence[int] = (512, 1 << 16), packets: int = 20_000, seed: int = 0
) -> List[QuantileSketchRow]:
    """Track the median of the same uniform stream both ways, per domain."""
    rows = []
    for domain in domains:
        rng = random.Random(seed)
        tracker = PercentileTracker(domain, percent=50)
        sketch = KLLSketch(k=64, seed=seed)
        stream = [rng.randrange(domain) for _ in range(packets)]
        for value in stream:
            tracker.observe(value)
            sketch.update(value)
        rows.append(
            QuantileSketchRow(
                domain=domain,
                exact=sorted(stream)[len(stream) >> 1],
                tracker_value=tracker.value,
                tracker_bytes=domain * 4 + 3 * 4,  # cells + low/high/pos
                sketch_value=sketch.quantile(0.5),
                sketch_bytes=sketch.bytes_used,
            )
        )
    return rows


# -- 7. dense cells vs hashed sparse storage -----------------------------------------


@dataclass(frozen=True)
class SparseStorageResult:
    """How well HashPipe-style slots keep a zipf-ish stream's heavy keys.

    Attributes:
        capacity / bytes_used: the slot table's size.
        heavy_resident: of the ten heaviest keys, how many hold a slot.
        heavy_exact: of those ten, how many hold their exact count.
        evictions / evicted_mass: slots given up, and the packets they held.
    """

    distinct_keys: int
    packets: int
    capacity: int
    bytes_used: int
    heavy_resident: int
    heavy_exact: int
    evictions: int
    evicted_mass: int


def ablate_sparse_storage(
    distinct_keys: int = 300, packets: int = 20_000, slots: int = 128, seed: int = 0
) -> SparseStorageResult:
    """Count random 32-bit keys of zipf-ish popularity in two-stage slots."""
    rng = random.Random(seed)
    keys = [rng.getrandbits(32) for _ in range(distinct_keys)]
    weights = [1.0 / (rank + 1) for rank in range(distinct_keys)]
    cells = HashedCells(slots_per_stage=slots, stages=2)
    truth: Dict[int, int] = {}
    for _ in range(packets):
        key = rng.choices(keys, weights=weights, k=1)[0]
        truth[key] = truth.get(key, 0) + 1
        cells.increment(key)
    heavy = sorted(truth, key=truth.get, reverse=True)[:10]
    return SparseStorageResult(
        distinct_keys=distinct_keys,
        packets=packets,
        capacity=cells.capacity,
        bytes_used=cells.bytes_used,
        heavy_resident=sum(cells.count_of(key) > 0 for key in heavy),
        heavy_exact=sum(cells.count_of(key) == truth[key] for key in heavy),
        evictions=cells.evictions,
        evicted_mass=cells.evicted_mass,
    )
