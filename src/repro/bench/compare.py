# p4-ok-file — host-side benchmarking harness, not data-plane code.
"""Baseline comparison for the CI perf-smoke gate.

CI never compares absolute packets/second — runners differ too much.  What
is stable across machines (to first order: both paths run on the same
interpreter on the same box) is the batched-over-scalar *speedup ratio*
per kernel.  ``benchmarks/baseline.json`` commits conservative floors for
those ratios; a change that drags a ratio more than ``tolerance`` below
its floor is a perf regression and fails the job.

The comparison is also checked in the *other* direction: a kernel the
report measures but the baseline has no floor for is surfaced as a WARN
row instead of silently passing — a newly added kernel must get a
committed floor before its performance is actually gated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

__all__ = [
    "BASELINE_SCHEMA",
    "SCENARIO_BASELINE_SCHEMA",
    "ComparisonRow",
    "ScenarioComparisonRow",
    "load_baseline",
    "load_scenario_baseline",
    "compare_reports",
    "compare_scenario_reports",
    "format_delta_table",
    "format_delta_markdown",
    "format_scenario_delta_table",
    "format_scenario_delta_markdown",
    "warning_annotations",
]

BASELINE_SCHEMA = "repro-bench-baseline/2"
SCENARIO_BASELINE_SCHEMA = "repro-scenario-baseline/1"

#: Scenario quality metrics: (row key, floor key, direction).  ``min_*``
#: floors require current >= floor, the ``max_*`` ceiling requires
#: current <= ceiling (detection latency: lower is better).
_SCENARIO_METRICS = (
    ("precision", "min_precision", "min"),
    ("recall", "min_recall", "min"),
    ("f1", "min_f1", "min"),
    ("latency_intervals", "max_latency_intervals", "max"),
)


@dataclass
class ComparisonRow:
    """One kernel's speedup checked against its committed floor.

    Attributes:
        kernel: kernel name from the suite.
        baseline: the committed speedup floor (None when the kernel has no
            floor at all — a WARN row, see ``missing_floor``).
        current: the measured speedup (None when the report has no
            measurement for a floored kernel — a FAIL).
        regressed: measured more than ``tolerance`` below the floor, or
            not measured at all.
        missing_floor: measured by the suite but absent from the baseline —
            not gated, listed so the gap is visible instead of silent.
    """

    kernel: str
    baseline: Optional[float]
    current: Optional[float]
    regressed: bool
    missing_floor: bool = False

    @property
    def delta_percent(self) -> Optional[float]:
        """Relative change vs the floor, in percent (None = not derivable)."""
        if self.current is None or self.baseline is None or self.baseline <= 0:
            return None
        return (self.current - self.baseline) / self.baseline * 100.0

    @property
    def label(self) -> str:
        """Identifier used in summaries and CI annotations."""
        return self.kernel


@dataclass
class ScenarioComparisonRow:
    """One (scenario, metric) checked against its committed floor.

    Quality scores are bit-deterministic (fixed traces, fixed seeds), so
    unlike speedup floors these are compared exactly — no tolerance band.

    Attributes:
        scenario: scenario name from the catalog.
        metric: row metric name (``precision``/``recall``/``f1``/
            ``latency_intervals``).
        baseline: the committed floor (ceiling for latency); None on WARN
            rows for scenarios without any committed floors.
        current: the measured value; None when the scenario was not
            replayed (a FAIL) or latency is undefined (nothing detected —
            also a FAIL when a ceiling is committed).
        regressed: the floor/ceiling was violated.
        missing_floor: measured but not gated by the baseline.
    """

    scenario: str
    metric: str
    baseline: Optional[float]
    current: Optional[float]
    regressed: bool
    missing_floor: bool = False

    @property
    def label(self) -> str:
        """Identifier used in summaries and CI annotations."""
        return self.scenario


def load_baseline(path: str) -> Dict[str, Any]:
    """Read and sanity-check a committed baseline file."""
    with open(path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    if baseline.get("schema") != BASELINE_SCHEMA:
        raise ValueError(
            f"{path}: unknown baseline schema {baseline.get('schema')!r} "
            f"(expected {BASELINE_SCHEMA!r})"
        )
    if not isinstance(baseline.get("speedups"), dict):
        raise ValueError(f"{path}: baseline has no 'speedups' mapping")
    return baseline


def compare_reports(
    report: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = 0.2,
) -> List[ComparisonRow]:
    """Check a bench report against baseline floors.

    Every kernel runs on every machine, so a floor the report has no
    measurement for is a regression (``current=None, regressed=True``):
    the kernel silently stopped being benchmarked.

    Conversely, every measured kernel with no committed floor yields a
    ``missing_floor`` WARN row — never a silent pass.
    """
    if tolerance < 0:
        raise ValueError("tolerance cannot be negative")
    measured = report.get("speedups", {})
    floors = baseline["speedups"]
    rows: List[ComparisonRow] = []
    for kernel in sorted(floors):
        floor = float(floors[kernel])
        current = measured.get(kernel)
        rows.append(
            ComparisonRow(
                kernel=kernel,
                baseline=floor,
                current=None if current is None else float(current),
                regressed=current is None or current < floor * (1.0 - tolerance),
            )
        )
    for kernel in sorted(set(measured) - set(floors)):
        rows.append(
            ComparisonRow(
                kernel=kernel,
                baseline=None,
                current=float(measured[kernel]),
                regressed=False,
                missing_floor=True,
            )
        )
    return rows


def load_scenario_baseline(path: str) -> Dict[str, Any]:
    """Read and sanity-check committed scenario quality floors."""
    with open(path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    if baseline.get("schema") != SCENARIO_BASELINE_SCHEMA:
        raise ValueError(
            f"{path}: unknown baseline schema {baseline.get('schema')!r} "
            f"(expected {SCENARIO_BASELINE_SCHEMA!r})"
        )
    if not isinstance(baseline.get("floors"), dict):
        raise ValueError(f"{path}: baseline has no 'floors' mapping")
    return baseline


def compare_scenario_reports(
    report: Dict[str, Any],
    baseline: Dict[str, Any],
) -> List[ScenarioComparisonRow]:
    """Check a report's scenario leaderboard against committed floors.

    Mirrors :func:`compare_reports` in both directions: a committed floor
    with no measured row is a FAIL (the scenario silently dropped out of
    the suite), and a measured scenario with no committed floors is a WARN
    row — quality is only actually gated once a floor lands in
    ``benchmarks/scenario_baseline.json``.
    """
    section = report.get("scenarios") or {}
    measured = {row["scenario"]: row for row in section.get("rows", [])}
    floors = baseline["floors"]
    rows: List[ScenarioComparisonRow] = []
    for scenario in sorted(floors):
        scenario_floors = floors[scenario]
        row = measured.get(scenario)
        if row is None:
            # Committed floor, nothing measured: the scenario fell out of
            # the suite — fail every metric the floor gates.
            for _, floor_key, _ in _SCENARIO_METRICS:
                if floor_key in scenario_floors:
                    rows.append(
                        ScenarioComparisonRow(
                            scenario=scenario,
                            metric=floor_key,
                            baseline=float(scenario_floors[floor_key]),
                            current=None,
                            regressed=True,
                        )
                    )
            continue
        for metric, floor_key, direction in _SCENARIO_METRICS:
            if floor_key not in scenario_floors:
                continue
            floor = float(scenario_floors[floor_key])
            current = row.get(metric)
            if current is None:
                # Undefined latency = nothing detected; with a committed
                # ceiling that is a regression.
                regressed = True
            elif direction == "min":
                regressed = float(current) < floor
            else:
                regressed = float(current) > floor
            rows.append(
                ScenarioComparisonRow(
                    scenario=scenario,
                    metric=metric,
                    baseline=floor,
                    current=None if current is None else float(current),
                    regressed=regressed,
                )
            )
    for scenario in sorted(set(measured) - set(floors)):
        rows.append(
            ScenarioComparisonRow(
                scenario=scenario,
                metric="f1",
                baseline=None,
                current=float(measured[scenario]["f1"]),
                regressed=False,
                missing_floor=True,
            )
        )
    return rows


def _verdict_of(row: ComparisonRow) -> str:
    if row.missing_floor:
        return "WARN (no baseline floor)"
    if row.current is None:
        return "FAIL (not measured)"
    return "FAIL" if row.regressed else "ok"


def _summary_lines(rows: List[ComparisonRow]) -> List[str]:
    failed = sum(1 for row in rows if row.regressed)
    lines = [
        "perf-smoke: "
        + (f"{failed} regression(s) detected" if failed else "no regressions")
    ]
    unbaselined = sorted({row.label for row in rows if row.missing_floor})
    if unbaselined:
        lines.append(
            "perf-smoke: measured but missing a committed floor "
            "(not gated): " + ", ".join(unbaselined)
        )
    return lines


def format_delta_table(rows: List[ComparisonRow], tolerance: float = 0.2) -> str:
    """The per-kernel delta table the perf-smoke job prints."""
    lines = [
        f"perf-smoke: speedup floors ± {tolerance * 100:.0f}% tolerance",
        f"{'kernel':<26} {'floor':>7} {'current':>8} {'delta':>8}  verdict",
    ]
    for row in rows:
        floor = f"{row.baseline:.2f}x" if row.baseline is not None else "-"
        current = f"{row.current:.2f}x" if row.current is not None else "-"
        delta = (
            f"{row.delta_percent:+.0f}%" if row.delta_percent is not None else "-"
        )
        lines.append(
            f"{row.kernel:<26} {floor:>7} "
            f"{current:>8} {delta:>8}  {_verdict_of(row)}"
        )
    lines.extend(_summary_lines(rows))
    return "\n".join(lines)


def format_delta_markdown(rows: List[ComparisonRow], tolerance: float = 0.2) -> str:
    """The same delta table as GitHub-flavored markdown (job summaries).

    CI appends this to ``$GITHUB_STEP_SUMMARY`` so the per-kernel verdicts
    render on the workflow run page instead of hiding in the logs.
    """
    verdict_marks = {"ok": "✅ ok", "FAIL": "❌ FAIL"}
    lines = [
        f"### perf-smoke: speedup floors ± {tolerance * 100:.0f}% tolerance",
        "",
        "| kernel | floor | current | delta | verdict |",
        "| --- | ---: | ---: | ---: | --- |",
    ]
    for row in rows:
        floor = f"{row.baseline:.2f}x" if row.baseline is not None else "—"
        current = f"{row.current:.2f}x" if row.current is not None else "—"
        delta = (
            f"{row.delta_percent:+.0f}%" if row.delta_percent is not None else "—"
        )
        verdict = _verdict_of(row)
        if row.missing_floor:
            verdict = "⚠️ " + verdict
        else:
            verdict = verdict_marks.get(verdict, "❌ " + verdict)
        lines.append(
            f"| `{row.kernel}` | {floor} | {current} | {delta} | {verdict} |"
        )
    lines.append("")
    lines.extend(_summary_lines(rows))
    return "\n".join(lines)


# -- scenario quality comparison ------------------------------------------------


def _scenario_verdict(row: ScenarioComparisonRow) -> str:
    if row.missing_floor:
        return "WARN (no quality floor)"
    if row.current is None and row.regressed:
        return "FAIL (not measured)"
    return "FAIL" if row.regressed else "ok"


def _scenario_summary_lines(rows: List[ScenarioComparisonRow]) -> List[str]:
    failed = sum(1 for row in rows if row.regressed)
    lines = [
        "scenario-smoke: "
        + (
            f"{failed} quality regression(s) detected"
            if failed
            else "no quality regressions"
        )
    ]
    unbaselined = sorted({row.label for row in rows if row.missing_floor})
    if unbaselined:
        lines.append(
            "scenario-smoke: scored but missing a committed quality floor "
            "(not gated): " + ", ".join(unbaselined)
        )
    return lines


def _scenario_value(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.3f}"


def format_scenario_delta_table(rows: List[ScenarioComparisonRow]) -> str:
    """The per-scenario quality table the scenario-smoke job prints."""
    lines = [
        "scenario-smoke: quality floors (exact — scores are deterministic)",
        f"{'scenario':<18} {'metric':<18} {'floor':>7} {'current':>8}  verdict",
    ]
    for row in rows:
        lines.append(
            f"{row.scenario:<18} {row.metric:<18} "
            f"{_scenario_value(row.baseline):>7} "
            f"{_scenario_value(row.current):>8}  {_scenario_verdict(row)}"
        )
    lines.extend(_scenario_summary_lines(rows))
    return "\n".join(lines)


def format_scenario_delta_markdown(rows: List[ScenarioComparisonRow]) -> str:
    """The scenario quality table as GitHub-flavored markdown."""
    lines = [
        "### scenario-smoke: detection quality floors",
        "",
        "| scenario | metric | floor | current | verdict |",
        "| --- | --- | ---: | ---: | --- |",
    ]
    for row in rows:
        verdict = _scenario_verdict(row)
        if row.missing_floor:
            verdict = "⚠️ " + verdict
        elif row.regressed:
            verdict = "❌ " + verdict
        else:
            verdict = "✅ " + verdict
        lines.append(
            f"| `{row.scenario}` | {row.metric} | "
            f"{_scenario_value(row.baseline)} | {_scenario_value(row.current)} | "
            f"{verdict} |"
        )
    lines.append("")
    lines.extend(_scenario_summary_lines(rows))
    return "\n".join(lines)


def warning_annotations(rows: List[Any], job: str) -> List[str]:
    """GitHub Actions ``::warning::`` lines for missing-floor WARN rows.

    Works for both perf (:class:`ComparisonRow`) and scenario
    (:class:`ScenarioComparisonRow`) comparisons — anything with ``label``
    and ``missing_floor``.  The CLI prints these when running under CI so
    silent baseline gaps surface in the PR checks UI, not just in a table
    nobody scrolls to.
    """
    labels = sorted({row.label for row in rows if row.missing_floor})
    return [
        f"::warning title={job}: missing committed floor::"
        f"{label} is measured but has no committed floor — add it to the "
        "baseline so it is actually gated"
        for label in labels
    ]
