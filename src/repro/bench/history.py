# p4-ok-file — host-side benchmarking harness, not data-plane code.
"""Revision-over-revision bench history (``repro bench --history``).

Each run's report is appended under ``benchmarks/history/`` as
``BENCH_<rev>.json`` next to a small ``index.json`` recording run order and
the per-run speedup summaries.  The trend printer compares the current
report against the most recent run of a *different* revision, so CI output
answers "did this commit move the needle?" rather than re-stating floors.

Re-running the same revision replaces its history entry (latest wins) —
the index holds one entry per revision, ordered by first appearance.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.bench.compare import Floors, format_table

__all__ = [
    "HISTORY_SCHEMA",
    "FloorSuggestion",
    "append_history",
    "load_index",
    "previous_report",
    "format_trend",
    "suggest_floor_bumps",
    "format_suggestions",
]

HISTORY_SCHEMA = "repro-bench-history/2"
_INDEX_NAME = "index.json"


def load_index(history_dir: str) -> Dict[str, Any]:
    """Read the history index (an empty one when none exists yet)."""
    path = os.path.join(history_dir, _INDEX_NAME)
    if not os.path.exists(path):
        return {"schema": HISTORY_SCHEMA, "runs": []}
    with open(path, "r", encoding="utf-8") as handle:
        index = json.load(handle)
    if index.get("schema") != HISTORY_SCHEMA:
        raise ValueError(
            f"{path}: unknown history schema {index.get('schema')!r} "
            f"(expected {HISTORY_SCHEMA!r})"
        )
    return index


def append_history(report: Dict[str, Any], history_dir: str) -> str:
    """Write the report into the history and update the index.

    Returns the path of the written ``BENCH_<rev>.json``.
    """
    os.makedirs(history_dir, exist_ok=True)
    # The suite guarantees a non-empty revision (the "unknown" sentinel at
    # worst); keep a belt-and-braces fallback so a hand-built report can
    # never index under an empty key or write "BENCH_.json".
    revision = report.get("revision") or "unknown"
    filename = f"BENCH_{revision}.json"
    report_path = os.path.join(history_dir, filename)
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    index = load_index(history_dir)
    entry = {
        "revision": revision,
        "file": filename,
        "quick": report.get("quick", False),
        "python": report.get("python"),
        "numpy": report.get("numpy"),
        "speedups": report.get("speedups", {}),
        "scenarios": _scenario_summary(report),
    }
    runs: List[Dict[str, Any]] = index["runs"]
    for position, run in enumerate(runs):
        if run.get("revision") == revision:
            runs[position] = entry
            break
    else:
        runs.append(entry)
    with open(os.path.join(history_dir, _INDEX_NAME), "w", encoding="utf-8") as handle:
        json.dump(index, handle, indent=2)
        handle.write("\n")
    return report_path


def _scenario_summary(report: Dict[str, Any]) -> Optional[Dict[str, float]]:
    """``scenario -> f1`` from a report (None when none ran)."""
    section = report.get("scenarios")
    if not section or not section.get("rows"):
        return None
    return {row["scenario"]: row["f1"] for row in section["rows"]}


def previous_report(
    history_dir: str, revision: str
) -> Optional[Dict[str, Any]]:
    """The most recent history report from a different revision.

    Returns None when the history is empty, holds only this revision, or
    the indexed file has gone missing.
    """
    try:
        index = load_index(history_dir)
    except (OSError, ValueError, json.JSONDecodeError):
        return None
    for run in reversed(index.get("runs", [])):
        if run.get("revision") == revision:
            continue
        path = os.path.join(history_dir, run.get("file", ""))
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
    return None


def format_trend(current: Dict[str, Any], previous: Dict[str, Any]) -> str:
    """Per-kernel speedup deltas vs the previous revision's report."""
    current_speedups = current.get("speedups", {})
    previous_speedups = previous.get("speedups", {})
    rows = []
    for kernel in sorted(set(current_speedups) | set(previous_speedups)):
        now = current_speedups.get(kernel)
        before = previous_speedups.get(kernel)
        if now is not None and before is not None and before > 0:
            delta = f"{(now - before) / before * 100.0:+.0f}%"
        elif now is not None and before is None:
            delta = "new"
        elif now is None and before is not None:
            delta = "gone"
        else:
            delta = "-"
        rows.append((kernel, _ratio(before), _ratio(now), delta))
    lines = [
        format_table(
            f"trend vs revision {previous.get('revision', '?')}:",
            ("kernel", "previous", "current", "delta"),
            "<>>>",
            rows,
        )
    ]
    merge_now = {row["shards"]: row for row in current.get("cluster", [])}
    merge_before = {row["shards"]: row for row in previous.get("cluster", [])}
    shared = sorted(set(merge_now) & set(merge_before))
    if shared:
        lines.append("cluster merge overhead (seconds):")
        for shards in shared:
            lines.append(
                f"  {shards} shard(s): {merge_before[shards]['merge_seconds']:.4f}"
                f" -> {merge_now[shards]['merge_seconds']:.4f}"
            )
    scen_now = _scenario_summary(current)
    scen_before = _scenario_summary(previous)
    if scen_now and scen_before:
        shared_scenarios = sorted(set(scen_now) & set(scen_before))
        if shared_scenarios:
            lines.append("scenario detection quality (F1):")
            for scenario in shared_scenarios:
                lines.append(
                    f"  {scenario}: {scen_before[scenario]:.3f}"
                    f" -> {scen_now[scenario]:.3f}"
                )
    return "\n".join(lines)


@dataclass(frozen=True)
class FloorSuggestion:
    """A committed floor that two consecutive revisions left far behind."""

    kernel: str
    floor: float
    current: float
    previous: float
    suggested: float


def suggest_floor_bumps(
    current: Dict[str, Any],
    previous: Dict[str, Any],
    floors: Floors,
    margin: float = 0.25,
) -> List[FloorSuggestion]:
    """Speedup floors that both the current and previous revision beat by
    more than ``margin``.

    Floors are deliberately conservative, so one lucky run is no reason to
    raise one — but when two consecutive revisions each clear a floor by
    more than 25%, the improvement has held and the floor is stale.  The
    suggested value follows the documented refresh rule
    (``docs/BENCHMARKS.md``): half the worst observed ratio, rounded to
    two decimals, and only suggested when that actually raises the floor.
    Advisory output only; nothing here changes what the gate enforces.
    Quality floors (no ``min_speedup`` bound) never get a suggestion.
    """
    if margin < 0:
        raise ValueError(f"margin must be non-negative, got {margin}")
    current_speedups = current.get("speedups", {})
    previous_speedups = previous.get("speedups", {})
    suggestions: List[FloorSuggestion] = []
    for kernel, bounds in sorted(floors.bounds.items()):
        floor = bounds.get("min_speedup")
        now = current_speedups.get(kernel)
        before = previous_speedups.get(kernel)
        if floor is None or now is None or before is None or floor <= 0:
            continue
        threshold = floor * (1.0 + margin)
        if now <= threshold or before <= threshold:
            continue
        suggested = round(min(now, before) / 2.0, 2)
        if suggested <= floor:
            continue
        suggestions.append(
            FloorSuggestion(
                kernel=kernel,
                floor=floor,
                current=now,
                previous=before,
                suggested=suggested,
            )
        )
    return suggestions


def _ratio(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.2f}x"


def format_suggestions(
    suggestions: List[FloorSuggestion], markdown: bool = False
) -> str:
    """The floor-bump advisory as a table, or ``""`` with no suggestion."""
    if not suggestions:
        return ""
    return format_table(
        "baseline floors beaten by >25% across two consecutive revisions "
        '(advisory; see docs/BENCHMARKS.md "Refreshing the baseline")',
        ("kernel", "floor", "previous", "current", "suggested"),
        "<>>>>",
        [
            (s.kernel, *map(_ratio, (s.floor, s.previous, s.current, s.suggested)))
            for s in suggestions
        ],
        markdown,
    )
