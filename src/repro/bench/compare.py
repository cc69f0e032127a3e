# p4-ok-file — host-side benchmarking harness, not data-plane code.
"""The committed-floor gate behind ``repro bench --baseline`` and
``--scenario-baseline``, and the one table writer every bench table uses.

Two files commit floors, and one check reads both:

- ``benchmarks/baseline.json`` (``repro-bench-baseline/2``): a floor per
  kernel on the batched-over-scalar *speedup ratio*.  CI never compares
  absolute packets/second — runners differ too much — but both paths run
  on the same interpreter on the same box, so the ratio is stable to
  first order.  The file's ``tolerance`` is how far below its floor a
  ratio may read before it fails.
- ``benchmarks/scenario_baseline.json`` (``repro-scenario-baseline/1``):
  detection-quality floors per labeled scenario.  Scores are
  bit-deterministic, so the file carries no tolerance and the comparison
  is exact.

Every bound reads its direction from its key: ``min_<metric>`` is a
floor, ``max_<metric>`` a ceiling, and a speedup is a floor.  A bound
whose metric the report does not hold FAILs (the kernel or scenario
silently dropped out, or nothing was detected so latency is undefined);
a measured kernel or scenario with no bound is a WARN row, never a
silent pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

__all__ = [
    "BASELINE_SCHEMA",
    "SCENARIO_BASELINE_SCHEMA",
    "Floors",
    "FloorRow",
    "load_floors",
    "check_floors",
    "format_table",
    "format_verdicts",
    "warning_annotations",
]

BASELINE_SCHEMA = "repro-bench-baseline/2"
SCENARIO_BASELINE_SCHEMA = "repro-scenario-baseline/1"


def _speedups(report: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    return {
        kernel: {"speedup": ratio}
        for kernel, ratio in report.get("speedups", {}).items()
    }


def _scenario_rows(report: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    section = report.get("scenarios") or {}
    return {row["scenario"]: row for row in section.get("rows", [])}


#: schema -> (CI job the gate runs in, key of the bounds mapping, the
#: report's measured rows by label, the metric a floor-less row shows).
_SCHEMAS = {
    BASELINE_SCHEMA: ("perf-smoke", "speedups", _speedups, "speedup"),
    SCENARIO_BASELINE_SCHEMA: ("scenario-smoke", "floors", _scenario_rows, "f1"),
}


@dataclass(frozen=True)
class Floors:
    """One committed floors file, in the shape the check reads.

    ``bounds`` maps each label (a kernel or a scenario) to its bounds,
    keyed ``min_<metric>`` or ``max_<metric>``; a speedup file's floors
    read as ``min_speedup``.
    """

    schema: str
    tolerance: float
    bounds: Dict[str, Dict[str, float]]

    @property
    def gate(self) -> str:
        """The CI job name used in table titles and annotations."""
        return _SCHEMAS[self.schema][0]


@dataclass
class FloorRow:
    """One (label, metric) checked against its committed bound.

    ``bound`` is None on a WARN row (measured, no committed bound);
    ``current`` is None when the report holds no value for a bound, which
    FAILs.
    """

    label: str
    metric: str
    bound: Optional[float]
    current: Optional[float]
    regressed: bool
    missing_floor: bool = False

    @property
    def delta_percent(self) -> Optional[float]:
        """Relative change against the bound, in percent (None = not derivable)."""
        if self.current is None or not self.bound:
            return None
        return (self.current - self.bound) / self.bound * 100.0

    @property
    def verdict(self) -> str:
        """The row's verdict, in the one wording both gates print."""
        if self.missing_floor:
            return "WARN (no floor)"
        if self.current is None:
            return "FAIL (not measured)"
        return "FAIL" if self.regressed else "ok"


def load_floors(path: str) -> Floors:
    """Read and sanity-check either committed floors file."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    schema = data.get("schema")
    if schema not in _SCHEMAS:
        raise ValueError(
            f"{path}: unknown floors schema {schema!r} "
            f"(expected one of {sorted(_SCHEMAS)})"
        )
    section = data.get(_SCHEMAS[schema][1])
    if not isinstance(section, dict):
        raise ValueError(f"{path}: no {_SCHEMAS[schema][1]!r} mapping")
    tolerance = float(data.get("tolerance", 0.0))
    if tolerance < 0:
        raise ValueError(f"{path}: tolerance cannot be negative")
    if schema == BASELINE_SCHEMA:
        section = {kernel: {"min_speedup": floor} for kernel, floor in section.items()}
    for label, bounds in section.items():
        for key in bounds:
            if not key.startswith(("min_", "max_")):
                raise ValueError(f"{path}: {label}: {key!r} is not min_/max_")
    return Floors(schema, tolerance, section)


def check_floors(report: Dict[str, Any], floors: Floors) -> List[FloorRow]:
    """Check a bench report against committed floors, in both directions."""
    _, _, measured_rows, headline = _SCHEMAS[floors.schema]
    measured = measured_rows(report)
    rows: List[FloorRow] = []
    for label in sorted(floors.bounds):
        values = measured.get(label, {})
        for key, bound in floors.bounds[label].items():
            direction, metric = key.split("_", 1)
            current = values.get(metric)
            if current is None:
                regressed = True
            elif direction == "min":
                regressed = current < bound * (1.0 - floors.tolerance)
            else:
                regressed = current > bound * (1.0 + floors.tolerance)
            rows.append(FloorRow(label, metric, bound, current, regressed))
    for label in sorted(set(measured) - set(floors.bounds)):
        current = measured[label][headline]
        rows.append(FloorRow(label, headline, None, current, False, True))
    return rows


def format_table(
    title: str,
    header: Sequence[str],
    align: str,
    rows: Sequence[Sequence[str]],
    markdown: bool = False,
) -> str:
    """One table as aligned text or as GitHub markdown.

    ``align`` holds one format-spec character per column: ``<`` for left,
    ``>`` for right.
    """
    if markdown:
        rule = ["---:" if side == ">" else "---" for side in align]
        lines = [f"### {title}", ""] + [
            "| " + " | ".join(cells) + " |" for cells in (header, rule, *rows)
        ]
        return "\n".join(lines) + "\n"
    widths = [max(len(cell) for cell in column) for column in zip(header, *rows)]
    lines = [title] + [
        " ".join(
            f"{cell:{side}{width}}" for cell, side, width in zip(cells, align, widths)
        ).rstrip()
        for cells in (header, *rows)
    ]
    return "\n".join(lines)


def _value(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.3f}"


def format_verdicts(
    rows: List[FloorRow], floors: Floors, markdown: bool = False
) -> str:
    """The verdict table of one gate, with its one-line summary."""
    band = f"±{floors.tolerance:.0%} tolerance" if floors.tolerance else "exact"
    table = format_table(
        f"{floors.gate}: committed floors ({band})",
        ("label", "metric", "bound", "current", "delta", "verdict"),
        "<<>>><",
        [
            (
                row.label,
                row.metric,
                _value(row.bound),
                _value(row.current),
                "-" if row.delta_percent is None else f"{row.delta_percent:+.0f}%",
                row.verdict,
            )
            for row in rows
        ],
        markdown,
    )
    failed = sum(row.regressed for row in rows)
    lines = [
        table,
        f"{floors.gate}: "
        + (f"{failed} regression(s) detected" if failed else "no regressions"),
    ]
    unfloored = sorted({row.label for row in rows if row.missing_floor})
    if unfloored:
        lines.append(
            f"{floors.gate}: measured but missing a committed floor "
            "(not gated): " + ", ".join(unfloored)
        )
    return "\n".join(lines)


def warning_annotations(rows: List[FloorRow], job: str) -> List[str]:
    """GitHub Actions ``::warning::`` lines for the WARN rows.

    The CLI prints these when running under Actions, so a silent floor
    gap surfaces in the PR checks UI, not just in a table nobody scrolls
    to.
    """
    labels = sorted({row.label for row in rows if row.missing_floor})
    return [
        f"::warning title={job}: missing committed floor::"
        f"{label} is measured but has no committed floor — add it to the "
        "baseline so it is actually gated"
        for label in labels
    ]
