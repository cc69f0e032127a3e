# p4-ok-file — host-side benchmarking harness, not data-plane code.
"""The committed-floor gate behind ``repro bench --baseline``, and the one
table writer every bench table uses.

Three files commit floors, and one check reads them all; each file's
schema names the report section it checks:

- ``benchmarks/baseline.json`` (``repro-bench-baseline/2``): a floor per
  kernel on the batched-over-scalar *speedup ratio*.  CI never compares
  absolute packets/second — runners differ too much — but both paths run
  on the same interpreter on the same box, so the ratio is stable to
  first order.  The file's ``tolerance`` is how far below its floor a
  ratio may read before it fails.
- ``benchmarks/scenario_baseline.json`` (``repro-scenario-baseline/1``):
  detection-quality floors per labeled scenario.
- ``benchmarks/paper_baseline.json`` (``repro-paper-baseline/1``): bounds
  on the numbers behind each of the paper's claims
  (:mod:`repro.bench.paper`).

Scenario scores and paper numbers are deterministic, so those files carry
no tolerance and the comparison is exact.

Every bound reads its direction from its key: ``min_<metric>`` is a
floor, ``max_<metric>`` a ceiling, and a speedup is a floor.  A bound
whose metric the report does not hold, or holds as NaN or infinity, FAILs
(the kernel, scenario or claim silently dropped out, or nothing was
detected so latency is undefined); a measured kernel, scenario or claim
with no bound is a WARN row, never a silent pass.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

__all__ = [
    "BASELINE_SCHEMA",
    "SCENARIO_BASELINE_SCHEMA",
    "PAPER_BASELINE_SCHEMA",
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
PAPER_BASELINE_SCHEMA = "repro-paper-baseline/1"


def _speedups(report: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    return {
        kernel: {"speedup": ratio}
        for kernel, ratio in report.get("speedups", {}).items()
    }


def _scenario_rows(report: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    section = report.get("scenarios") or {}
    return {row["scenario"]: row for row in section.get("rows", [])}


def _paper_claims(report: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    return report.get("paper") or {}


#: schema -> (the gate's name in table titles and annotations, key of the
#: bounds mapping, the report's measured rows by label, the metric a
#: floor-less row shows: None for a claim's first metric).
_SCHEMAS = {
    BASELINE_SCHEMA: ("perf-smoke", "speedups", _speedups, "speedup"),
    SCENARIO_BASELINE_SCHEMA: ("scenario-smoke", "floors", _scenario_rows, "f1"),
    PAPER_BASELINE_SCHEMA: ("paper-claims", "claims", _paper_claims, None),
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
        """The gate's name in table titles and annotations."""
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


def _finite(path: str, where: str, value: Any) -> float:
    """``value`` as a float, or a ValueError naming where it was read."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{path}: {where}: {value!r} is not a number")
    if not math.isfinite(value):
        raise ValueError(f"{path}: {where}: {value!r} is not finite")
    return float(value)


def load_floors(path: str) -> Floors:
    """Read and sanity-check a committed floors file.

    Every fault — an unreadable file, an unknown schema, a key that is not
    ``min_``/``max_``, a bound that is not a finite number — raises
    ValueError naming ``path``, so the caller can refuse the file before
    anything runs.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError) as error:
        raise ValueError(f"{path}: cannot read floors file: {error}") from None
    schema = data.get("schema") if isinstance(data, dict) else None
    if schema not in _SCHEMAS:
        raise ValueError(
            f"{path}: unknown floors schema {schema!r} "
            f"(expected one of {sorted(_SCHEMAS)})"
        )
    section = data.get(_SCHEMAS[schema][1])
    if not isinstance(section, dict):
        raise ValueError(f"{path}: no {_SCHEMAS[schema][1]!r} mapping")
    tolerance = _finite(path, "tolerance", data.get("tolerance", 0.0))
    if tolerance < 0:
        raise ValueError(f"{path}: tolerance cannot be negative")
    if schema == BASELINE_SCHEMA:
        section = {kernel: {"min_speedup": floor} for kernel, floor in section.items()}
    bounds: Dict[str, Dict[str, float]] = {}
    for label, entry in section.items():
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: {label}: bounds must be a mapping")
        for key in entry:
            if not key.startswith(("min_", "max_")):
                raise ValueError(f"{path}: {label}: {key!r} is not min_/max_")
        bounds[label] = {
            key: _finite(path, f"{label}: {key}", bound) for key, bound in entry.items()
        }
    return Floors(schema, tolerance, bounds)


def check_floors(report: Dict[str, Any], floors: Floors) -> List[FloorRow]:
    """Check a bench report against committed floors, in both directions.

    A value that is missing or not a finite number fails either way.
    """
    _, _, measured_rows, headline = _SCHEMAS[floors.schema]
    measured = measured_rows(report)
    rows: List[FloorRow] = []
    for label in sorted(floors.bounds):
        values = measured.get(label, {})
        for key, bound in floors.bounds[label].items():
            direction, metric = key.split("_", 1)
            current = values.get(metric)
            if current is None or not math.isfinite(current):
                regressed = True
            elif direction == "min":
                regressed = current < bound * (1.0 - floors.tolerance)
            else:
                regressed = current > bound * (1.0 + floors.tolerance)
            rows.append(FloorRow(label, metric, bound, current, regressed))
    for label in sorted(set(measured) - set(floors.bounds)):
        metric = headline or next(iter(measured[label]))
        rows.append(FloorRow(label, metric, None, measured[label][metric], False, True))
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
