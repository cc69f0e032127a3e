# p4-ok-file — host-side benchmarking harness, not data-plane code.
"""Throughput benchmarks for the Stat4 hot loop (``repro bench``).

The suite measures packets/second through the scalar :meth:`Stat4.process`
path and the batched :class:`~repro.stat4.batch.BatchEngine` path for each
distribution kind, plus wall-clock for the paper-table experiments, and
emits a schema-versioned ``BENCH_<rev>.json`` artifact.  CI compares the
*speedup ratios* (batched over scalar, machine-independent to first order)
against committed floors in ``benchmarks/baseline.json`` — see
``docs/BENCHMARKS.md``.
"""

from repro.bench.compare import (
    ComparisonRow,
    ScenarioComparisonRow,
    compare_reports,
    compare_scenario_reports,
    format_delta_markdown,
    format_delta_table,
    format_scenario_delta_markdown,
    format_scenario_delta_table,
    load_baseline,
    load_scenario_baseline,
    warning_annotations,
)
from repro.bench.history import (
    DEFAULT_HISTORY_DIR,
    HISTORY_SCHEMA,
    FloorSuggestion,
    append_history,
    format_suggestions,
    format_suggestions_markdown,
    format_trend,
    load_index,
    previous_report,
    suggest_floor_bumps,
)
from repro.bench.suite import (
    SCENARIO_SCHEMA,
    SCHEMA_VERSION,
    format_kernels_markdown,
    format_report,
    format_scenario_table,
    run_suite,
    write_report,
)

__all__ = [
    "SCHEMA_VERSION",
    "SCENARIO_SCHEMA",
    "run_suite",
    "write_report",
    "format_report",
    "format_kernels_markdown",
    "format_scenario_table",
    "compare_reports",
    "format_delta_table",
    "format_delta_markdown",
    "load_baseline",
    "ComparisonRow",
    "ScenarioComparisonRow",
    "compare_scenario_reports",
    "format_scenario_delta_table",
    "format_scenario_delta_markdown",
    "load_scenario_baseline",
    "warning_annotations",
    "HISTORY_SCHEMA",
    "DEFAULT_HISTORY_DIR",
    "append_history",
    "load_index",
    "previous_report",
    "format_trend",
    "FloorSuggestion",
    "suggest_floor_bumps",
    "format_suggestions",
    "format_suggestions_markdown",
]
