# p4-ok-file — host-side benchmarking harness, not data-plane code.
"""Throughput benchmarks for the Stat4 hot loop (``repro bench``).

The suite measures packets/second through the scalar :meth:`Stat4.process`
path and the batched :class:`~repro.stat4.batch.BatchEngine` path for each
distribution kind, runs each of the paper's claims once
(:mod:`repro.bench.paper`), and emits a schema-versioned
``BENCH_<rev>.json`` artifact.  CI checks the *speedup ratios* (batched
over scalar, machine-independent to first order) against committed floors
in ``benchmarks/baseline.json``, the claims' numbers against
``benchmarks/paper_baseline.json``, and the scenario quality scores
against ``benchmarks/scenario_baseline.json``, through one check — see
``docs/BENCHMARKS.md``.
"""

from repro.bench.compare import (
    FloorRow,
    Floors,
    check_floors,
    format_table,
    format_verdicts,
    load_floors,
    warning_annotations,
)
from repro.bench.history import (
    HISTORY_SCHEMA,
    FloorSuggestion,
    append_history,
    format_suggestions,
    format_trend,
    load_index,
    previous_report,
    suggest_floor_bumps,
)
from repro.bench.suite import (
    SCENARIO_SCHEMA,
    SCHEMA_VERSION,
    format_kernels,
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
    "format_kernels",
    "format_scenario_table",
    "Floors",
    "FloorRow",
    "load_floors",
    "check_floors",
    "format_table",
    "format_verdicts",
    "warning_annotations",
    "HISTORY_SCHEMA",
    "append_history",
    "load_index",
    "previous_report",
    "format_trend",
    "FloorSuggestion",
    "suggest_floor_bumps",
    "format_suggestions",
]
