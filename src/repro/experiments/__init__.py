"""Experiment drivers: one module per table/figure, plus ablations.

| Paper artifact | Driver |
|---|---|
| Table 2 (sqrt error) | :mod:`repro.experiments.table2_sqrt` |
| Table 3 (median error) | :mod:`repro.experiments.table3_median` |
| Figure 5 / Sec. 3 validation | :mod:`repro.experiments.validation` |
| Figure 6 / Sec. 4 case study | :mod:`repro.experiments.case_study` |
| Sec. 4 resources | :mod:`repro.experiments.resources_report` |
| Figure 1 / Sec. 1 reactivity | :mod:`repro.experiments.reactivity` |
| Figure 1c local rate-limit reaction | :mod:`repro.experiments.mitigation` |
| design ablations | :mod:`repro.experiments.ablations` |
"""

from repro.experiments.case_study import (
    CaseStudyResult,
    CaseStudySetup,
    format_sweep,
    run_case_study,
    run_case_study_sweep,
)
from repro.experiments.reactivity import (
    ReactivityPoint,
    format_reactivity,
    run_reactivity,
)
from repro.experiments.hybrid import (
    StrategyResult,
    format_strategies,
    run_identification_comparison,
)
from repro.experiments.multiswitch import MultiSwitchResult, run_multiswitch
from repro.experiments.resources_report import build_case_study_report, summarize
from repro.experiments.sensitivity import (
    SensitivityRow,
    format_sensitivity,
    run_sensitivity,
)
from repro.experiments.table2_sqrt import SqrtErrorRow, format_table2, run_table2
from repro.experiments.table3_median import MedianErrorRow, format_table3, run_table3
from repro.experiments.validation import ValidationResult, run_validation

__all__ = [
    "run_table2",
    "format_table2",
    "SqrtErrorRow",
    "run_table3",
    "format_table3",
    "MedianErrorRow",
    "run_validation",
    "ValidationResult",
    "run_case_study",
    "run_case_study_sweep",
    "format_sweep",
    "CaseStudySetup",
    "CaseStudyResult",
    "run_reactivity",
    "format_reactivity",
    "ReactivityPoint",
    "build_case_study_report",
    "summarize",
    "run_multiswitch",
    "MultiSwitchResult",
    "run_identification_comparison",
    "format_strategies",
    "StrategyResult",
    "run_sensitivity",
    "format_sensitivity",
    "SensitivityRow",
]
