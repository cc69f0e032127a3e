"""Static analysis of Stat4 deployments (the ``repro lint`` subsystem).

The paper's central claim — every measure is computable with P4-expressible
integer operations inside fixed register budgets — is *statically
checkable*.  This package is the checker: one analyzer with

- a rule registry (:mod:`repro.analysis.diagnostics`): every finding
  carries a stable ``ST4xx`` code, a severity, and file/line/register
  context, so CI and humans consume the same output;
- an expressibility pass (:mod:`repro.analysis.expressibility`): the AST
  lint generalized to packages and call graphs, with ``# p4-ok``
  suppressions for documented bounded loops;
- a width/overflow dataflow pass (:mod:`repro.analysis.dataflow`): value
  magnitudes propagated through a :class:`~repro.stat4.config.Stat4Config`
  to per-register overflow horizons and the minimal safe unit shift;
- a P4-source pass (:mod:`repro.analysis.p4source`): declared-vs-required
  register widths and inexpressible operators in emitted P4-16;
- binding-table consistency rules (:mod:`repro.analysis.bindings`);
- deployment-file analysis (:mod:`repro.analysis.deployment`) tying the
  passes together over a JSON deployment description; and
- the kernel-table audit (:mod:`repro.analysis.kernels`, ST504 and
  ST510): every ``TrackSpec`` field is inside the kernel-shape projection
  or justified, and every generated kernel stays inside the restricted
  op set.  It audits the library itself, so it runs on a walk of the
  package directory that defines the kernels.

:func:`analyze_target` dispatches on what it is given (deployment config,
P4 source, Python file, directory, or dotted module name); the ``repro
lint`` CLI is a thin shell around it.
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple

from repro.analysis.bindings import check_bindings, check_ewma
from repro.analysis.dataflow import (
    OverflowBound,
    analyze_overflow,
    check_overflow,
    required_register_widths,
    safe_unit_shift,
)
from repro.analysis.deployment import (
    DeploymentSpec,
    analyze_deployment,
    load_deployment,
)
from repro.analysis.diagnostics import (
    RULES,
    Diagnostic,
    Rule,
    Severity,
    rule_index,
)
from repro.analysis.expressibility import (
    P4_CLAIMING_MODULES,
    scan_file,
    scan_module,
    scan_package_dir,
    scan_source,
)
from repro.analysis.kernels import (
    audit_spec_fields,
    check_generated_kernels,
    kernel_table_diagnostics,
)
from repro.analysis.p4source import check_p4_source
from repro.analysis.report import format_json, format_text, sort_diagnostics

__all__ = [
    "RULES",
    "Diagnostic",
    "Rule",
    "Severity",
    "rule_index",
    "scan_source",
    "scan_file",
    "scan_module",
    "scan_package_dir",
    "P4_CLAIMING_MODULES",
    "OverflowBound",
    "analyze_overflow",
    "safe_unit_shift",
    "check_overflow",
    "required_register_widths",
    "check_p4_source",
    "check_bindings",
    "check_ewma",
    "DeploymentSpec",
    "load_deployment",
    "analyze_deployment",
    "analyze_target",
    "format_text",
    "format_json",
    "sort_diagnostics",
    "audit_spec_fields",
    "check_generated_kernels",
    "kernel_table_diagnostics",
]


def _defines_the_kernels(directory: str) -> bool:
    """Whether a directory is the package holding the generated kernels."""
    return os.path.isfile(os.path.join(directory, "stat4", "compiled.py"))


def analyze_target(
    target: str, max_value: Optional[int] = None
) -> Tuple[List[Diagnostic], bool]:
    """Analyze one CLI target; returns ``(diagnostics, resolved)``.

    ``resolved`` is False when the target could not be interpreted at all
    (missing file, unimportable module) — the CLI turns that into exit
    code 2 rather than a clean report.

    A directory that defines the kernels (``stat4/compiled.py``) also gets
    the kernel-table audit (ST504, ST510).
    """
    if target.endswith(".json"):
        if not os.path.exists(target):
            return [], False
        spec, diags = load_deployment(target)
        if spec is not None:
            diags = diags + analyze_deployment(spec)
        return diags, True
    if target.endswith(".p4"):
        if not os.path.exists(target):
            return [], False
        with open(target, "r", encoding="utf-8") as handle:
            source = handle.read()
        return check_p4_source(source, max_value=max_value, file=target), True
    if target.endswith(".py"):
        if not os.path.exists(target):
            return [], False
        return scan_file(target), True
    if os.path.isdir(target):
        diags = scan_package_dir(target)
        if _defines_the_kernels(target):
            diags = diags + kernel_table_diagnostics()
        return diags, True
    try:
        return scan_module(target), True
    except (ImportError, ValueError, OSError):
        return [], False
