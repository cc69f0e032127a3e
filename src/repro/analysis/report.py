"""Rendering diagnostics: the text and ``--json`` forms of ``repro lint``.

Output is deterministic — diagnostics sort by (file, line, code, message)
— so a golden-output test can pin the JSON for a known-bad deployment and
CI diffs stay readable.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence, Tuple

from repro.analysis.diagnostics import Diagnostic, Severity

__all__ = ["sort_diagnostics", "severity_counts", "format_text", "format_json"]


def sort_diagnostics(diagnostics: Sequence[Diagnostic]) -> List[Diagnostic]:
    """Deterministic presentation order."""
    return sorted(
        diagnostics,
        key=lambda d: (d.file or "", d.line or 0, d.code, d.message),
    )


def severity_counts(diagnostics: Sequence[Diagnostic]) -> Dict[str, int]:
    counts = {Severity.ERROR: 0, Severity.WARNING: 0, Severity.INFO: 0}
    for diag in diagnostics:
        counts[diag.severity] += 1
    return {severity.value: count for severity, count in counts.items()}


def format_text(
    targets: Sequence[Tuple[str, Sequence[Diagnostic]]]
) -> str:
    """Human-readable report over ``(target, diagnostics)`` pairs."""
    lines: List[str] = []
    combined: List[Diagnostic] = []
    for target, diagnostics in targets:
        combined.extend(diagnostics)
        if not diagnostics:
            lines.append(f"{target}: clean")
            continue
        for diag in sort_diagnostics(diagnostics):
            lines.append(str(diag))
    counts = severity_counts(combined)
    lines.append(
        f"{counts['error']} error(s), {counts['warning']} warning(s), "
        f"{counts['info']} info(s)"
    )
    return "\n".join(lines)


def format_json(targets: Sequence[Tuple[str, Sequence[Diagnostic]]]) -> str:
    """Stable JSON report (the golden-tested form)."""
    combined: List[Diagnostic] = []
    rendered = []
    for target, diagnostics in targets:
        combined.extend(diagnostics)
        rendered.append(
            {
                "target": target,
                "diagnostics": [
                    d.to_dict() for d in sort_diagnostics(diagnostics)
                ],
                "summary": severity_counts(diagnostics),
            }
        )
    payload: Dict[str, object] = {
        "version": 1,
        "targets": rendered,
        "summary": severity_counts(combined),
    }
    return json.dumps(payload, indent=2, sort_keys=False)
