"""The analyzer's rule registry and structured diagnostics.

Every check the analyzer can perform is a :class:`Rule` with a stable code
(``ST4xx``), a default severity, and a note on which part of the paper it
guards.  Every finding is a :class:`Diagnostic` — code, severity, message,
file/line, plus a free-form context mapping (register name, construct,
binding index…) — with a stable dict form for ``repro lint --json``.

Code blocks:

- ``ST40x`` — P4 expressibility (the Sec. 2 division-free arithmetic);
- ``ST41x`` — register widths and overflow horizons (Sec. 2 units trick);
- ``ST42x`` — binding-table / deployment consistency (Sec. 3 tables);
- ``ST43x`` — malformed deployment descriptions;
- ``ST504``/``ST510`` — the kernel table: the ``TrackSpec`` projection
  that picks a kernel, and the generated kernels' op set
  (:mod:`repro.analysis.kernels`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional


class Severity(enum.Enum):
    """How bad a diagnostic is; ``--strict`` fails on any ERROR."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Rule:
    """One registered analyzer rule.

    Attributes:
        code: stable identifier (``ST401``…); never renumbered.
        severity: default severity of findings from this rule.
        title: short human name.
        guards: the paper claim this rule protects.
    """

    code: str
    severity: Severity
    title: str
    guards: str


def _rule(code: str, severity: Severity, title: str, guards: str) -> Rule:
    return Rule(code=code, severity=severity, title=title, guards=guards)


#: The full rule index, keyed by code.  docs/P4_MAPPING.md mirrors this
#: table; tests assert the two stay in sync.
RULES: Dict[str, Rule] = {
    r.code: r
    for r in (
        # -- expressibility (ST40x) ----------------------------------------
        _rule("ST401", Severity.ERROR, "inexpressible arithmetic",
              "Sec. 2: division/modulo/exponentiation have no P4 ALU form"),
        _rule("ST402", Severity.ERROR, "float literal",
              "Sec. 2: all statistics are integer-only"),
        _rule("ST403", Severity.ERROR, "forbidden library call",
              "Sec. 2/Fig. 2: math/numpy helpers are not switch primitives"),
        _rule("ST404", Severity.ERROR, "forbidden builtin call",
              "Sec. 2: float()/divmod()/pow() have no P4 counterpart"),
        _rule("ST405", Severity.ERROR, "data-dependent loop",
              "Fig. 2/3: only compile-time-bounded iteration unrolls"),
        _rule("ST406", Severity.INFO, "suppressed construct",
              "documented exceptions carry a '# p4-ok' pragma"),
        # -- width / overflow dataflow (ST41x) ------------------------------
        _rule("ST410", Severity.ERROR, "value exceeds cell width",
              "Sec. 2: a value of interest must fit its counter cell"),
        _rule("ST411", Severity.ERROR, "overflow horizon too short",
              "Sec. 2: a measure register wraps before one full distribution"),
        _rule("ST412", Severity.WARNING, "register headroom tight",
              "Sec. 2: less than 2x headroom over a full distribution"),
        _rule("ST413", Severity.INFO, "unit coarsening required",
              "Sec. 2: counting in 2^k units restores overflow safety"),
        _rule("ST414", Severity.ERROR, "no safe unit shift",
              "Sec. 2: no coarsening makes this geometry overflow-safe"),
        _rule("ST415", Severity.ERROR, "declared width below required",
              "Sec. 3: emitted register narrower than the dataflow requires"),
        _rule("ST416", Severity.WARNING, "declared width disagrees with config",
              "Sec. 3: P4 typedef widths drifted from the Stat4Config"),
        _rule("ST417", Severity.ERROR, "inexpressible operator in P4 source",
              "Sec. 2: '/' or '%' in emitted P4 would not compile to Tofino"),
        # -- binding tables (ST42x) -----------------------------------------
        _rule("ST420", Severity.ERROR, "binding stage out of range",
              "Sec. 3: a binding names a stage the config never compiled"),
        _rule("ST421", Severity.ERROR, "duplicate distribution slot",
              "Sec. 3/Fig. 4: two bindings feeding one slot corrupt it"),
        _rule("ST422", Severity.ERROR, "dangling distribution id",
              "Sec. 3: slot outside [0, STAT_COUNTER_NUM)"),
        _rule("ST423", Severity.ERROR, "percentile target out of range",
              "Sec. 2/Fig. 3: tracked percentiles live strictly in (0, 100)"),
        _rule("ST424", Severity.ERROR, "EWMA shift incompatible with width",
              "EWMA ablation: alpha shift must leave error bits to fold in"),
        _rule("ST425", Severity.ERROR, "sparse/dense slot mismatch",
              "Sec. 5: hashed storage is a compile-time slot property"),
        _rule("ST426", Severity.ERROR, "empty acceptance window",
              "Sec. 5: a bimodal filter [lo, hi) must admit some value"),
        _rule("ST427", Severity.ERROR, "time series without interval",
              "Sec. 4: windowed tracking needs a positive interval"),
        _rule("ST428", Severity.WARNING, "window inconsistent with geometry",
              "Sec. 4: windows use a prefix of STAT_COUNTER_SIZE cells"),
        # -- deployment descriptions (ST43x) --------------------------------
        _rule("ST430", Severity.ERROR, "invalid deployment description",
              "Sec. 3: the config macros themselves must be well-formed"),
        # -- the kernel table (ST504, ST510) ---------------------------------
        _rule("ST504", Severity.ERROR, "spec field outside shape projection",
              "kernel table: every TrackSpec field is a shape field or has "
              "a stated reason to be left out"),
        _rule("ST510", Severity.ERROR, "generated kernel outside op set",
              "generated kernels: source must stay inside the "
              "restricted operation set (adds, shifts, compares, constant "
              "multiplies)"),
    )
}


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding.

    Attributes:
        code: the rule code (key into :data:`RULES`).
        message: human-readable description of this specific finding.
        severity: resolved severity (defaults to the rule's).
        file: source/config file, when the finding is anchored to one.
        line: 1-based line number, when known.
        context: structured extras (``register``, ``construct``,
            ``binding`` index…) preserved verbatim in JSON output.
    """

    code: str
    message: str
    severity: Severity
    file: Optional[str] = None
    line: Optional[int] = None
    context: Mapping[str, object] = field(default_factory=dict)

    def __str__(self) -> str:
        where = ""
        if self.file:
            where = f"{self.file}:{self.line}: " if self.line else f"{self.file}: "
        return f"{where}{self.code} {self.severity.value}: {self.message}"

    def to_dict(self) -> Dict[str, object]:
        """Stable dict form for ``--json`` output."""
        return {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "file": self.file,
            "line": self.line,
            "context": dict(self.context),
        }


def make(
    code: str,
    message: str,
    *,
    file: Optional[str] = None,
    line: Optional[int] = None,
    severity: Optional[Severity] = None,
    **context: object,
) -> Diagnostic:
    """Build a diagnostic for a registered rule (severity defaults to it)."""
    rule = RULES[code]
    return Diagnostic(
        code=code,
        message=message,
        severity=severity if severity is not None else rule.severity,
        file=file,
        line=line,
        context=context,
    )


def rule_index() -> str:
    """The documented rule index, one line per code."""
    lines = ["code   severity  rule"]
    for code in sorted(RULES):
        rule = RULES[code]
        lines.append(
            f"{rule.code}  {rule.severity.value:<8}  {rule.title} — {rule.guards}"
        )
    return "\n".join(lines)
