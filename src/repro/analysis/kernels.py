# p4-ok-file — host-side static analysis of the batch kernels; the
# data-plane code they mirror is linted separately.
"""Kernel-table audit: rules ST504 and ST510.

The batch engine runs one kernel per :class:`KernelShape`, the projection
of a :class:`~repro.stat4.distributions.TrackSpec` onto the fields that
change its per-packet update (``kind`` × tracker × k·σ × percentile
alert).  That projection picks the kernel
(:func:`~repro.stat4.compiled.kernel_of`) and keys the generated kernels
(:func:`~repro.stat4.compiled.compiled_kernel`), so two checks keep it
honest:

- **ST504** (:func:`audit_spec_fields`): every ``TrackSpec`` field is
  either a shape field or listed with the reason it cannot change which
  kernel runs.  A new spec knob fails the audit until someone classifies
  it, so it cannot silently fall outside the projection.
- **ST510** (:func:`check_generated_kernels`): the source generated for
  each shape stays inside the restricted operation set — adds, shifts,
  masks, compares, constant multiplies and the two sanctioned arithmetic
  helpers — that the templates claim to compile from.

Both audit the library itself, so ``repro lint`` runs them on a walk of
the package directory that defines the kernels.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.analysis.diagnostics import Diagnostic, make
from repro.stat4.distributions import TrackSpec

__all__ = [
    "SHAPE_FIELDS",
    "SHAPE_IRRELEVANT_FIELDS",
    "audit_spec_fields",
    "check_generated_kernels",
    "kernel_table_diagnostics",
]


# --------------------------------------------------------------------------
# The TrackSpec projection (ST504)
# --------------------------------------------------------------------------

#: TrackSpec fields the shape projection consumes — the only fields that
#: change which kernel runs a spec.
SHAPE_FIELDS = ("kind", "percent", "k_sigma", "percentile_alert")

#: Every other TrackSpec field, with the reason it cannot change which
#: kernel runs.  A field in neither mapping fails :func:`audit_spec_fields`
#: (ST504) until it is classified here.
SHAPE_IRRELEVANT_FIELDS: Mapping[str, str] = {
    "dist": "slot routing: selects the registers a kernel updates, not the kernel",
    "extract": "value production, applied per packet before any kernel runs",
    "interval": "time-series cadence: a parameter of the one time-series kernel",
    "alert": "digest name; whether a k·σ digest can fire is the k_sigma field",
    "window": "circular-window length: a parameter of the one time-series kernel",
    "min_samples": "alert-gate threshold: a constant baked into the generated "
    "loop (KernelConstants), not a shape",
    "margin": "outlier-test slack: a KernelConstants value, not a shape",
    "cooldown": "cooldown length: a KernelConstants value, not a shape",
    "accept_lo": "value filter applied during extraction, before any kernel",
    "accept_hi": "value filter applied during extraction, before any kernel",
    "generation": "rebind marker: a KernelConstants value, so a rebound slot "
    "gets a fresh kernel; _state_for resets the slot",
}


def audit_spec_fields(
    field_names: Optional[Sequence[str]] = None,
) -> List[Diagnostic]:
    """ST504 audit: every TrackSpec field is shape-relevant or justified.

    ``field_names`` defaults to the live ``TrackSpec``; tests pass a
    modified list to prove an unclassified or stale field fails.
    """
    if field_names is None:
        field_names = [f.name for f in dataclasses.fields(TrackSpec)]
    diagnostics: List[Diagnostic] = []
    known = set(SHAPE_FIELDS) | set(SHAPE_IRRELEVANT_FIELDS)
    for name in field_names:
        if name not in known:
            diagnostics.append(
                make(
                    "ST504",
                    f"TrackSpec field {name!r} is not classified by the "
                    "kernel-shape projection; add it to SHAPE_FIELDS "
                    "or justify it in SHAPE_IRRELEVANT_FIELDS",
                    field=name,
                )
            )
    for name in sorted(known - set(field_names)):
        diagnostics.append(
            make(
                "ST504",
                f"shape projection classifies {name!r}, which is no longer "
                "a TrackSpec field; remove the stale entry",
                field=name,
                stale=True,
            )
        )
    return diagnostics


# --------------------------------------------------------------------------
# Generated kernels (ST510)
# --------------------------------------------------------------------------

#: Everything a generated kernel may contain.  The arithmetic mirrors the
#: line ST401 draws for hand-written detector code — adds, subtracts,
#: shifts, masks, compares, plus the host-side telescoped multiplies
#: ``library.py`` itself uses — and the statement forms are the loop/branch
#: skeleton of the templates.  Division, modulo, exponentiation, imports,
#: comprehensions, try/with, and every other construct are absent from
#: this set and therefore ST510 violations.
_GENERATED_ALLOWED = frozenset(
    {
        ast.Module, ast.FunctionDef, ast.arguments, ast.arg,
        ast.Assign, ast.AugAssign, ast.Expr, ast.Return, ast.If, ast.For,
        ast.While, ast.Break, ast.Continue, ast.Pass, ast.Raise,
        ast.Name, ast.Constant, ast.Tuple, ast.List, ast.Subscript,
        ast.Slice, ast.Compare, ast.BoolOp, ast.BinOp, ast.UnaryOp,
        ast.Call, ast.Attribute, ast.keyword, ast.Load, ast.Store,
        ast.And, ast.Or, ast.USub, ast.Not, ast.Invert,
        ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE,
        ast.Is, ast.IsNot,
        ast.Add, ast.Sub, ast.Mult, ast.LShift, ast.RShift,
        ast.BitAnd, ast.BitOr,
    }
)

#: Free functions a generated kernel may call: builtins with direct
#: lowering plus the sanctioned arithmetic helpers (profile-routed
#: multiply, MSB-search square root, the moments' squaring routine).
_GENERATED_NAME_CALLS = frozenset(
    {"range", "len", "checked_multiply", "approx_isqrt", "square", "ValueError"}
)

#: Methods a generated kernel may call on locals (the digest buffer).
_GENERATED_METHODS = frozenset({"append"})


def _generated_source_violations(tree: ast.AST) -> List[Tuple[int, str]]:
    """Every (line, reason) where a generated source leaves the op set."""
    violations: List[Tuple[int, str]] = []
    for node in ast.walk(tree):
        lineno = getattr(node, "lineno", 0)
        if type(node) not in _GENERATED_ALLOWED:
            violations.append(
                (lineno, f"{type(node).__name__} has no restricted-op-set form")
            )
            continue
        if isinstance(node, ast.FunctionDef) and node.decorator_list:
            violations.append((lineno, "decorators are outside the op set"))
        elif isinstance(node, ast.Attribute):
            if not isinstance(node.ctx, ast.Load):
                violations.append((lineno, "attribute store"))
            elif node.attr not in _GENERATED_METHODS:
                violations.append(
                    (lineno, f"attribute .{node.attr} not whitelisted")
                )
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                if func.id not in _GENERATED_NAME_CALLS:
                    violations.append(
                        (lineno, f"call to {func.id!r} not whitelisted")
                    )
            elif not isinstance(func, ast.Attribute):
                violations.append((lineno, "computed call target"))
    return violations


def check_generated_kernels() -> List[Diagnostic]:
    """ST510: audit each generated per-packet kernel against the op set.

    Walks one reference source per shape the batch engine dispatches to a
    generated kernel (:func:`~repro.stat4.compiled.reference_sources`) and
    rejects any construct outside :data:`_GENERATED_ALLOWED`.
    """
    from repro.stat4.compiled import reference_sources

    diagnostics: List[Diagnostic] = []
    for shape_key, source in sorted(reference_sources().items()):
        virtual_file = f"<generated:{shape_key}>"
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            diagnostics.append(
                make(
                    "ST510",
                    f"generated kernel {shape_key!r} does not parse: {exc}",
                    file=virtual_file,
                    shape=shape_key,
                )
            )
            continue
        for lineno, reason in _generated_source_violations(tree):
            diagnostics.append(
                make(
                    "ST510",
                    f"generated kernel {shape_key!r} leaves the restricted "
                    f"op set: {reason}",
                    file=virtual_file,
                    line=lineno,
                    shape=shape_key,
                    reason=reason,
                )
            )
    return diagnostics


def kernel_table_diagnostics() -> List[Diagnostic]:
    """The kernel-table gate: the TrackSpec field audit and the
    generated-kernel audit."""
    return audit_spec_fields() + check_generated_kernels()
