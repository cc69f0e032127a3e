# p4-ok-file — host-side static analysis of the parallel ingest layer;
# the data-plane code it reasons about is linted separately.
"""Concurrency-exactness pass: the ST5xx rule family.

Chunked fan-out of dense frequency runs is bit-exact with the scalar loop
(the argument is in the :mod:`repro.stat4.parallel` docstring).  Which
kernel shapes may fan out is not written down by hand: this pass derives
it from the code.

Kernel classification (the taxonomy)
------------------------------------

For every kernel shape — :class:`KernelShape`, the projection of a
:class:`~repro.stat4.distributions.TrackSpec` onto the fields that change
update-order semantics (``kind`` × tracker × k·σ × percentile-alert) —
the pass walks the AST of the scalar update functions in
:mod:`repro.stat4.library`, prunes branches that are statically dead
under the shape (``spec.k_sigma <= 0``, ``state.tracker is not None``,
``spec.percentile_alert``), and collects an :class:`Effect` set:

- **commutative-monoid updates** (cell read-modify-write, the telescoped
  moment sums, drop counters, idempotent measure mirrors): per-chunk
  results merge exactly by addition, in any order;
- **replay streams** (the percentile tracker walk; the k·σ gate reads,
  cooldown stamps and digest writes): order-dependent, but the merge
  reconcile reconstructs them chunk by chunk — it adopts a speculation
  proven to start from the serial entry state, folds a chunk whose
  streams are provably silent, and replays any other chunk serially;
- **the register mirror** (the per-packet ``reg_pos`` read feeding
  percentile-move digests): cross-chunk, but part of the slot state the
  reconcile snapshots and replays, as long as a tracker walk maintains
  the register;
- **order-breaking effects** (circular-window cursors, hashed-slot
  eviction): no per-chunk summary reconstructs them.

The classification is two-valued (:func:`classify`):

- any order-breaking effect, or a ``reg_pos`` read with no tracker walk
  to maintain the register → **order-dependent** (serial);
- anything else → **mergeable**: fan-out mode ``"merge"``, the one chunk
  loop of the merge engine in :mod:`repro.stat4.parallel`.

:func:`derive_eligibility_table` exports the result as the
machine-readable table ``ParallelBatchEngine._fan_out_mode`` consumes;
it is the only fan-out table there is.

Detector backends declare their kernels with a ``# parallel-mode:`` pragma
(:func:`check_kernel_file`); a declared mode the dataflow cannot prove is
ST502 — the gate that lets backends self-declare parallel eligibility
safely (see ``docs/ANALYSIS.md``).

Shared-state race lint
----------------------

:func:`check_shared_state_source` covers the other half of the parallel
layer's safety story: module-level mutable registries (the executor
cache, the live-segment registry) mutated from *worker-reachable* context
(functions submitted to pools, signal handlers) without holding their
lock are ST503; ``multiprocessing.shared_memory`` segments created
outside :meth:`SharedColumnSegment.pack` bypass the crash sweep and are
ST505.  A trailing ``# race-ok`` comment downgrades a finding to ST506
(the documented-exception pragma, mirroring ``# p4-ok``).  At-fork child
callbacks are exempt by rule: a freshly forked child is single-threaded.

The static verdicts are witnessed at runtime by
:mod:`repro.analysis.tracer` (sanitizer-style) in the test suite.
"""

from __future__ import annotations

import ast
import dataclasses
import enum
import re
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import Diagnostic, make
from repro.stat4.distributions import (
    DistributionKind,
    KernelShape,
    TrackSpec,
    enumerate_shapes,
    shape_key_of_spec,
)

__all__ = [
    "Classification",
    "Effect",
    "KernelShape",
    "SHAPE_FIELDS",
    "SHAPE_IRRELEVANT_FIELDS",
    "audit_spec_fields",
    "check_kernel_file",
    "check_shared_state_file",
    "check_shared_state_source",
    "classification_report",
    "classify",
    "derive_eligibility_table",
    "enumerate_shapes",
    "fan_out_mode_for",
    "kernel_effects",
    "kernel_table_diagnostics",
    "shape_key_of_spec",
]

_RACE_PRAGMA = "# race-ok"
_WORKER_PRAGMA = "# worker-context"
_KERNEL_PRAGMA = re.compile(r"#\s*parallel-mode:\s*(\S+)")

#: Declared kernel modes a ``# parallel-mode:`` pragma may claim.
KERNEL_MODES = ("merge", "serial")


# --------------------------------------------------------------------------
# Effects and classification
# --------------------------------------------------------------------------


class Effect(enum.Enum):
    """What one kernel execution does to shared per-slot state."""

    #: Dense cell read-modify-write: increments wrap through the register
    #: mask, which composes modularly — per-value counts add across chunks.
    CELL_MONOID = "cell_monoid"
    #: The telescoped moment identity (N/Xsum/Xsumsq via
    #: ``observe_frequency``/``observe_frequencies``/``add_value``): any
    #: grouping of occurrences folds to the same sums.
    MOMENT_MONOID = "moment_monoid"
    #: ``values_dropped`` — a plain commutative count.
    DROP_COUNT = "drop_count"
    #: Idempotent mirror of derived measures into registers; a pure
    #: function of the monoid state, safe to coalesce to one final write.
    MEASURE_SYNC = "measure_sync"
    #: The percentile tracker steps once per packet — order-dependent, but
    #: it never feeds the cells or moments, so a chunk's walk resumes from
    #: the state the previous chunk left.
    TRACKER_WALK = "tracker_walk"
    #: Per-packet read of the live moments / cooldown state feeding an
    #: alert decision — replayable per packet against the merged state.
    ALERT_GATE_READ = "alert_gate_read"
    #: Cooldown stamps and alert counters — state of the alert replay.
    ALERT_STATE = "alert_state"
    #: Digest-sink emission: an order-dependent output stream.
    DIGEST_WRITE = "digest_write"
    #: Per-packet ``reg_pos`` read whose value feeds percentile-move
    #: digests: a cross-chunk register read no sub-tally reconstructs —
    #: only the reconcile, which carries the register in the slot state,
    #: can.
    PERCENTILE_REGISTER_READ = "percentile_register_read"
    #: Interval cursor / circular-window mutation: each update depends on
    #: the cursor the previous one left.
    WINDOW_STATE = "window_state"
    #: Hashed-slot probe/eviction (and ``remove_value``): which key is
    #: resident depends on arrival order.
    EVICTION = "eviction"
    #: A state mutation the pass does not recognize — conservatively
    #: order-dependent (backends should stick to the effect vocabulary).
    UNKNOWN = "unknown"


class Classification(enum.Enum):
    """The two verdicts of the taxonomy."""

    MERGEABLE = "mergeable"
    ORDER_DEPENDENT = "order-dependent"


_TRACKER_STREAM = frozenset({Effect.TRACKER_WALK})
#: The register mirror: replayable, but only anchored to a tracker walk.
_REGISTER_MIRROR = frozenset({Effect.PERCENTILE_REGISTER_READ})
_HARD_ORDER_BREAKING = frozenset(
    {
        Effect.WINDOW_STATE,
        Effect.EVICTION,
        Effect.UNKNOWN,
    }
)


def classify(effects: frozenset) -> Classification:
    """Apply the taxonomy rules to one kernel's effect set."""
    if effects & _HARD_ORDER_BREAKING:
        return Classification.ORDER_DEPENDENT
    if effects & _REGISTER_MIRROR and not effects & _TRACKER_STREAM:
        # The reg_pos mirror is maintained by the tracker walk; with no
        # walk to anchor it, the read stays order-breaking.
        return Classification.ORDER_DEPENDENT
    return Classification.MERGEABLE


def _mode_of(effects: frozenset) -> Optional[str]:
    """The fan-out mode a classified effect set admits (None = serial)."""
    if classify(effects) is Classification.MERGEABLE:
        return "merge"
    return None


# --------------------------------------------------------------------------
# Kernel shapes (the TrackSpec projection)
# --------------------------------------------------------------------------

#: TrackSpec fields the shape projection consumes — the only fields that
#: change which code paths a kernel executes.
SHAPE_FIELDS = ("kind", "percent", "k_sigma", "percentile_alert")

#: Every other TrackSpec field, with the reason it cannot change the
#: fan-out verdict.  A field in neither mapping fails :func:`audit_spec_fields`
#: (ST504) until a human classifies it — the guard against a new spec knob
#: silently widening a fan-out mode past its exactness proof.
SHAPE_IRRELEVANT_FIELDS: Mapping[str, str] = {
    "dist": "slot routing only; never feeds update-order semantics",
    "extract": "value production happens per packet, before the kernel runs",
    "interval": "time-series cadence; every time-series shape is already serial",
    "alert": "digest stream name; digest presence is governed by k_sigma",
    "window": "circular-window length; every time-series shape is already serial",
    "min_samples": "alert-gate threshold, replayed per packet by the alert replay",
    "margin": "outlier-test slack, replayed per packet by the alert replay",
    "cooldown": "cooldown length, replayed per packet (chunk folding uses it "
    "only as a conservative bound)",
    "accept_lo": "value filter applied during extraction, before the kernel",
    "accept_hi": "value filter applied during extraction, before the kernel",
    "generation": "slot-reset marker; _state_for handles resets in apply order",
}


def audit_spec_fields(
    field_names: Optional[Sequence[str]] = None,
) -> List[Diagnostic]:
    """ST504 audit: every TrackSpec field is shape-relevant or justified.

    This is the durable form of the ``_fan_out_mode`` asymmetry fix: the
    hand table read ``spec.percentile_alert`` on one branch only, which
    was latent (validation ties it to ``percent``) but unchecked.  The
    shape projection reads every shape field symmetrically, and any field
    added to TrackSpec fails this audit until classified here.
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
                    "concurrency shape projection; add it to SHAPE_FIELDS "
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
# The dataflow pass over the kernel ASTs
# --------------------------------------------------------------------------

#: Call-method vocabulary → effect.  Backends registering kernels for
#: classification express state updates through these names (documented in
#: docs/ANALYSIS.md); anything else mutating non-local state is UNKNOWN.
_METHOD_EFFECTS: Mapping[str, Effect] = {
    "observe_frequency": Effect.MOMENT_MONOID,
    "observe_frequencies": Effect.MOMENT_MONOID,
    "add_value": Effect.MOMENT_MONOID,
    "replace_value": Effect.WINDOW_STATE,
    "remove_value": Effect.EVICTION,
    "increment": Effect.EVICTION,
    "observe": Effect.TRACKER_WALK,
    "tick": Effect.TRACKER_WALK,
    "emit_digest": Effect.DIGEST_WRITE,
    "is_outlier": Effect.ALERT_GATE_READ,
    "cooldown_active": Effect.ALERT_GATE_READ,
    "scaled": Effect.ALERT_GATE_READ,
}

#: Attribute-assignment vocabulary → effect.
_ASSIGN_EFFECTS: Mapping[str, Effect] = {
    "values_dropped": Effect.DROP_COUNT,
    "last_alert": Effect.ALERT_STATE,
    "last_percentile_alert": Effect.ALERT_STATE,
    "alerts_emitted": Effect.ALERT_STATE,
    "interval_start": Effect.WINDOW_STATE,
    "current_count": Effect.WINDOW_STATE,
    "window_index": Effect.WINDOW_STATE,
    "window_filled": Effect.WINDOW_STATE,
    "intervals_closed": Effect.WINDOW_STATE,
}

#: Attribute-read vocabulary → effect (reads that make a decision
#: order-sensitive; plain structural reads carry no effect).
_READ_EFFECTS: Mapping[str, Effect] = {
    "count": Effect.ALERT_GATE_READ,
    "xsum": Effect.ALERT_GATE_READ,
    "xsumsq": Effect.ALERT_GATE_READ,
    "variance_nx": Effect.ALERT_GATE_READ,
    "stddev_nx": Effect.ALERT_GATE_READ,
    "last_alert": Effect.ALERT_GATE_READ,
    "last_percentile_alert": Effect.ALERT_GATE_READ,
    "interval_start": Effect.WINDOW_STATE,
    "current_count": Effect.WINDOW_STATE,
    "window_index": Effect.WINDOW_STATE,
    "window_filled": Effect.WINDOW_STATE,
}

#: Moment reads only count when the owner chain mentions the stats object;
#: e.g. ``len(tally)``'s ``count`` name never appears as an attribute, but
#: guard anyway so a backend's unrelated ``.count`` read is not mischarged.
_STATS_GUARDED_READS = frozenset(
    {"count", "xsum", "xsumsq", "variance_nx", "stddev_nx"}
)


@dataclass(frozen=True)
class _Facts:
    """Shape facts the branch pruner evaluates tests against.

    ``None`` means unknown (pragma-declared backend kernels, where no spec
    shape is available): both branches are walked.
    """

    tracked: Optional[bool] = None
    alerting: Optional[bool] = None
    percentile_alert: Optional[bool] = None

    @classmethod
    def of_shape(cls, shape: KernelShape) -> "_Facts":
        return cls(
            tracked=shape.tracked,
            alerting=shape.alerting,
            percentile_alert=shape.percentile_alert,
        )


def _attr_chain(node: ast.AST) -> List[str]:
    """``state.stats.count`` → ``["state", "stats", "count"]`` (best effort)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return list(reversed(parts))


def _is_none(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _is_zero(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value == 0


class _EffectCollector:
    """Walks kernel functions collecting effects, pruning dead branches.

    ``functions`` maps simple names to their defs — the Stat4 methods for
    library shapes, or a standalone kernel file's functions.  Calls into
    the map recurse (cycle-safe); everything else is judged by the effect
    vocabulary above.
    """

    def __init__(
        self, functions: Mapping[str, ast.FunctionDef], facts: _Facts
    ):
        self.functions = functions
        self.facts = facts

    # -- entry ------------------------------------------------------------

    def effects_of(self, name: str) -> frozenset:
        return frozenset(self._function(name, visited=frozenset()))

    def _function(self, name: str, visited: frozenset) -> Set[Effect]:
        if name in visited:
            return set()
        func = self.functions.get(name)
        if func is None:
            return set()
        frame = _Frame(self, visited | {name})
        frame.block(func.body)
        return frame.effects

    # -- branch pruning ---------------------------------------------------

    def eval_test(self, node: ast.expr) -> Optional[bool]:
        """Statically evaluate a test under the shape facts (None = unknown)."""
        if isinstance(node, ast.BoolOp):
            values = [self.eval_test(v) for v in node.values]
            if isinstance(node.op, ast.And):
                if any(v is False for v in values):
                    return False
                if all(v is True for v in values):
                    return True
                return None
            if any(v is True for v in values):
                return True
            if all(v is False for v in values):
                return False
            return None
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            inner = self.eval_test(node.operand)
            return None if inner is None else not inner
        if isinstance(node, ast.Compare) and len(node.ops) == 1:
            tail = _attr_chain(node.left)[-1:] or [""]
            op = node.ops[0]
            right = node.comparators[0]
            if tail == ["k_sigma"] and _is_zero(right):
                if isinstance(op, (ast.LtE, ast.Lt)):
                    return _negate(self.facts.alerting)
                if isinstance(op, ast.Gt):
                    return self.facts.alerting
            if tail in (["percent"], ["tracker"]) and _is_none(right):
                if isinstance(op, ast.Is):
                    return _negate(self.facts.tracked)
                if isinstance(op, ast.IsNot):
                    return self.facts.tracked
            return None
        if isinstance(node, ast.Attribute):
            tail = node.attr
            if tail == "percentile_alert":
                return self.facts.percentile_alert
            if tail == "tracker":
                return self.facts.tracked
        return None


def _negate(value: Optional[bool]) -> Optional[bool]:
    return None if value is None else not value


class _Frame:
    """Per-function walk state: effects, deferred reads, termination."""

    def __init__(self, collector: _EffectCollector, visited: frozenset):
        self.c = collector
        self.visited = visited
        self.effects: Set[Effect] = set()
        #: local name → effect of a register read whose only consumer may
        #: be a pruned decision (the ``reg_pos``-feeds-percentile-digests
        #: pattern); materialized only if a test referencing the name
        #: guards a branch with effects.
        self.deferred: Dict[str, Effect] = {}

    # -- statements -------------------------------------------------------

    def block(self, stmts: Sequence[ast.stmt]) -> bool:
        """Walk a statement list; returns True if it always terminates."""
        for stmt in stmts:
            if self.statement(stmt):
                return True
        return False

    def statement(self, stmt: ast.stmt) -> bool:
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.expr(stmt.value)
            return True
        if isinstance(stmt, ast.Raise):
            return True
        if isinstance(stmt, ast.If):
            return self._if(stmt)
        if isinstance(stmt, ast.Assign):
            return self._assign(stmt)
        if isinstance(stmt, ast.AugAssign):
            self._target(stmt.target)
            self.expr(stmt.value)
            return False
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._target(stmt.target)
                self.expr(stmt.value)
            return False
        if isinstance(stmt, ast.Expr):
            self.expr(stmt.value)
            return False
        if isinstance(stmt, (ast.For, ast.While)):
            head = stmt.iter if isinstance(stmt, ast.For) else stmt.test
            self.expr(head)
            self.block(stmt.body)
            self.block(stmt.orelse)
            return False
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                self.expr(item.context_expr)
            return self.block(stmt.body)
        if isinstance(stmt, ast.Try):
            self.block(stmt.body)
            for handler in stmt.handlers:
                self.block(handler.body)
            self.block(stmt.orelse)
            self.block(stmt.finalbody)
            return False
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._target(target)
            return False
        # assert, pass, nested defs, imports: no kernel effects.
        return False

    def _if(self, stmt: ast.If) -> bool:
        verdict = self.c.eval_test(stmt.test)
        if verdict is True:
            self.expr(stmt.test)
            return self.block(stmt.body)
        if verdict is False:
            self.expr(stmt.test)
            return self.block(stmt.orelse)
        # Unknown test.  If it references a deferred register read, the
        # read only matters when the guarded branches do something.
        test_names = {
            n.id for n in ast.walk(stmt.test) if isinstance(n, ast.Name)
        }
        gating = sorted(test_names & set(self.deferred))
        if gating:
            branch = _Frame(self.c, self.visited)
            branch.deferred = dict(self.deferred)
            term_body = branch.block(stmt.body)
            term_else = branch.block(stmt.orelse)
            if branch.effects:
                for name in gating:
                    self.effects.add(self.deferred.pop(name))
                self.effects |= branch.effects
                self.expr(stmt.test)
            return term_body and term_else
        self.expr(stmt.test)
        term_body = self.block(stmt.body)
        term_else = self.block(stmt.orelse) if stmt.orelse else False
        return term_body and term_else

    def _assign(self, stmt: ast.Assign) -> bool:
        value_effect = None
        if isinstance(stmt.value, ast.Call):
            value_effect = self._call_effect(stmt.value.func)
        if (
            value_effect is Effect.PERCENTILE_REGISTER_READ
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
        ):
            self.deferred[stmt.targets[0].id] = value_effect
            for arg in stmt.value.args:
                self.expr(arg)
            return False
        for target in stmt.targets:
            self._target(target)
        self.expr(stmt.value)
        return False

    def _target(self, target: ast.AST) -> None:
        if isinstance(target, ast.Attribute):
            chain = _attr_chain(target)
            effect = _ASSIGN_EFFECTS.get(target.attr)
            if effect is None and chain[:1] != [""] and len(chain) > 1:
                # Assignment to non-local attribute state the vocabulary
                # does not know: conservatively order-dependent.
                effect = Effect.UNKNOWN
            if effect is not None:
                self.effects.add(effect)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._target(element)
        elif isinstance(target, ast.Subscript):
            if isinstance(target.value, ast.Attribute):
                self.effects.add(
                    _ASSIGN_EFFECTS.get(target.value.attr, Effect.UNKNOWN)
                )
            self.expr(target.slice)
        # plain Name targets are locals: no effect.

    # -- expressions ------------------------------------------------------

    def expr(self, node: ast.AST, skip_reads: bool = False) -> None:
        if isinstance(node, ast.Call):
            effect = self._call_effect(node.func)
            if effect is not None:
                self.effects.add(effect)
            if isinstance(node.func, ast.Attribute):
                self.expr(node.func.value, skip_reads=True)
            # Arguments of an idempotent mirror write are derived-value
            # reads, not order-sensitive decisions.
            child_skip = skip_reads or effect is Effect.MEASURE_SYNC
            for arg in node.args:
                self.expr(arg, skip_reads=child_skip)
            for kw in node.keywords:
                self.expr(kw.value, skip_reads=child_skip)
            return
        if isinstance(node, ast.Attribute):
            if not skip_reads:
                effect = _READ_EFFECTS.get(node.attr)
                if effect is not None:
                    if node.attr in _STATS_GUARDED_READS:
                        if "stats" in _attr_chain(node):
                            self.effects.add(effect)
                    else:
                        self.effects.add(effect)
            self.expr(node.value, skip_reads=True)
            return
        for child in ast.iter_child_nodes(node):
            self.expr(child, skip_reads=skip_reads)

    def _call_effect(self, func: ast.AST) -> Optional[Effect]:
        if isinstance(func, ast.Name):
            if func.id in self.c.functions:
                self.effects |= self.c._function(func.id, self.visited)
            return None
        if not isinstance(func, ast.Attribute):
            return None
        attr = func.attr
        if attr in self.c.functions:
            # self._maybe_alert(...) / kernel helper methods: recurse.
            self.effects |= self.c._function(attr, self.visited)
            return None
        if attr in _METHOD_EFFECTS:
            return _METHOD_EFFECTS[attr]
        if attr in ("read", "write"):
            owner = _attr_chain(func)[-2:-1]
            owner_name = owner[0] if owner else ""
            if owner_name == "counters":
                return Effect.CELL_MONOID
            if owner_name == "reg_pos" and attr == "read":
                return Effect.PERCENTILE_REGISTER_READ
            if owner_name.startswith("reg_"):
                return Effect.MEASURE_SYNC
            return Effect.UNKNOWN
        return None


# --------------------------------------------------------------------------
# The library kernels: shapes → effects → eligibility table
# --------------------------------------------------------------------------

_ENTRY_FUNCTIONS: Mapping[DistributionKind, str] = {
    DistributionKind.FREQUENCY: "_update_frequency",
    DistributionKind.SPARSE_FREQUENCY: "_update_sparse",
    DistributionKind.TIME_SERIES: "_update_time_series",
}

_library_functions: Optional[Dict[str, ast.FunctionDef]] = None


def _collect_functions(tree: ast.AST) -> Dict[str, ast.FunctionDef]:
    """Every function/method def in a module AST, by simple name."""
    functions: Dict[str, ast.FunctionDef] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.setdefault(node.name, node)
    return functions


def _kernel_functions() -> Dict[str, ast.FunctionDef]:
    """The parsed update functions of :mod:`repro.stat4.library` (cached)."""
    global _library_functions
    if _library_functions is None:
        import inspect

        import repro.stat4.library as library

        source = inspect.getsource(library)
        _library_functions = _collect_functions(ast.parse(source))
    return _library_functions


def kernel_effects(shape: KernelShape) -> frozenset:
    """The effect set of one kernel shape's scalar update path."""
    entry = _ENTRY_FUNCTIONS[shape.kind]
    collector = _EffectCollector(_kernel_functions(), _Facts.of_shape(shape))
    return collector.effects_of(entry)


def fan_out_mode_for(shape: KernelShape) -> Optional[str]:
    """The fan-out mode the dataflow proves for a shape (None = serial)."""
    return _mode_of(kernel_effects(shape))


_table_cache: Optional[Dict[str, Optional[str]]] = None


def derive_eligibility_table() -> Dict[str, Optional[str]]:
    """The machine-readable eligibility table, derived from the ASTs.

    Keyed by :attr:`KernelShape.key`; values are ``"merge"`` (the shape
    fans out through the merge reconcile) or ``None`` (serial).
    :meth:`ParallelBatchEngine._fan_out_mode` consumes this table.
    """
    global _table_cache
    if _table_cache is None:
        _table_cache = {
            shape.key: fan_out_mode_for(shape) for shape in enumerate_shapes()
        }
    return dict(_table_cache)


def classification_report() -> List[Diagnostic]:
    """ST501 records: one INFO per kernel shape with its full verdict."""
    diagnostics: List[Diagnostic] = []
    for shape in enumerate_shapes():
        effects = kernel_effects(shape)
        verdict = classify(effects)
        mode = _mode_of(effects)
        diagnostics.append(
            make(
                "ST501",
                f"kernel shape {shape.key}: {verdict.value} "
                f"(fan-out {mode if mode is not None else 'serial'})",
                shape=shape.key,
                classification=verdict.value,
                mode=mode,
                effects=sorted(e.value for e in effects),
            )
        )
    return diagnostics


def kernel_table_diagnostics() -> List[Diagnostic]:
    """The full kernel-table gate: classifications, field audit, and the
    generated-kernel audit (op set + pragma drift)."""
    return classification_report() + audit_spec_fields() + check_generated_kernels()


# --------------------------------------------------------------------------
# Generated kernels (ST51x)
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
    """Audit the generated per-packet kernels (ST510/ST511).

    ST510 walks each reference source (one per shape the batch engine
    dispatches to a generated kernel) and rejects any construct outside
    :data:`_GENERATED_ALLOWED` — the same restricted operation set the
    templates claim to compile from.

    ST511 cross-checks each source's ``# parallel-mode:`` pragma against
    :func:`derive_eligibility_table` for its shape.  The effect-collector
    proof behind ST501/ST502 cannot apply here — generated kernels take
    and return their state as plain values and never touch engine state,
    so their effect sets are empty and the dataflow would vacuously prove
    ``merge`` for everything; instead the pragma must equal the mode the
    *shape* dataflow derives (``None`` → ``serial``), keeping fan-out
    derived from analysis rather than a hand table inside the code
    generator.
    """
    from repro.stat4.compiled import reference_sources

    table = derive_eligibility_table()
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
        match = _KERNEL_PRAGMA.search(source)
        declared = match.group(1) if match else None
        derived = table.get(shape_key)
        derived_name = derived if derived is not None else "serial"
        if declared is None:
            diagnostics.append(
                make(
                    "ST511",
                    f"generated kernel {shape_key!r} carries no "
                    "'# parallel-mode:' pragma",
                    file=virtual_file,
                    shape=shape_key,
                    derived=derived_name,
                )
            )
        elif declared != derived_name:
            diagnostics.append(
                make(
                    "ST511",
                    f"generated kernel {shape_key!r} declares parallel mode "
                    f"{declared!r} but the shape dataflow derives "
                    f"{derived_name!r}",
                    file=virtual_file,
                    shape=shape_key,
                    declared=declared,
                    derived=derived_name,
                )
            )
    return diagnostics


# --------------------------------------------------------------------------
# Pragma-declared kernels (detector backends)
# --------------------------------------------------------------------------


def _declared_kernels(
    tree: ast.AST, lines: Sequence[str]
) -> List[Tuple[ast.FunctionDef, str, int]]:
    """Functions carrying a ``# parallel-mode:`` pragma (def line or above)."""
    declared = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        for lineno in (node.lineno, node.lineno - 1):
            if 1 <= lineno <= len(lines):
                match = _KERNEL_PRAGMA.search(lines[lineno - 1])
                if match:
                    declared.append((node, match.group(1), node.lineno))
                    break
    return declared


def check_kernel_file(path: str) -> List[Diagnostic]:
    """Classify every pragma-declared kernel in a backend file.

    A function annotated ``# parallel-mode: <mode>`` claims its updates
    are safe under that fan-out mode.  The dataflow pass derives the mode
    it can actually prove (with no shape facts — every branch is live);
    a claim the proof does not cover is ST502, a matching claim is an
    ST501 record, and ``serial`` is always accepted (opting out).
    """
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            make("ST502", f"cannot parse kernel file: {exc}", file=path)
        ]
    lines = source.splitlines()
    functions = _collect_functions(tree)
    collector = _EffectCollector(functions, _Facts())
    diagnostics: List[Diagnostic] = []
    for func, declared_mode, lineno in _declared_kernels(tree, lines):
        if declared_mode not in KERNEL_MODES:
            diagnostics.append(
                make(
                    "ST502",
                    f"kernel {func.name!r} declares unknown parallel mode "
                    f"{declared_mode!r} (expected one of {KERNEL_MODES})",
                    file=path,
                    line=lineno,
                    kernel=func.name,
                    declared=declared_mode,
                )
            )
            continue
        effects = collector.effects_of(func.name)
        derived_mode = _mode_of(effects)
        derived_name = derived_mode if derived_mode is not None else "serial"
        context = dict(
            kernel=func.name,
            declared=declared_mode,
            derived=derived_name,
            classification=classify(effects).value,
            effects=sorted(e.value for e in effects),
        )
        if declared_mode in (derived_name, "serial"):
            diagnostics.append(
                make(
                    "ST501",
                    f"kernel {func.name!r}: declared {declared_mode!r} is "
                    f"covered by the derived verdict ({derived_name})",
                    file=path,
                    line=lineno,
                    **context,
                )
            )
        else:
            diagnostics.append(
                make(
                    "ST502",
                    f"kernel {func.name!r} declares parallel mode "
                    f"{declared_mode!r} but the dataflow only proves "
                    f"{derived_name!r}",
                    file=path,
                    line=lineno,
                    **context,
                )
            )
    return diagnostics


# --------------------------------------------------------------------------
# Shared-state race lint (module registries, pool caches, shm lifecycle)
# --------------------------------------------------------------------------

_MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "pop",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "remove",
        "discard",
        "add",
    }
)
_MUTABLE_FACTORIES = frozenset(
    {"dict", "list", "set", "defaultdict", "OrderedDict", "deque", "Counter"}
)
_LOCK_FACTORIES = frozenset({"Lock", "RLock"})


@dataclass
class _ModuleModel:
    """What the race lint knows about one module's source."""

    mutables: Set[str]
    locks: Set[str]
    imported: Set[str]
    functions: Dict[str, ast.FunctionDef]
    calls: Dict[str, Set[str]]  # function name → called simple names
    roots: Set[str]  # worker-context entry points


def _tail_name(node: ast.AST) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _build_module_model(
    tree: ast.Module, lines: Sequence[str] = ()
) -> _ModuleModel:
    mutables: Set[str] = set()
    locks: Set[str] = set()
    imported: Set[str] = set()
    classes: Dict[str, ast.ClassDef] = {}

    for stmt in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                                  ast.ListComp, ast.SetComp)):
                mutables.add(target.id)
            elif isinstance(value, ast.Call):
                callee = _tail_name(value.func)
                if callee in _MUTABLE_FACTORIES:
                    mutables.add(target.id)
                elif callee in _LOCK_FACTORIES:
                    locks.add(target.id)
        if isinstance(stmt, ast.ClassDef):
            classes[stmt.name] = stmt

    functions: Dict[str, ast.FunctionDef] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            functions.setdefault(node.name, node)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported.add(alias.asname or alias.name)
    # Methods also get class-qualified keys so instantiation edges resolve
    # to the *right* __init__ (bare names collide across classes).
    for class_def in classes.values():
        for item in class_def.body:
            if isinstance(item, ast.FunctionDef):
                functions[f"{class_def.name}.{item.name}"] = item

    calls: Dict[str, Set[str]] = {}
    for name, func in functions.items():
        called: Set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                callee = _tail_name(node.func)
                if callee in classes:
                    # Instantiation runs the class's __init__.
                    qualified = f"{callee}.__init__"
                    if qualified in functions:
                        called.add(qualified)
                elif callee in functions:
                    called.add(callee)
        calls[name] = called

    roots: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        callee = _tail_name(node.func)
        if callee == "submit" and node.args:
            task = _tail_name(node.args[0])
            if task in functions:
                roots.add(task)
        elif callee == "signal" and len(node.args) >= 2:
            handler = _tail_name(node.args[1])
            if handler in functions:
                roots.add(handler)
        # os.register_at_fork callbacks are exempt by rule: the child is
        # single-threaded when they run, so no access pair can conflict.

    # Functions another module submits to a pool declare it with a
    # '# worker-context' pragma (same cross-module honesty contract as
    # '# parallel-mode:'): the per-module closure cannot see a foreign
    # .submit call, so the callee marks itself.
    for name, func in functions.items():
        for lineno in (func.lineno, func.lineno - 1):
            if 1 <= lineno <= len(lines) and _WORKER_PRAGMA in lines[lineno - 1]:
                roots.add(name)
                break

    return _ModuleModel(
        mutables=mutables,
        locks=locks,
        imported=imported,
        functions=functions,
        calls=calls,
        roots=roots,
    )


def _reachable_functions(model: _ModuleModel) -> Set[str]:
    reachable: Set[str] = set()
    frontier = list(model.roots)
    while frontier:
        name = frontier.pop()
        if name in reachable:
            continue
        reachable.add(name)
        frontier.extend(model.calls.get(name, ()))
    return reachable


def _find_mutations(
    func: ast.FunctionDef, model: _ModuleModel
) -> List[Tuple[int, str, bool]]:
    """``(line, description, guarded)`` mutations of shared module state."""
    mutations: List[Tuple[int, str, bool]] = []

    def visit(node: ast.AST, guarded: bool) -> None:
        if isinstance(node, ast.With):
            holds_lock = guarded or any(
                isinstance(item.context_expr, ast.Name)
                and item.context_expr.id in model.locks
                for item in node.items
            )
            for item in node.items:
                visit(item.context_expr, guarded)
            for child in node.body:
                visit(child, holds_lock)
            return
        if isinstance(node, ast.FunctionDef) and node is not func:
            return  # nested defs are separate functions
        if isinstance(node, ast.Call):
            callee = node.func
            if (
                isinstance(callee, ast.Attribute)
                and callee.attr in _MUTATOR_METHODS
                and isinstance(callee.value, ast.Name)
                and callee.value.id in model.mutables
            ):
                mutations.append(
                    (
                        node.lineno,
                        f"{callee.value.id}.{callee.attr}(...)",
                        guarded,
                    )
                )
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = list(node.targets)
        for target in targets:
            if (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and target.value.id in model.mutables
            ):
                mutations.append(
                    (node.lineno, f"{target.value.id}[...] assignment", guarded)
                )
            elif (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id in model.imported
            ):
                mutations.append(
                    (
                        node.lineno,
                        f"module attribute {target.value.id}."
                        f"{target.attr} assignment",
                        guarded,
                    )
                )
        for child in ast.iter_child_nodes(node):
            visit(child, guarded)

    for stmt in func.body:
        visit(stmt, False)
    return mutations


def check_shared_state_source(
    source: str, file: Optional[str] = None
) -> List[Diagnostic]:
    """Race-lint one module: ST503 (unguarded worker-reachable mutation),
    ST505 (segment creation bypassing the registry), ST506 (pragma'd)."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [make("ST503", f"cannot parse module: {exc}", file=file)]
    lines = source.splitlines()
    model = _build_module_model(tree, lines)
    reachable = _reachable_functions(model)
    diagnostics: List[Diagnostic] = []

    def pragma(line: int) -> bool:
        return 1 <= line <= len(lines) and _RACE_PRAGMA in lines[line - 1]

    for name in sorted(reachable):
        func = model.functions.get(name)
        if func is None:
            continue
        for lineno, description, guarded in _find_mutations(func, model):
            if guarded:
                continue
            if pragma(lineno):
                diagnostics.append(
                    make(
                        "ST506",
                        f"race finding suppressed by pragma: {description} "
                        f"in worker-reachable {name!r}",
                        file=file,
                        line=lineno,
                        function=name,
                        construct=description,
                    )
                )
            else:
                diagnostics.append(
                    make(
                        "ST503",
                        f"unguarded mutation of shared module state: "
                        f"{description} in {name!r}, reachable from worker "
                        "context without holding a module lock",
                        file=file,
                        line=lineno,
                        function=name,
                        construct=description,
                    )
                )

    # Segment-lifecycle rule: every shared_memory creation must go through
    # SharedColumnSegment.pack so the live-segment registry (and therefore
    # the atexit/SIGTERM crash sweep) knows about it.
    enclosing: Dict[int, str] = {}
    for func in model.functions.values():
        for node in ast.walk(func):
            enclosing.setdefault(id(node), func.name)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if _tail_name(node.func) != "SharedMemory":
            continue
        creates = any(
            kw.arg == "create"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is True
            for kw in node.keywords
        )
        if not creates:
            continue
        owner = enclosing.get(id(node), "<module>")
        if owner == "pack":
            continue
        if pragma(node.lineno):
            diagnostics.append(
                make(
                    "ST506",
                    "race finding suppressed by pragma: direct shared "
                    f"segment creation in {owner!r}",
                    file=file,
                    line=node.lineno,
                    function=owner,
                    construct="SharedMemory(create=True)",
                )
            )
        else:
            diagnostics.append(
                make(
                    "ST505",
                    f"shared segment created directly in {owner!r}; go "
                    "through SharedColumnSegment.pack so the live-segment "
                    "registry can sweep it on crash",
                    file=file,
                    line=node.lineno,
                    function=owner,
                )
            )
    return diagnostics


def check_shared_state_file(path: str) -> List[Diagnostic]:
    """Race-lint one file on disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return check_shared_state_source(handle.read(), file=path)
