"""Match-action tables with runtime entry management.

The binding tables at the heart of Stat4's runtime tuning (Sec. 3: "the
control plane decides which distributions to track at any time by populating
P4 tables that we call binding tables") are ordinary match-action tables, so
this module implements the general mechanism: typed keys with exact / LPM /
ternary / range matching, prioritized entries, default actions, and the
control-plane add/modify/delete operations that work *without recompiling*
the program.

Lookup semantics follow P4 targets:

- all-exact tables match or miss, no priorities needed;
- a single-LPM table picks the longest matching prefix;
- any table with a ternary or range key orders entries by priority
  (higher wins), as TCAM-backed tables do.

Every control-plane write that changes a table bumps its ``version``, so
a cache of lookup results (the batch engine's binding memo) stays valid
exactly as long as the version it was filled under.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.p4.errors import TableError

__all__ = [
    "MatchKind",
    "TableKey",
    "exact_key",
    "lpm_key",
    "ternary_key",
    "range_key",
    "ActionSpec",
    "TableEntry",
    "Table",
]


class MatchKind(Enum):
    """P4 match kinds supported by the simulator."""

    EXACT = "exact"
    LPM = "lpm"
    TERNARY = "ternary"
    RANGE = "range"


@dataclass(frozen=True)
class TableKey:
    """One key component: a named field with a width and a match kind."""

    name: str
    width: int
    kind: MatchKind


def exact_key(name: str, width: int) -> TableKey:
    """Shorthand for an exact-match key component."""
    return TableKey(name, width, MatchKind.EXACT)


def lpm_key(name: str, width: int) -> TableKey:
    """Shorthand for a longest-prefix-match key component."""
    return TableKey(name, width, MatchKind.LPM)


def ternary_key(name: str, width: int) -> TableKey:
    """Shorthand for a ternary (value/mask) key component."""
    return TableKey(name, width, MatchKind.TERNARY)


def range_key(name: str, width: int) -> TableKey:
    """Shorthand for a range ([lo, hi]) key component."""
    return TableKey(name, width, MatchKind.RANGE)


@dataclass(frozen=True)
class ActionSpec:
    """A named action with the parameter names entries must provide."""

    name: str
    params: Tuple[str, ...] = ()
    # The callable is invoked by the pipeline as fn(ctx, **params).
    fn: Optional[Callable[..., Any]] = None


@dataclass
class TableEntry:
    """One installed entry.

    ``matches`` is one element per key component:

    - EXACT: ``value``
    - LPM: ``(value, prefix_len)``
    - TERNARY: ``(value, mask)``
    - RANGE: ``(lo, hi)`` inclusive
    """

    entry_id: int
    matches: Tuple[Any, ...]
    action: str
    params: Dict[str, Any] = field(default_factory=dict)
    priority: int = 0

    def specificity(self) -> int:
        """LPM tie-break aid: total prefix length over LPM components."""
        total = 0
        for match in self.matches:
            if isinstance(match, tuple) and len(match) == 2:
                total += match[1] if isinstance(match[1], int) else 0
        return total


class Table:
    """A match-action table with control-plane entry management.

    Args:
        name: table name.
        keys: ordered key components.
        actions: the actions entries may invoke.
        default_action: action name used on a miss (must be in ``actions``),
            or None for a no-op miss.
        max_size: entry capacity, as hardware tables have.
    """

    def __init__(
        self,
        name: str,
        keys: Sequence[TableKey],
        actions: Sequence[ActionSpec],
        default_action: Optional[str] = None,
        default_params: Optional[Dict[str, Any]] = None,
        max_size: int = 1024,
    ):
        if not keys:
            raise TableError(f"table {name!r} needs at least one key")
        self.name = name
        self.keys = tuple(keys)
        self.actions: Dict[str, ActionSpec] = {spec.name: spec for spec in actions}
        if len(self.actions) != len(actions):
            raise TableError(f"table {name!r} has duplicate action names")
        if default_action is not None and default_action not in self.actions:
            raise TableError(
                f"table {name!r}: unknown default action {default_action!r}"
            )
        self.default_action = default_action
        self.default_params = dict(default_params or {})
        self.max_size = max_size
        self._entries: Dict[int, TableEntry] = {}
        self._ids = itertools.count(1)
        #: Bumped by every add/modify/delete/clear that changes the entries.
        self.version = 0
        self.lookups = 0
        self.hits = 0

    # -- control plane (runtime, no recompilation) ---------------------------

    def add_entry(
        self,
        matches: Sequence[Any],
        action: str,
        params: Optional[Dict[str, Any]] = None,
        priority: int = 0,
    ) -> int:
        """Install an entry; returns its id for later modify/delete.

        Raises:
            TableError: on capacity overflow, bad action, malformed match,
                or wrong parameter names.
        """
        if len(self._entries) >= self.max_size:
            raise TableError(f"table {self.name!r} is full ({self.max_size})")
        spec = self._action_spec(action)
        entry_params = dict(params or {})
        self._check_params(spec, entry_params)
        normalized = self._normalize_matches(matches)
        entry_id = next(self._ids)
        self._entries[entry_id] = TableEntry(
            entry_id=entry_id,
            matches=normalized,
            action=action,
            params=entry_params,
            priority=priority,
        )
        self.version += 1
        return entry_id

    def modify_entry(
        self,
        entry_id: int,
        matches: Optional[Sequence[Any]] = None,
        action: Optional[str] = None,
        params: Optional[Dict[str, Any]] = None,
        priority: Optional[int] = None,
    ) -> None:
        """Rewrite parts of an installed entry in place.

        This is the operation the drill-down controller uses: "the
        controller modifies the previously added entry so that the switch
        tracks the traffic per destination" (Sec. 4).

        All or nothing: every argument is validated against the entry it
        would produce before any field changes, so a write that raises
        leaves the entry (and ``version``) as they were.
        """
        entry = self._get_entry(entry_id)
        if action is None and params is None and matches is None and priority is None:
            return
        new_action = entry.action if action is None else action
        new_params = entry.params if params is None else dict(params)
        self._check_params(self._action_spec(new_action), new_params)
        new_matches = (
            entry.matches if matches is None else self._normalize_matches(matches)
        )
        entry.action = new_action
        entry.params = new_params
        entry.matches = new_matches
        if priority is not None:
            entry.priority = priority
        self.version += 1

    def delete_entry(self, entry_id: int) -> None:
        """Remove an installed entry."""
        self._get_entry(entry_id)
        del self._entries[entry_id]
        self.version += 1

    def clear(self) -> None:
        """Remove every entry."""
        if self._entries:
            self._entries.clear()
            self.version += 1

    def entries(self) -> List[TableEntry]:
        """All installed entries (control-plane view)."""
        return list(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    # -- data plane ---------------------------------------------------------------

    def lookup(self, key_values: Sequence[int]) -> Optional[TableEntry]:
        """:meth:`match`, counted: one data-plane lookup, and a hit when
        an entry matched."""
        entry = self.match(key_values)
        self.lookups += 1
        if entry is not None:
            self.hits += 1
        return entry

    def match(self, key_values: Sequence[int]) -> Optional[TableEntry]:
        """Find the best-matching entry for the key tuple, or None on miss.

        LPM components prefer longer prefixes; ternary/range tables break
        ties by priority (higher first), then by insertion order.  Leaves
        the ``lookups``/``hits`` counters alone (see :meth:`lookup`).
        """
        if len(key_values) != len(self.keys):
            raise TableError(
                f"table {self.name!r} expects {len(self.keys)} key values, "
                f"got {len(key_values)}"
            )
        best: Optional[TableEntry] = None
        best_rank: Tuple[int, int, int] = (-1, -1, -1)
        for entry in self._entries.values():
            if not self._entry_matches(entry, key_values):
                continue
            rank = (entry.priority, entry.specificity(), -entry.entry_id)
            if best is None or rank > best_rank:
                best = entry
                best_rank = rank
        return best

    def default(self) -> Optional[Tuple[str, Dict[str, Any]]]:
        """The miss behaviour: ``(action, params)`` or None."""
        if self.default_action is None:
            return None
        return self.default_action, dict(self.default_params)

    # -- internals -------------------------------------------------------------

    def _entry_matches(self, entry: TableEntry, key_values: Sequence[int]) -> bool:
        for key, match, value in zip(self.keys, entry.matches, key_values):
            if key.kind is MatchKind.EXACT:
                if value != match:
                    return False
            elif key.kind is MatchKind.LPM:
                prefix_value, prefix_len = match
                shift = key.width - prefix_len
                if (value >> shift) != (prefix_value >> shift):
                    return False
            elif key.kind is MatchKind.TERNARY:
                match_value, mask = match
                if (value & mask) != (match_value & mask):
                    return False
            else:  # RANGE
                lo, hi = match
                if not lo <= value <= hi:
                    return False
        return True

    def _normalize_matches(self, matches: Sequence[Any]) -> Tuple[Any, ...]:
        if len(matches) != len(self.keys):
            raise TableError(
                f"table {self.name!r} expects {len(self.keys)} match values, "
                f"got {len(matches)}"
            )
        normalized = []
        for key, match in zip(self.keys, matches):
            limit = 1 << key.width
            if key.kind is MatchKind.EXACT:
                self._check_value(key, match, limit)
                normalized.append(match)
            elif key.kind is MatchKind.LPM:
                value, prefix_len = self._pair(key, match)
                self._check_value(key, value, limit)
                if not 0 <= prefix_len <= key.width:
                    raise TableError(
                        f"table {self.name!r}: prefix /{prefix_len} invalid "
                        f"for {key.width}-bit key {key.name!r}"
                    )
                normalized.append((value, prefix_len))
            elif key.kind is MatchKind.TERNARY:
                value, mask = self._pair(key, match)
                self._check_value(key, value, limit)
                self._check_value(key, mask, limit)
                normalized.append((value, mask))
            else:  # RANGE
                lo, hi = self._pair(key, match)
                self._check_value(key, lo, limit)
                self._check_value(key, hi, limit)
                if lo > hi:
                    raise TableError(
                        f"table {self.name!r}: empty range [{lo}, {hi}]"
                    )
                normalized.append((lo, hi))
        return tuple(normalized)

    def _pair(self, key: TableKey, match: Any) -> Tuple[int, int]:
        if not isinstance(match, tuple) or len(match) != 2:
            raise TableError(
                f"table {self.name!r}: key {key.name!r} ({key.kind.value}) "
                f"needs a 2-tuple match, got {match!r}"
            )
        return match

    def _check_value(self, key: TableKey, value: Any, limit: int) -> None:
        if not isinstance(value, int) or isinstance(value, bool):
            raise TableError(
                f"table {self.name!r}: key {key.name!r} match must be int"
            )
        if not 0 <= value < limit:
            raise TableError(
                f"table {self.name!r}: {value} does not fit key "
                f"{key.name!r} (width {key.width})"
            )

    def _action_spec(self, action: str) -> ActionSpec:
        try:
            return self.actions[action]
        except KeyError:
            raise TableError(
                f"table {self.name!r} has no action {action!r}"
            ) from None

    def _check_params(self, spec: ActionSpec, params: Dict[str, Any]) -> None:
        expected = set(spec.params)
        provided = set(params)
        if expected != provided:
            raise TableError(
                f"table {self.name!r}: action {spec.name!r} takes "
                f"{sorted(expected)}, got {sorted(provided)}"
            )

    def _get_entry(self, entry_id: int) -> TableEntry:
        try:
            return self._entries[entry_id]
        except KeyError:
            raise TableError(
                f"table {self.name!r} has no entry {entry_id}"
            ) from None

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {len(self._entries)} entries)"
