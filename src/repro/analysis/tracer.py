# p4-ok-file — host-side test instrumentation, not data-plane code.
"""Runtime access tracer: the sanitizer-style witness for ST5xx verdicts.

The concurrency pass (:mod:`repro.analysis.concurrency`) proves its
mergeable verdicts statically.  This module lets the
test suite *witness* each "safe" verdict at runtime: wrap the mutable
surfaces of a Stat4 instance (register read/write, moment observers, the
percentile tracker), run a parallel batch, and assert that no two
threads produced a conflicting access pair — every write to kernel state
stayed on the apply thread.  Pool workers are processes that read their
chunks from shared memory and never touch the parent's state; a chunk
resolved on the pool's management thread (say, in a done-callback) would
show up here as a second thread.

This is deliberately a tracer, not a blocker: it records
``(subject, op, write, thread)`` tuples under its own lock and offers
:meth:`AccessTracer.conflicts` for the assertion.  See
``tests/analysis/test_concurrency.py`` for the harness in action.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Set, Tuple

__all__ = ["Access", "AccessTracer", "instrument_stat4"]


@dataclass(frozen=True)
class Access:
    """One recorded access to a traced subject."""

    subject: str
    op: str
    write: bool
    thread: str


@dataclass
class AccessTracer:
    """Records accesses from any thread; reports conflicting pairs.

    A *conflict* is the data-race shape: one subject touched by two or
    more distinct threads with at least one write among the accesses.
    """

    accesses: List[Access] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def note(self, subject: str, op: str, write: bool) -> None:
        access = Access(
            subject=subject,
            op=op,
            write=write,
            thread=threading.current_thread().name,
        )
        with self._lock:
            self.accesses.append(access)

    def wrap(
        self, obj: Any, method_name: str, subject: str, write: bool
    ) -> None:
        """Shadow ``obj.method_name`` with a noting wrapper (per instance)."""
        original = getattr(obj, method_name)

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            self.note(subject, method_name, write)
            return original(*args, **kwargs)

        object.__setattr__(obj, method_name, traced)

    def subjects(self) -> Set[str]:
        with self._lock:
            return {a.subject for a in self.accesses}

    def threads_touching(self, subject: str) -> Set[str]:
        with self._lock:
            return {a.thread for a in self.accesses if a.subject == subject}

    def writes_by_thread(self, subject: str) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        with self._lock:
            for access in self.accesses:
                if access.subject == subject and access.write:
                    counts[access.thread] = counts.get(access.thread, 0) + 1
        return counts

    def conflicts(self) -> List[Tuple[str, Set[str]]]:
        """Subjects touched by ≥2 threads with ≥1 write — the race pairs."""
        with self._lock:
            snapshot = list(self.accesses)
        by_subject: Dict[str, List[Access]] = {}
        for access in snapshot:
            by_subject.setdefault(access.subject, []).append(access)
        found: List[Tuple[str, Set[str]]] = []
        for subject, accesses in sorted(by_subject.items()):
            threads = {a.thread for a in accesses}
            if len(threads) > 1 and any(a.write for a in accesses):
                found.append((subject, threads))
        return found


def _instrument_state(tracer: AccessTracer, dist: int, state: Any) -> None:
    """Wrap the mutable members of one DistributionState."""
    prefix = f"state[{dist}]"
    stats = getattr(state, "stats", None)
    if stats is not None:
        for name, write in (
            ("observe_frequency", True),
            ("observe_frequencies", True),
            ("add_value", True),
            ("replace_value", True),
            ("remove_value", True),
            ("is_outlier", False),
            ("scaled", False),
        ):
            if hasattr(stats, name):
                tracer.wrap(stats, name, f"{prefix}.stats", write)
    tracker = getattr(state, "tracker", None)
    if tracker is not None:
        for name in ("observe", "tick"):
            if hasattr(tracker, name):
                tracer.wrap(tracker, name, f"{prefix}.tracker", True)


def instrument_stat4(tracer: AccessTracer, stat4: Any) -> None:
    """Instrument a Stat4 instance's kernel-state surfaces in place.

    Wraps every register's read/write and hooks ``_state_for`` so each
    distribution's moment/tracker objects are wrapped lazily on first
    touch (states are created on demand).
    """
    for attr in vars(stat4):
        register = getattr(stat4, attr)
        if hasattr(register, "read") and hasattr(register, "write"):
            tracer.wrap(register, "read", f"register.{attr}", False)
            tracer.wrap(register, "write", f"register.{attr}", True)

    seen: Set[int] = set()
    original_state_for = stat4._state_for

    @functools.wraps(original_state_for)
    def traced_state_for(spec: Any, *args: Any, **kwargs: Any) -> Any:
        state = original_state_for(spec, *args, **kwargs)
        dist = getattr(spec, "dist", spec)
        if dist not in seen:
            seen.add(dist)
            _instrument_state(tracer, dist, state)
        return state

    object.__setattr__(stat4, "_state_for", traced_state_for)
