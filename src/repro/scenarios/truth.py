# p4-ok-file — host-side ground-truth labeling, not data-plane code.
"""Ground-truth labels for adversarial scenarios.

The paper validates Stat4 on one hand-built anecdote; the related
evaluations it cites (DDoS entropy detection, data-plane heavy hitters)
score detectors against *labeled* attack traffic instead.  This module is
the label side of that methodology: a :class:`ScenarioTruth` says, in
interval units, when each attack was live (:class:`AttackWindow`), which
alert kinds a correct detector should raise, and — for targeted attacks —
which keys are the victims.

Labels are expressed in intervals, not seconds, because that is the
resolution the detectors themselves work at: a time-series check can only
speak at interval closes, and a percentile walk is scored by the interval
its digest timestamp falls into.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Set, Tuple

from repro.stat4.binding import BindingMatch
from repro.stat4.config import Stat4Config
from repro.stat4.distributions import TrackSpec
from repro.traffic.trace import PacketTrace

__all__ = ["AttackWindow", "ScenarioTruth", "LabeledScenario"]


@dataclass(frozen=True)
class AttackWindow:
    """One contiguous attack period, in interval indices.

    Attributes:
        start: first attack interval (inclusive).
        end: one past the last attack interval (exclusive).  Time-series
            detectors report an interval at its *close* — the first packet
            of the next interval — so catalogs extend ``end`` one interval
            past the last attack-traffic interval to cover that close lag.
        kinds: digest names that count as detecting this window.
        victim_keys: the attacked keys (empty when the attack has no
            single victim, e.g. a distribution-wide skew drift).
    """

    start: int
    end: int
    kinds: Tuple[str, ...]
    victim_keys: Tuple[int, ...] = ()

    def __post_init__(self):
        if self.start < 0 or self.end <= self.start:
            raise ValueError(f"bad attack window [{self.start}, {self.end})")
        if not self.kinds:
            raise ValueError("an attack window needs at least one alert kind")

    def covers(self, interval: int) -> bool:
        """Whether ``interval`` falls inside the window."""
        return self.start <= interval < self.end


@dataclass(frozen=True)
class ScenarioTruth:
    """Everything needed to score a detector's digests against the labels.

    Attributes:
        interval: the detector interval in seconds (digest timestamps are
            mapped to interval indices by flooring against this).
        intervals: total labeled intervals; digests past the end of the
            trace are clipped rather than scored.
        windows: the attack periods.
        alert_kinds: the union of digest names the scenario's detectors can
            legitimately raise; any *other* digest name is ignored by the
            scorer (forwarding digests, drill-down chatter), while a listed
            kind outside every matching window is a false positive.
    """

    interval: float
    intervals: int
    windows: Tuple[AttackWindow, ...]
    alert_kinds: Tuple[str, ...]

    def __post_init__(self):
        if self.interval <= 0:
            raise ValueError("truth interval must be positive")
        if self.intervals <= 0:
            raise ValueError("a scenario needs at least one interval")
        for window in self.windows:
            if window.end > self.intervals:
                raise ValueError(
                    f"window [{window.start}, {window.end}) exceeds "
                    f"{self.intervals} labeled intervals"
                )

    def interval_of(self, timestamp: float) -> int:
        """Map a digest timestamp to its interval index."""
        return int(timestamp / self.interval)

    def attack_intervals(self) -> Set[int]:
        """All interval indices covered by any window."""
        covered: Set[int] = set()
        for window in self.windows:
            covered.update(range(window.start, window.end))
        return covered

    def is_attack(self, interval: int) -> bool:
        """Whether any window covers ``interval``."""
        return any(window.covers(interval) for window in self.windows)

    def kinds_at(self, interval: int) -> FrozenSet[str]:
        """The alert kinds that would be *correct* at ``interval``."""
        kinds: Set[str] = set()
        for window in self.windows:
            if window.covers(interval):
                kinds.update(window.kinds)
        return frozenset(kinds)

    def victim_keys(self) -> FrozenSet[int]:
        """Union of victim keys across windows (empty = untargeted)."""
        keys: Set[int] = set()
        for window in self.windows:
            keys.update(window.victim_keys)
        return frozenset(keys)


@dataclass
class LabeledScenario:
    """A rendered attack trace plus its labels plus its detector.

    The unit of the scenario suite: everything a replay needs to score one
    detector configuration against one adversarial workload.  The detector
    is carried as *configuration* (a Stat4 geometry plus binding-table
    entries), not as live state — every replay builds a fresh library, so
    replays of one scenario start bit-identical.

    Attributes:
        name: stable identifier (also the floor key in
            ``benchmarks/scenario_baseline.json``).
        description: one-line human summary for tables and docs.
        trace: the rendered packet trace (deterministic per catalog seed).
        truth: the ground-truth labels.
        config: compile-time Stat4 geometry for the detector.
        bindings: ``(stage, match, spec)`` binding-table entries installed
            before replay.
        seed: the render seed (recorded so reports stay reproducible).
    """

    name: str
    description: str
    trace: PacketTrace
    truth: ScenarioTruth
    config: Stat4Config
    bindings: Tuple[Tuple[int, BindingMatch, TrackSpec], ...]
    seed: int = 0

    def __post_init__(self):
        if not self.bindings:
            raise ValueError(f"scenario {self.name!r} binds no detectors")
