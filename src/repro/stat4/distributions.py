"""Tracked-distribution descriptors and runtime state.

A :class:`TrackSpec` is the action-parameter bundle a binding-table entry
carries: which distribution slot to update, how (frequency counts vs a
windowed time series), the extraction spec, and the anomaly check to run.
The controller installs and rewrites these at runtime.

:class:`DistributionState` is the per-slot state the updates operate on —
conceptually the registers of Figure 4 (value cells, N/Xsum/Xsumsq/σ²/σ,
percentile position bookkeeping, window cursor).  The :class:`Stat4`
library keeps the authoritative copies in its register file and uses the
core trackers (:class:`~repro.core.stats.ScaledStats`,
:class:`~repro.core.percentile.PercentileTracker`) as the in-pipeline
working state; :meth:`Stat4.snapshot` reads both as one view, which the
differential tests and ``repro validate --batched`` compare.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional

from repro.core.percentile import PercentileTracker
from repro.core.stats import ScaledStats
from repro.p4.errors import ValueRangeError
from repro.stat4.extract import ExtractSpec

__all__ = [
    "DistributionKind",
    "TrackSpec",
    "DistributionState",
    "KernelShape",
    "enumerate_shapes",
]


class DistributionKind(Enum):
    """The update patterns: the two of Sec. 2 plus the Sec. 5 extension."""

    #: Each value of interest indexes a cell whose *frequency* grows
    #: (SYNs per destination, packets by type, traffic per subnet).
    FREQUENCY = "frequency"

    #: Values of interest are per-interval aggregates kept in a circular
    #: window (traffic rate over time) — the Sec. 4 case-study shape.
    TIME_SERIES = "time_series"

    #: Frequencies over a huge sparse domain (full addresses, ports) kept
    #: in HashPipe-style hashed slots — the Sec. 5 future-work technique
    #: for "avoid[ing] reserving memory for non-observed values".
    SPARSE_FREQUENCY = "sparse_frequency"


@dataclass(frozen=True)
class TrackSpec:
    """Everything one binding entry says about how to track a distribution.

    Attributes:
        dist: distribution slot in ``[0, STAT_COUNTER_NUM)``.
        kind: frequency or time-series tracking.
        extract: how to pull the value of interest from a packet.
        interval: time-series interval length in seconds (ignored for
            frequency distributions).
        k_sigma: fire the paper's ``N·x > Xsum + k·σ_NX`` check with this k
            (0 disables checking).
        alert: digest stream name used when the check fires.
        percent: additionally track this percentile of the frequency
            distribution (None disables; frequency kind only).
        window: circular-window length for time series, in intervals
            (0 = use the full STAT_COUNTER_SIZE register; smaller windows
            use a prefix of the slot's cells — the Sec. 4 sweep varies the
            "number of intervals between 10 and 100" at runtime this way).
        percentile_alert: digest stream raised when the tracked percentile
            *moves* — the paper's "track values and change rates of
            percentiles, which may be indicative of anomalies" (Sec. 2).
            Needed where the k·σ outlier test is structurally blind: with N
            tracked values a single outlier's z-score is at most
            (N−1)/√N, so a 2σ check can never flag one of two or three
            categories (e.g. the TCP-vs-UDP mix), while the weighted median
            visibly walks.  Requires ``percent``.
        min_samples: suppress checks until the distribution holds this many
            values (σ of one sample is meaningless).
        margin: extra value units a sample must exceed the mean by, on top
            of ``k·σ`` — keeps near-degenerate distributions (all values
            equal, σ ≈ 0) from flagging every +1 fluctuation.
        cooldown: minimum seconds between digests from this binding
            (overrides the library default when larger).
        accept_lo / accept_hi: half-open value filter ``[lo, hi)`` applied
            to the extracted value (both 0 = accept everything).  This is
            the mechanism behind the Sec. 5 bimodal remark — "the
            controller can instruct switches to separately track and check
            the two modes of the distribution" — realized as two bindings
            whose filters bracket the valley; one compare each, P4-legal.
        generation: bumped by the controller when it re-purposes the slot;
            a generation change resets the distribution state.
    """

    dist: int
    kind: DistributionKind
    extract: ExtractSpec
    interval: float = 0.0  # p4-ok: control-plane spec field in seconds, not a register value
    k_sigma: int = 0
    alert: str = "stat4_alert"
    percent: Optional[int] = None
    window: int = 0
    percentile_alert: str = ""
    min_samples: int = 2
    margin: int = 1
    cooldown: float = 0.0  # p4-ok: control-plane spec field in seconds, not a register value
    accept_lo: int = 0
    accept_hi: int = 0
    generation: int = 0

    def __post_init__(self):
        if self.dist < 0:
            raise ValueRangeError("distribution slot cannot be negative")
        if self.kind is DistributionKind.TIME_SERIES and self.interval <= 0:
            raise ValueRangeError("time-series tracking needs a positive interval")
        if self.k_sigma < 0:
            raise ValueRangeError("k_sigma cannot be negative")
        if self.margin < 0:
            raise ValueRangeError("margin cannot be negative")
        if self.window < 0:
            raise ValueRangeError("window cannot be negative")
        if self.window > 0 and self.kind is not DistributionKind.TIME_SERIES:
            raise ValueRangeError("window applies to time-series distributions")
        if self.percent is not None:
            if self.kind is not DistributionKind.FREQUENCY:
                raise ValueRangeError(
                    "percentiles apply to dense frequency distributions "
                    "(a sparse hashed domain has no cell ordering to walk)"
                )
            if not 0 < self.percent < 100:
                raise ValueRangeError("percent must be in (0, 100)")
        if self.percentile_alert and self.percent is None:
            raise ValueRangeError("percentile_alert requires percent")
        if self.cooldown < 0:
            raise ValueRangeError("cooldown cannot be negative")
        if self.accept_lo < 0 or self.accept_hi < 0:
            raise ValueRangeError("accept bounds cannot be negative")
        if self.accept_hi > 0 and self.accept_lo >= self.accept_hi:
            raise ValueRangeError("accept range [lo, hi) is empty")

    def accepts(self, value: int) -> bool:
        """Whether the value filter admits an extracted value.

        ``accept_hi == 0`` means "no upper bound" (so the all-defaults
        filter accepts everything and an upper-mode filter is just a lower
        bound).
        """
        if value < self.accept_lo:
            return False
        return self.accept_hi == 0 or value < self.accept_hi


@dataclass(frozen=True)
class KernelShape:
    """The projection of a :class:`TrackSpec` onto the fields that change
    its per-packet update: kind × tracker × k·σ × percentile alert.

    The batch engine picks a kernel per shape, and the compiled kernels
    are generated per shape.
    """

    kind: DistributionKind
    tracked: bool  # spec.percent is not None  (a tracker exists)
    alerting: bool  # spec.k_sigma > 0
    percentile_alert: bool  # spec.percentile_alert truthy

    @classmethod
    def of_spec(cls, spec: TrackSpec) -> "KernelShape":
        """Project a TrackSpec — every shape field read, on every branch."""
        return cls(
            kind=spec.kind,
            tracked=spec.percent is not None,
            alerting=spec.k_sigma > 0,
            percentile_alert=bool(spec.percentile_alert),
        )

    @property
    def key(self) -> str:
        """Stable string name of this shape, e.g. ``frequency+tracked``."""
        parts = [self.kind.value]
        if self.tracked:
            parts.append("tracked")
        if self.alerting:
            parts.append("alerting")
        if self.percentile_alert:
            parts.append("percentile_alert")
        return "+".join(parts)


def enumerate_shapes() -> List[KernelShape]:
    """Every constructible kernel shape, in deterministic order.

    TrackSpec validation makes the lattice smaller than 3×2×2×2: a tracker
    (``percent``) exists only on dense frequency slots, and a
    ``percentile_alert`` requires a tracker.
    """
    shapes: List[KernelShape] = []
    for kind in DistributionKind:
        tracked_options = (False, True) if kind is DistributionKind.FREQUENCY else (False,)
        for tracked in tracked_options:
            for alerting in (False, True):
                pa_options = (False, True) if tracked else (False,)
                for percentile_alert in pa_options:
                    shapes.append(
                        KernelShape(kind, tracked, alerting, percentile_alert)
                    )
    return shapes


@dataclass
class DistributionState:
    """Mutable per-slot tracking state (the working copy of the registers).

    Attributes:
        spec: the TrackSpec that configured this slot.
        stats: scaled moments of the tracked values.
        tracker: online percentile state (frequency slots that asked for it).
        window_index: circular-buffer cursor (time series).
        window_filled: cells populated so far (grows to STAT_COUNTER_SIZE,
            then the window overwrites its oldest value).
        interval_start: start time of the open interval (None until the
            first matching packet arrives).
        current_count: the accumulating value of the open interval.
        last_alert: time of the last digest from this slot (cooldown).
        values_dropped: values of interest outside the cell domain.
    """

    spec: TrackSpec
    stats: ScaledStats
    tracker: Optional[PercentileTracker] = None
    window_index: int = 0
    window_filled: int = 0
    interval_start: Optional[float] = None
    current_count: int = 0
    last_alert: Optional[float] = None
    last_percentile_alert: Optional[float] = None
    intervals_closed: int = 0
    values_dropped: int = 0

    @staticmethod
    def fresh(spec: TrackSpec, counter_size: int) -> "DistributionState":
        """Initialize state for a (re)bound slot."""
        tracker = None
        if spec.percent is not None:
            tracker = PercentileTracker(counter_size, percent=spec.percent)
        return DistributionState(spec=spec, stats=ScaledStats(), tracker=tracker)

    def effective_window(self, counter_size: int) -> int:
        """The circular-window length this slot actually uses."""
        if self.spec.window <= 0:
            return counter_size
        return min(self.spec.window, counter_size)

    def window_is_full(self, counter_size: int) -> bool:
        """Whether the circular window has wrapped at least once."""
        return self.window_filled >= self.effective_window(counter_size)

    def cooldown_active(self, now: float, cooldown: float) -> bool:
        """Whether alerts from this slot are still suppressed at ``now``."""
        if self.last_alert is None or cooldown <= 0:
            return False
        return (now - self.last_alert) < cooldown
