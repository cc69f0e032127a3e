"""Online integer moments of scaled distributions (paper Sec. 2).

P4 cannot divide, so Stat4 never computes the mean ``x̄ = Σxᵢ/N``.  Instead,
for a distribution ``X`` of ``N`` values it tracks the *scaled* distribution
``NX = {N·x₁, …, N·x_N}`` through two integers:

    ``Xsum   = Σ xᵢ``      (the mean of NX, exactly)
    ``Xsumsq = Σ xᵢ²``

from which the variance of NX is division-free::

    σ²_NX = N·Xsumsq − Xsum²

Anomaly checks compare *relative* quantities, so the scaling cancels: "if we
want to check that the average traffic rate matches a value T, we can track
packets per time interval as NX, and compare the mean of NX with N×T"; an
outlier test becomes ``N·xⱼ > Xsum + k·σ_NX``.

:class:`ScaledStats` maintains these integers online for the three update
patterns the paper describes:

- a brand-new value joins the distribution (``add_value``);
- a circular time window overwrites its oldest value (``replace_value`` —
  the Sec. 4 case study, and the source of the 12-step dependency chain);
- a *frequency* distribution increments one frequency (``observe_frequency``
  bookkeeping: ``Xsumsq += 2·x_k + 1``, N grows only when a new value
  appears).

The standard deviation is computed *lazily* (Sec. 3): reads are rare
compared to updates, and each σ read costs an MSB search.  The class counts
updates and σ recomputations so the lazy-vs-eager ablation bench can report
the amortization factor.

All arithmetic is restricted to P4-legal operations: adds, subtracts
(saturating at zero for the variance, as P4's ``|-|`` would), shifts,
comparisons, and multiplications that are either by compile-time constants
or explicitly routed through the active target profile's multiplier (exact
on bmv2, shift-approximated on Tofino-like targets via
:func:`repro.core.approx.approx_square`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.approx import approx_isqrt, approx_square
from repro.p4.values import active_target, checked_multiply

__all__ = [
    "exact_square",
    "square_for_target",
    "ScaledStats",
]


def exact_square(x: int) -> int:
    """Square via the target's runtime multiplier (legal on bmv2)."""
    return checked_multiply(x, x, runtime_operands=2)


def square_for_target() -> Callable[[int], int]:
    """The squaring routine the *active* target can express.

    bmv2 multiplies runtime values directly; Tofino-like targets fall back
    to the shift-based approximation (Sec. 2).
    """
    if active_target().runtime_multiply:
        return exact_square
    return approx_square


@dataclass
class ScaledStats:
    """Online ``N`` / ``Xsum`` / ``Xsumsq`` tracking with lazy σ.

    Args:
        square: squaring routine; defaults to whatever the active target
            profile supports at construction time.
        count_is_constant: declare that ``N`` is fixed at configuration time
            (true for full circular windows), which makes ``N·Xsumsq`` and
            ``N·xⱼ`` constant multiplies — expressible even on targets
            without a runtime multiplier.
    """

    square: Callable[[int], int] = field(default_factory=square_for_target)
    count_is_constant: bool = False
    count: int = 0
    xsum: int = 0
    xsumsq: int = 0
    updates: int = 0
    sd_recomputations: int = 0
    _cached_sd: int = 0
    _sd_dirty: bool = False

    # -- update patterns -----------------------------------------------------

    def add_value(self, x: int) -> None:
        """A new value of interest ``x`` joins the distribution.

        "When we receive a new value of interest x_k, we increase N by 1,
        and Xsum by x_k. We also modify the value of Xsumsq by adding the
        square of x_k" (Sec. 2).
        """
        self._check_value(x)
        self.count = self.count + 1
        self.xsum = self.xsum + x
        self.xsumsq = self.xsumsq + self.square(x)
        self._mark_dirty()

    def replace_value(self, old: int, new: int) -> None:
        """A circular window overwrites its oldest value; ``N`` is unchanged.

        This is the steady-state update of the Sec. 4 case study, where the
        switch "implements a circular buffer that by default stores 100
        8ms-long time intervals".
        """
        self._check_value(old)
        self._check_value(new)
        if self.count == 0:
            raise ValueError("cannot replace a value in an empty distribution")
        # Saturating adjustments: P4 would use |+| / |-| on the registers.
        self.xsum = max(self.xsum + new - old, 0)
        self.xsumsq = max(self.xsumsq + self.square(new) - self.square(old), 0)
        self._mark_dirty()

    def observe_frequency(self, old_count: int) -> int:
        """One frequency counter moves from ``old_count`` to ``old_count+1``.

        "we increase N only if x_k is equal to 0. Before incrementing x_k by
        1, we also increase Xsum by 1, and update Xsumsq by adding
        (x_k+1)² and subtracting its old value x_k²: Xsumsq += 2·x_k + 1"
        (Sec. 2).  The ``2·x_k`` is a one-bit shift — no multiplier needed.

        Returns:
            the new frequency ``old_count + 1`` (callers store it back into
            the frequency register).
        """
        self._check_value(old_count)
        if old_count == 0:
            self.count = self.count + 1
        self.xsum = self.xsum + 1
        self.xsumsq = self.xsumsq + (old_count << 1) + 1
        self._mark_dirty()
        return old_count + 1

    def observe_frequencies(self, old_count: int, repeat: int) -> int:
        """One counter moves from ``old_count`` to ``old_count + repeat``.

        The batched form of :meth:`observe_frequency`: ``repeat``
        consecutive increments of the *same* frequency cell telescope into
        closed forms —

            Σ_{i=0}^{repeat−1} (2·(old_count+i) + 1) = 2·old_count·repeat + repeat²

        so ``Xsum`` grows by ``repeat``, ``Xsumsq`` by the telescoped sum,
        and ``N`` grows by one iff the cell was empty.  Bit-identical to
        calling :meth:`observe_frequency` ``repeat`` times (the batched
        fast path's differential tests pin this down).  Host-side only: a
        P4 action sees one packet at a time and keeps the per-packet form.

        Returns:
            the new frequency ``old_count + repeat``.
        """
        self._check_value(old_count)
        if repeat < 0:
            raise ValueError("repeat count cannot be negative")
        if repeat == 0:
            return old_count
        if old_count == 0:
            self.count = self.count + 1
        self.xsum = self.xsum + repeat
        self.xsumsq = self.xsumsq + ((old_count * repeat) << 1) + repeat * repeat
        self.updates = self.updates + repeat
        self._sd_dirty = True
        return old_count + repeat

    def remove_value(self, x: int) -> None:
        """A value leaves the distribution (hash-table eviction, Sec. 5).

        Sparse hashed storage evicts a resident value to make room; the
        moments must forget it so registers keep matching the resident set.
        Saturating subtraction, like :meth:`replace_value`.
        """
        self._check_value(x)
        if self.count == 0:
            raise ValueError("cannot remove a value from an empty distribution")
        self.count = self.count - 1
        self.xsum = max(self.xsum - x, 0)
        self.xsumsq = max(self.xsumsq - self.square(x), 0)
        self._mark_dirty()

    # -- derived measures ------------------------------------------------------

    @property
    def mean_nx(self) -> int:
        """Mean of the scaled distribution ``NX`` — exactly ``Xsum``."""
        return self.xsum

    @property
    def variance_nx(self) -> int:
        """``σ²_NX = N·Xsumsq − Xsum²`` (saturating at zero).

        With exact squaring the expression is never negative; with the
        shift-approximated square it can transiently underflow, which P4
        saturating subtraction clamps to zero.
        """
        n_terms = 1 if self.count_is_constant else 2
        scaled = checked_multiply(self.count, self.xsumsq, runtime_operands=n_terms)
        return max(scaled - self.square(self.xsum), 0)

    @property
    def stddev_nx(self) -> int:
        """``σ_NX`` via the approximate square root, recomputed lazily.

        "our library updates the statistical measures only when a new value
        is added to the corresponding distribution … it amortizes the cost
        of identifying the most significant bit" (Sec. 3).
        """
        if self._sd_dirty:
            self._cached_sd = approx_isqrt(self.variance_nx)
            self._sd_dirty = False
            self.sd_recomputations = self.sd_recomputations + 1
        return self._cached_sd

    # -- anomaly comparisons (all relative, so the N-scaling cancels) ---------

    def scaled(self, x: int) -> int:
        """``N·x`` — a sample lifted onto the NX scale for comparisons."""
        n_terms = 1 if self.count_is_constant else 2
        return checked_multiply(self.count, x, runtime_operands=n_terms)

    def is_outlier(self, x: int, k_sigma: int = 2, margin: int = 0) -> bool:
        """The paper's normal-distribution outlier test.

        "we can check if the rate xⱼ at any time j is an outlier by testing
        if N·xⱼ > N·x̄ + 2σ_NX" (Sec. 2), where ``N·x̄ == Xsum``.
        ``k_sigma`` is a compile-time constant multiplier.

        ``margin`` adds ``N·margin`` to the threshold — i.e. requires the
        sample to exceed the mean by at least ``margin`` value units even
        when σ is (near) zero.  Degenerate distributions (all counts equal)
        otherwise flag every +1 fluctuation as a 2σ outlier.
        """
        threshold = self.xsum + k_sigma * self.stddev_nx
        if margin:
            threshold = threshold + self.scaled(margin)
        return self.scaled(x) > threshold

    def mean_exceeds(self, target: int) -> bool:
        """Check whether the true mean exceeds ``target`` without dividing.

        Compares ``Xsum`` (the mean of NX) against ``N·target``.
        """
        return self.xsum > self.scaled(target)

    def merged_with(self, other: "ScaledStats") -> "ScaledStats":
        """Combine two switches' moments (Sec. 5: cross-switch analyses).

        N, Xsum and Xsumsq are plain sums over the union of the two value
        sets, so a controller can aggregate register dumps from several
        switches into network-wide statistics *exactly* — one of the paper's
        future directions ("possibly performing statistical analyses across
        multiple switches").  Integer-only, though it runs controller-side.
        """
        merged = ScaledStats(
            square=self.square,
            count_is_constant=self.count_is_constant and other.count_is_constant,
        )
        merged.count = self.count + other.count
        merged.xsum = self.xsum + other.xsum
        merged.xsumsq = self.xsumsq + other.xsumsq
        merged._sd_dirty = True
        return merged

    @staticmethod
    def from_measures(n: int, xsum: int, xsumsq: int) -> "ScaledStats":
        """Rebuild a tracker from dumped registers (controller-side)."""
        stats = ScaledStats()
        stats.count = n
        stats.xsum = xsum
        stats.xsumsq = xsumsq
        stats._sd_dirty = True
        return stats

    # -- internals ---------------------------------------------------------

    def _mark_dirty(self) -> None:
        self.updates = self.updates + 1
        self._sd_dirty = True

    @staticmethod
    def _check_value(x: int) -> None:
        if not isinstance(x, int) or isinstance(x, bool):
            raise TypeError(f"values of interest are integers, got {type(x).__name__}")
        if x < 0:
            raise ValueError(
                f"values of interest are unsigned in P4 registers, got {x}"
            )
