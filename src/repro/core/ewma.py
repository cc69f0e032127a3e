"""Shift-based EWMA — the one-register alternative to the paper's window.

The Sec. 4 case study keeps a circular buffer of ``N`` interval counts
(``N × counter_width`` bits) to compute mean and σ.  The classic
space-saving alternative is an exponentially weighted moving average,
which P4 can maintain with *one shift and one subtract* per update when the
smoothing factor is a negative power of two::

    mean += (x - mean) >> k          # alpha = 2^-k

and likewise for the mean absolute deviation (an L1 stand-in for σ that
avoids squaring entirely).  The trade-off this enables the ablation to
measure: two registers instead of a window, but a *sliding* memory that an
attacker can boil slowly, whereas the paper's window forgets abruptly and
recovers its baseline after exactly N intervals.

Fixed-point scaling by ``2^frac_bits`` keeps the integer arithmetic
accurate for small inputs; everything is shifts, adds and compares.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["EwmaDetector"]


@dataclass
class EwmaDetector:
    """EWMA mean + mean-absolute-deviation outlier detector.

    Args:
        alpha_shift: smoothing ``alpha = 2^-alpha_shift`` (3 → 1/8).
        k_dev: fire when ``x > mean + k_dev * deviation + margin``.
        margin: flat margin in value units.
        frac_bits: fixed-point fractional bits for the state registers.
        warmup: samples consumed before checks may fire.
    """

    alpha_shift: int = 3
    k_dev: int = 3
    margin: int = 1
    frac_bits: int = 8
    warmup: int = 8
    samples: int = 0
    mean_fp: int = 0
    deviation_fp: int = 0

    def update(self, x: int) -> bool:
        """Fold one sample in; returns True when it was an outlier.

        The check runs against the *pre-update* state (as the paper's check
        judges a new interval against the stored distribution), then the
        sample is absorbed.
        """
        if x < 0:
            raise ValueError("samples are unsigned")
        x_fp = x << self.frac_bits
        anomalous = False
        if self.samples >= self.warmup:
            threshold = (
                self.mean_fp
                + self.k_dev * self.deviation_fp
                + (self.margin << self.frac_bits)
            )
            anomalous = x_fp > threshold
        if self.samples == 0:
            self.mean_fp = x_fp
        else:
            # error may be negative: Python ints shift arithmetically, as a
            # P4 program would implement with a compare-and-subtract.
            error = x_fp - self.mean_fp
            self.mean_fp = self.mean_fp + (error >> self.alpha_shift)
            magnitude = error if error >= 0 else -error
            self.deviation_fp = self.deviation_fp + (
                (magnitude - self.deviation_fp) >> self.alpha_shift
            )
        self.samples = self.samples + 1
        return anomalous

    @property
    def mean(self) -> int:
        """Current mean estimate (integer part)."""
        return self.mean_fp >> self.frac_bits

    @property
    def deviation(self) -> int:
        """Current mean-absolute-deviation estimate (integer part)."""
        return self.deviation_fp >> self.frac_bits

    @property
    def state_bits(self) -> int:
        """Register bits this detector needs (two fixed-point words)."""
        return 2 * (32 + self.frac_bits)
