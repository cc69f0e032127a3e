# p4-ok-file — host-side experiment driver, not data-plane code.
"""In-switch local reaction (Figure 1c's "locally react"), measured.

A steady 1,000 pps aggregate spikes to 20,000 pps; the
detect-and-rate-limit application (:mod:`repro.apps.mitigation`) arms its
policer within one interval of onset, with no controller in the loop.
:func:`run_rate_limit` reports how much of the spike still leaks
downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.mitigation import MitigationParams, build_mitigating_app
from repro.p4 import headers as hdr
from repro.p4.switch import BehavioralSwitch
from repro.traffic.builders import udp_to

__all__ = ["RateLimitResult", "run_rate_limit"]

_DST = hdr.ip_to_int("10.0.1.1")


@dataclass(frozen=True)
class RateLimitResult:
    """Spike packets offered and forwarded, and the policer's verdicts."""

    offered: int
    forwarded: int
    conforming: int
    dropped: int

    @property
    def leak(self) -> float:
        """Share of the spike forwarded downstream."""
        return self.forwarded / self.offered


def run_rate_limit(limit_pps: int = 2000) -> RateLimitResult:
    """0.5 s at 1,000 pps, then 0.4 s at 20,000 pps, through one switch."""
    params = MitigationParams(
        interval=0.01, window=30, limit_pps=limit_pps, hold=0.2,
        min_samples=5, cooldown=0.05,
    )
    bundle = build_mitigating_app(params)
    switch = BehavioralSwitch("s", bundle.program)
    t = 0.0
    while t < 0.5:
        switch.process(udp_to(_DST), 0, t)
        t += 0.001
    forwarded = offered = 0
    while t < 0.9:
        out = switch.process(udp_to(_DST), 0, t)
        offered += 1
        forwarded += len(out.sends)
        t += 0.00005
    return RateLimitResult(
        offered=offered,
        forwarded=forwarded,
        conforming=bundle.policer.conforming,
        dropped=bundle.policer.dropped,
    )
