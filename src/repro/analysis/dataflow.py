# p4-ok-file — host-side static analyzer, not data-plane code.
"""Width/overflow dataflow: value magnitudes → register requirements.

P4 registers wrap silently.  The measure registers hold ``Xsum = Σxᵢ`` and
``Xsumsq = Σxᵢ²``; at a given value magnitude and distribution size each
has a hard ceiling before the next update wraps and every derived measure
goes quietly wrong.  This pass propagates the deployment's worst-case
value magnitude (every value at ``max_value``) through the register
layout of a :class:`~repro.stat4.config.Stat4Config` and derives

- per-register *overflow horizons* (how many worst-case values fit before
  a wrap) — the static counterpart of the Sec. 2 order-of-magnitude
  discussion;
- per-register *required bit widths* for a full distribution of
  ``counter_size`` worst-case values (checked against the widths the
  generated P4 declares, see :mod:`repro.analysis.p4source`);
- the minimal safe *unit shift* — the least ``k`` such that counting in
  ``2^k`` units makes every register absorb a full distribution.

:func:`analyze_overflow` and :func:`safe_unit_shift` are the raw
computations; :func:`check_overflow` wraps them into registered
diagnostics (ST410–ST414).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.diagnostics import Diagnostic, make
from repro.stat4.config import Stat4Config

__all__ = [
    "OverflowBound",
    "analyze_overflow",
    "safe_unit_shift",
    "required_register_widths",
    "check_overflow",
]


@dataclass(frozen=True)
class OverflowBound:
    """Worst-case capacity of one measure register.

    Attributes:
        register: register name.
        width: bit width.
        max_safe_values: distribution sizes N the register can absorb with
            every value at ``max_value`` (None-like huge numbers capped).
        limiting: whether this register is the binding constraint.
    """

    register: str
    width: int
    max_safe_values: int
    limiting: bool = False


def analyze_overflow(
    config: Stat4Config, max_value: int
) -> List[OverflowBound]:
    """Bound how many worst-case values each measure register can absorb.

    Args:
        config: the deployment's register widths.
        max_value: the largest value of interest a cell can hold (e.g. the
            packets-per-interval ceiling, or 2^counter_width - 1).

    Returns:
        one bound per relevant register, with the binding constraint
        flagged.  ``variance`` uses ``N·Xsumsq`` headroom, the largest
        intermediate the paper's formula needs.
    """
    if max_value <= 0:
        raise ValueError("max_value must be positive")
    stats_cap = (1 << config.stats_width) - 1
    cell_cap = (1 << config.counter_width) - 1
    if max_value > cell_cap:
        raise ValueError(
            f"max_value {max_value} exceeds the cell width "
            f"({config.counter_width} bits)"
        )
    bounds = [
        OverflowBound(
            register="stat4_counters",
            width=config.counter_width,
            max_safe_values=config.counter_size,
        ),
        OverflowBound(
            register="stat4_xsum",
            width=config.stats_width,
            max_safe_values=stats_cap // max_value,
        ),
        OverflowBound(
            register="stat4_xsumsq",
            width=config.stats_width,
            max_safe_values=stats_cap // (max_value * max_value),
        ),
        OverflowBound(
            register="stat4_var (N*Xsumsq)",
            width=config.stats_width,
            # N * N * max^2 <= cap  =>  N <= sqrt(cap / max^2)
            max_safe_values=math.isqrt(stats_cap // (max_value * max_value)),
        ),
    ]
    tightest = min(bounds[1:], key=lambda bound: bound.max_safe_values)
    return [
        OverflowBound(
            register=bound.register,
            width=bound.width,
            max_safe_values=bound.max_safe_values,
            limiting=(bound is tightest),
        )
        for bound in bounds
    ]


def safe_unit_shift(config: Stat4Config, max_raw_value: int) -> int:
    """Smallest unit shift making the deployment overflow-safe.

    The Sec. 2 trick operationalized: find the least ``k`` such that
    counting in ``2^k`` units lets every measure register absorb a full
    distribution (``counter_size`` values) of worst-case magnitude.
    """
    for shift in range(0, 64):
        coarse = max(max_raw_value >> shift, 1)
        bounds = analyze_overflow(config, coarse)
        if all(
            bound.max_safe_values >= config.counter_size for bound in bounds
        ):
            return shift
    raise ValueError("no unit shift makes this configuration safe")


def required_register_widths(
    counter_size: int, max_value: int
) -> Dict[str, int]:
    """Bit widths each register needs for ``counter_size`` worst-case values.

    Keyed by the register names the generated P4 program declares; the
    variance entry covers the ``N·Xsumsq`` intermediate, the widest value
    the paper's formula materializes.
    """
    return {
        "stat4_counters": max_value.bit_length(),
        "stat4_xsum": (counter_size * max_value).bit_length(),
        "stat4_xsumsq": (counter_size * max_value * max_value).bit_length(),
        "stat4_var": (
            counter_size * counter_size * max_value * max_value
        ).bit_length(),
    }


def check_overflow(
    config: Stat4Config, max_value: int, file: Optional[str] = None
) -> List[Diagnostic]:
    """Run the overflow dataflow and report ST410–ST414 diagnostics."""
    diagnostics: List[Diagnostic] = []
    cell_cap = (1 << config.counter_width) - 1
    if max_value <= 0:
        diagnostics.append(
            make("ST430", f"max_value must be positive (got {max_value})",
                 file=file)
        )
        return diagnostics
    if max_value > cell_cap:
        diagnostics.append(
            make(
                "ST410",
                f"max_value {max_value} does not fit the "
                f"{config.counter_width}-bit counter cells (cap {cell_cap})",
                file=file,
                register="stat4_counters",
                max_value=max_value,
            )
        )
        return diagnostics
    for bound in analyze_overflow(config, max_value):
        if bound.register == "stat4_counters":
            # The cell array holds exactly counter_size values per slot by
            # construction; its horizon can never exceed it.
            continue
        if bound.max_safe_values < config.counter_size:
            diagnostics.append(
                make(
                    "ST411",
                    f"{bound.register} ({bound.width} bits) wraps after "
                    f"{bound.max_safe_values} worst-case values of "
                    f"{max_value}; the distribution holds "
                    f"{config.counter_size}",
                    file=file,
                    register=bound.register,
                    horizon=bound.max_safe_values,
                    counter_size=config.counter_size,
                )
            )
        elif bound.max_safe_values < 2 * config.counter_size:
            diagnostics.append(
                make(
                    "ST412",
                    f"{bound.register} has under 2x headroom: "
                    f"{bound.max_safe_values} worst-case values vs "
                    f"counter_size {config.counter_size}",
                    file=file,
                    register=bound.register,
                    horizon=bound.max_safe_values,
                )
            )
    if any(d.code == "ST411" for d in diagnostics):
        try:
            shift = safe_unit_shift(config, max_value)
        except ValueError:
            diagnostics.append(
                make(
                    "ST414",
                    "no unit shift makes this geometry overflow-safe; "
                    "widen stats_width or shrink counter_size",
                    file=file,
                )
            )
        else:
            diagnostics.append(
                make(
                    "ST413",
                    f"counting in 2^{shift} units makes every register "
                    f"absorb a full distribution (set extract shift={shift})",
                    file=file,
                    unit_shift=shift,
                )
            )
    return diagnostics
