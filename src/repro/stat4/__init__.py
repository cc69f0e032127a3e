"""Stat4: the paper's P4 library for in-switch statistics.

Tracks distributions of values extracted from packets — frequencies or
windowed time series — and maintains mean, variance, standard deviation and
percentiles online with P4-legal integer operations, raising digests when
the configured anomaly checks fire.  Binding tables let a controller retune
what is tracked at runtime without recompiling.
"""

from repro.stat4.batch import HAS_NUMPY, BatchEngine, BatchResult, PacketBatch
from repro.stat4.binding import (
    MATCH_ALL,
    TRACK_ACTION,
    BindingMatch,
    binding_key_of,
    build_binding_table,
)
from repro.stat4.config import DEFAULT_CONFIG, Stat4Config
from repro.stat4.distributions import DistributionKind, DistributionState, TrackSpec
from repro.stat4.extract import ExtractSpec
from repro.stat4.library import Stat4
from repro.stat4.runtime import BindingHandle, Stat4Runtime
from repro.stat4.sparse import HashedCells

__all__ = [
    "Stat4",
    "PacketBatch",
    "BatchEngine",
    "BatchResult",
    "HAS_NUMPY",
    "Stat4Config",
    "DEFAULT_CONFIG",
    "Stat4Runtime",
    "BindingHandle",
    "BindingMatch",
    "MATCH_ALL",
    "TRACK_ACTION",
    "binding_key_of",
    "build_binding_table",
    "DistributionKind",
    "DistributionState",
    "TrackSpec",
    "ExtractSpec",
    "HashedCells",
]
