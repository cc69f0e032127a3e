"""Hash-indexed sparse distributions (the paper's Sec. 5 future work).

"Stat4 currently allocates switch resources for every possible value in the
tracked distributions, even if some values are never observed. We will
explore techniques to avoid reserving memory for non-observed values (e.g.,
using hash-tables similarly to [23]) which would be especially beneficial
for sparse distributions."

:class:`HashedCells` implements that technique in the style of the cited
HashPipe: a fixed number of *stages*, each a (key, count) slot array indexed
by an independent multiply-shift hash.  Per packet the key probes one slot
per stage — a bounded, loop-free sequence a P4 pipeline can express:

- an empty slot claims the key;
- a matching slot increments;
- on a full miss, the *smallest* count along the probe path is evicted and
  its mass is accounted to ``evicted_mass`` (the estimate's error budget),
  keeping heavy keys resident like HashPipe does.

This lets a distribution over a huge, sparse domain (full /32 addresses,
16-bit ports) be tracked in a few dozen slots instead of a cell per possible
value; the moments (N, Xsum, Xsumsq) update through the same
``observe_frequency`` identity as dense distributions.

:meth:`HashedCells.increment` is the scalar specification, with register
accounting.  The batch engine's generated sparse loop
(:mod:`repro.stat4.compiled`) inlines it over the rows' cell lists and
takes each run's slots from :meth:`HashedCells.slot_paths`, the bulk
hash, which must equal :meth:`HashedCells.probe_path` key for key.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.p4.errors import ValueRangeError
from repro.p4.registers import RegisterArray, RegisterFile

try:  # pragma: no cover - absence exercised by the no-numpy CI job
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

__all__ = ["HashedCells"]

#: Unique-key count above which bulk probe hashing goes vectorized.
_VECTOR_THRESHOLD = 32

# Odd 64-bit multipliers for per-stage multiply-shift hashing.
_STAGE_SEEDS = (
    0x9E3779B97F4A7C15,
    0xC2B2AE3D27D4EB4F,
    0x165667B19E3779F9,
    0xD6E8FEB86659FD93,
)

#: Sentinel meaning "slot is empty" (keys are stored +1 so key 0 is usable).
_EMPTY = 0


class HashedCells:
    """A HashPipe-style multi-stage hash table of (key, count) slots.

    Args:
        slots_per_stage: slot count per stage (power of two recommended).
        stages: probe depth (1–4); each stage is one pipeline stage on
            hardware.
        registers: register file to allocate in (None = private).
        name: register name prefix.
        key_width: bit width of stored keys.
        count_width: bit width of counts.
    """

    def __init__(
        self,
        slots_per_stage: int = 64,
        stages: int = 2,
        registers: Optional[RegisterFile] = None,
        name: str = "sparse",
        key_width: int = 32,
        count_width: int = 32,
    ):
        if slots_per_stage <= 0:
            raise ValueRangeError("slots_per_stage must be positive")
        if not 0 < stages <= len(_STAGE_SEEDS):
            raise ValueRangeError(f"stages must be in [1, {len(_STAGE_SEEDS)}]")
        self.slots_per_stage = slots_per_stage
        self.stages = stages
        owner = registers if registers is not None else RegisterFile()
        self.registers = owner
        # Keys are stored offset by one so that 0 can mean "empty".
        self.key_rows: List[RegisterArray] = [
            owner.declare(f"{name}_keys{s}", key_width + 1, slots_per_stage)
            for s in range(stages)
        ]
        self.count_rows: List[RegisterArray] = [
            owner.declare(f"{name}_counts{s}", count_width, slots_per_stage)
            for s in range(stages)
        ]
        self.evictions = 0
        self.evicted_mass = 0
        self.resident_keys = 0

    # -- hashing ------------------------------------------------------------

    def _slot(self, key: int, stage: int) -> int:
        hashed = (key * _STAGE_SEEDS[stage]) & 0xFFFFFFFFFFFFFFFF
        return (hashed * self.slots_per_stage) >> 64

    def probe_path(self, key: int) -> Tuple[Tuple[int, int], ...]:
        """The ``(stage, slot)`` probe sequence for ``key``."""
        if key < 0:
            raise ValueRangeError("keys are unsigned")
        return tuple(
            (stage, self._slot(key, stage)) for stage in range(self.stages)
        )

    def slot_paths(self, keys: Iterable[int]) -> Dict[int, Tuple[int, ...]]:
        """The bulk slot hash: ``{key: (slot in stage 0, stage 1, ...)}``.

        The generated sparse kernel (:mod:`repro.stat4.compiled`) takes a
        run's unique keys hashed here once, so the multiply-shift hashes
        run once per key per run however often a packet repeats the key.
        From :data:`_VECTOR_THRESHOLD` unique keys up, each stage hashes
        every key in one numpy pass.  The scalar hash needs the high 64
        bits of the 128-bit ``hashed * slots_per_stage`` product, which
        uint64 lanes cannot hold, so ``hashed`` is split into 32-bit
        halves: with ``hashed = hi·2³² + lo`` and ``S = slots_per_stage``,
        ``(hashed·S) >> 64 == (hi·S + ((lo·S) >> 32)) >> 32``, and every
        intermediate fits 64 bits while ``S < 2³¹``.  Below the threshold,
        without numpy, or outside those bounds the pure-Python loop runs
        :meth:`_slot`; both equal :meth:`probe_path` key for key.
        """
        keys = list(keys)
        if not keys:
            return {}
        if min(keys) < 0:
            raise ValueRangeError("keys are unsigned")
        stages = range(self.stages)
        if (
            _np is None
            or len(keys) < _VECTOR_THRESHOLD
            or self.slots_per_stage >= 1 << 31
            or max(keys) > 0xFFFFFFFFFFFFFFFF
        ):
            slot = self._slot
            return {key: tuple(slot(key, stage) for stage in stages) for key in keys}
        arr = _np.asarray(keys, dtype=_np.uint64)  # p4-ok: host-side batch amortization of the per-packet hash
        spread = _np.uint64(self.slots_per_stage)  # p4-ok: host-side batch amortization
        half = _np.uint64(32)  # p4-ok: host-side batch amortization
        low_mask = _np.uint64(0xFFFFFFFF)  # p4-ok: host-side batch amortization
        per_stage = []
        for stage in stages:
            hashed = arr * _np.uint64(_STAGE_SEEDS[stage])  # wraps mod 2^64  # p4-ok: host-side batch amortization
            hi = hashed >> half
            lo = hashed & low_mask
            per_stage.append(((hi * spread + ((lo * spread) >> half)) >> half).tolist())
        return dict(zip(keys, zip(*per_stage)))

    # -- updates -------------------------------------------------------------

    def increment(self, key: int) -> Tuple[int, int, int]:
        """Count one occurrence of ``key``.

        The scalar specification of the update; the generated sparse
        kernel inlines it over the rows' cell lists.

        Returns:
            ``(old_count, new_count, evicted_count)`` — the first two feed
            the moments update (``observe_frequency``); ``evicted_count``
            is the count of a victim displaced by a full probe path (0 when
            nothing was evicted) so the moments can forget it
            (:meth:`repro.core.stats.ScaledStats.remove_value`).
        """
        stored = key + 1
        # Pass 1 (bounded, unrolled): find the key or an empty slot.
        path: List[Tuple[int, int]] = []
        for stage, index in self.probe_path(key):
            slot_key = self.key_rows[stage].read(index)
            if slot_key == stored:
                old = self.count_rows[stage].read(index)
                self.count_rows[stage].write(index, old + 1)
                return old, old + 1, 0
            if slot_key == _EMPTY:
                self.key_rows[stage].write(index, stored)
                self.count_rows[stage].write(index, 1)
                self.resident_keys += 1
                return 0, 1, 0
            path.append((stage, index))
        # Full miss: evict the lightest occupant along the probe path.
        victim_stage, victim_index = min(
            path, key=lambda si: self.count_rows[si[0]].read(si[1])
        )
        victim_count = self.count_rows[victim_stage].read(victim_index)
        self.evictions += 1
        self.evicted_mass += victim_count
        self.key_rows[victim_stage].write(victim_index, stored)
        self.count_rows[victim_stage].write(victim_index, 1)
        return 0, 1, victim_count

    # -- reads ---------------------------------------------------------------

    def count_of(self, key: int) -> int:
        """Current count for ``key`` (0 if not resident)."""
        stored = key + 1
        for stage in range(self.stages):
            index = self._slot(key, stage)
            if self.key_rows[stage].read(index) == stored:
                return self.count_rows[stage].read(index)
        return 0

    def items(self) -> List[Tuple[int, int]]:
        """All resident ``(key, count)`` pairs (controller-side dump)."""
        found = []
        for stage in range(self.stages):
            keys = self.key_rows[stage].dump()
            counts = self.count_rows[stage].dump()
            for slot_key, count in zip(keys, counts):
                if slot_key != _EMPTY:
                    found.append((slot_key - 1, count))
        return found

    def clear(self) -> None:
        """Control-plane reset."""
        for row in self.key_rows:
            row.fill(_EMPTY)
        for row in self.count_rows:
            row.fill(0)
        self.evictions = 0
        self.evicted_mass = 0
        self.resident_keys = 0

    @property
    def capacity(self) -> int:
        """Total slots."""
        return self.stages * self.slots_per_stage

    @property
    def bytes_used(self) -> int:
        """Memory of all key and count rows."""
        return sum(r.bytes_used for r in self.key_rows) + sum(
            r.bytes_used for r in self.count_rows
        )
