"""The Stat4 library: register-backed online statistics driven by bindings.

This is the reproduction of the P4 library the paper describes in Sec. 3.
A :class:`Stat4` instance owns

- the register layout of Figure 4 (a flattened value-cell array sized by
  ``STAT_COUNTER_NUM × STAT_COUNTER_SIZE``, plus per-distribution registers
  for N, Xsum, Xsumsq, σ², σ, the percentile position bookkeeping and the
  time-window cursor),
- ``binding_stages`` binding tables the controller populates at runtime,
- the per-packet update logic for both distribution kinds, and
- the declared step graph the resource model analyses (the paper's
  "longest dependency chain has 12 sequential steps" lives here).

Applications call :meth:`Stat4.process` from their ingress control; the
library looks the packet up in every binding stage and applies at most one
matching rule per stage.  All derived measures are recomputed *lazily*,
only when a value joins a distribution (Sec. 3), and every piece of state
is mirrored in the registers the controller can read.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from repro.p4.errors import ResourceError
from repro.p4.pipeline import DependencyGraph, PipelineProgram
from repro.p4.registers import RegisterFile
from repro.p4.switch import PacketContext
from repro.p4.tables import Table
from repro.stat4.binding import TRACK_ACTION, binding_key_of, build_binding_table
from repro.stat4.config import DEFAULT_CONFIG, Stat4Config
from repro.stat4.distributions import (
    DistributionKind,
    DistributionState,
    TrackSpec,
)
from repro.stat4.sparse import HashedCells

__all__ = ["Stat4", "SNAPSHOT_EXCLUDED", "diff"]


class Stat4:
    """The in-switch statistics library.

    Args:
        config: compile-time geometry (the STAT_COUNTER_* macros).
        registers: the program's register file to allocate into; a private
            one is created when omitted (library-only tests).
    """

    def __init__(
        self,
        config: Stat4Config = DEFAULT_CONFIG,
        registers: Optional[RegisterFile] = None,
    ):
        self.config = config
        self.registers = registers if registers is not None else RegisterFile()
        cfg = config
        # Figure 4's layout: one flat cell array plus per-distribution
        # statistical-measure registers.
        self.counters = self.registers.declare(
            "stat4_counters", cfg.counter_width, cfg.total_counter_cells
        )
        self.reg_n = self.registers.declare("stat4_n", cfg.stats_width, cfg.counter_num)
        self.reg_xsum = self.registers.declare(
            "stat4_xsum", cfg.stats_width, cfg.counter_num
        )
        self.reg_xsumsq = self.registers.declare(
            "stat4_xsumsq", cfg.stats_width, cfg.counter_num
        )
        self.reg_var = self.registers.declare(
            "stat4_var", cfg.stats_width, cfg.counter_num
        )
        self.reg_sd = self.registers.declare(
            "stat4_sd", cfg.stats_width, cfg.counter_num
        )
        self.reg_pos = self.registers.declare("stat4_pos", 32, cfg.counter_num)
        self.reg_low = self.registers.declare("stat4_low", 32, cfg.counter_num)
        self.reg_high = self.registers.declare("stat4_high", 32, cfg.counter_num)
        self.reg_window_index = self.registers.declare(
            "stat4_window_index", 32, cfg.counter_num
        )
        self.reg_current = self.registers.declare(
            "stat4_current", cfg.stats_width, cfg.counter_num
        )
        self.reg_interval_start = self.registers.declare(
            "stat4_interval_start", 64, cfg.counter_num
        )
        # Sec.-5 extension: slots compiled with hashed (sparse) storage.
        self.sparse_cells: Dict[int, HashedCells] = {
            dist: HashedCells(
                slots_per_stage=cfg.sparse_slots,
                stages=cfg.sparse_stages,
                registers=self.registers,
                name=f"stat4_sparse{dist}",
                key_width=32,
                count_width=cfg.counter_width,
            )
            for dist in cfg.sparse_dists
        }
        self.binding_tables: List[Table] = [
            build_binding_table(stage) for stage in range(cfg.binding_stages)
        ]
        self.graph = _declare_steps()
        self._states: Dict[int, DistributionState] = {}
        self._engine = None
        self.alerts_emitted = 0
        self.packets_seen = 0

    # -- program integration ---------------------------------------------------

    def install_into(self, program: PipelineProgram) -> None:
        """Register the binding tables (and step graph) with a program."""
        for table in self.binding_tables:
            program.add_table(table)
        program.graph.extend(self.graph.steps)

    # -- per-packet entry point ---------------------------------------------------

    def process(self, ctx: PacketContext) -> None:
        """Apply every binding stage to one packet.

        Each stage contributes at most one matching rule; their actions are
        independent, preserving the paper's "at most one dependency between
        match-action rules".
        """
        self.packets_seen += 1
        key = binding_key_of(ctx)
        now = ctx.meta.timestamp
        for table in self.binding_tables:
            entry = table.lookup(key)
            if entry is None or entry.action != TRACK_ACTION:
                continue
            spec: TrackSpec = entry.params["spec"]
            self._apply(ctx, spec, now)

    def process_batch(self, batch):
        """Apply every binding stage to a whole :class:`PacketBatch`.

        The batched fast path: bit-identical register and working state to
        calling :meth:`process` per packet, at a fraction of the cost (see
        :mod:`repro.stat4.batch`).  Returns the :class:`BatchResult` with
        the digests the batch produced, in scalar emission order.
        """
        return self.batch_engine().process(batch)

    def batch_engine(self):
        """This instance's :class:`~repro.stat4.batch.BatchEngine`, built on
        first use and kept, so its binding memo lives as long as the
        instance."""
        if self._engine is None:
            from repro.stat4.batch import BatchEngine

            self._engine = BatchEngine(self)
        return self._engine

    def _apply(self, ctx: PacketContext, spec: TrackSpec, now: float) -> None:
        state = self._state_for(spec)
        frame_bytes = ctx.user.get("frame_bytes", 0)
        value = spec.extract.extract(ctx, frame_bytes)
        if value is not None and not spec.accepts(value):
            # Outside this binding's value filter (e.g. the other mode of a
            # bimodal split): not a value of interest for this slot.
            value = None
        if spec.kind is DistributionKind.FREQUENCY:
            self._update_frequency(state, ctx, value, now)
        elif spec.kind is DistributionKind.SPARSE_FREQUENCY:
            self._update_sparse(state, ctx, value, now)
        else:
            self._update_time_series(state, ctx, value, now)

    # -- state management -----------------------------------------------------------

    def _state_for(self, spec: TrackSpec) -> DistributionState:
        if spec.dist >= self.config.counter_num:
            raise ResourceError(
                f"distribution {spec.dist} exceeds STAT_COUNTER_NUM="
                f"{self.config.counter_num}"
            )
        if (
            spec.kind is DistributionKind.SPARSE_FREQUENCY
            and spec.dist not in self.sparse_cells
        ):
            raise ResourceError(
                f"distribution {spec.dist} was not compiled with sparse "
                f"storage (Stat4Config.sparse_dists={self.config.sparse_dists})"
            )
        existing = self._states.get(spec.dist)
        if existing is not None and existing.spec == spec:
            return existing
        # A new or re-purposed slot: reset its registers and working state.
        state = DistributionState.fresh(spec, self.config.counter_size)
        self._states[spec.dist] = state
        self._reset_slot(spec.dist)
        return state

    def _reset_slot(self, dist: int) -> None:
        base = self.config.cell_index(dist, 0)
        for offset in range(self.config.counter_size):
            self.counters.write(base + offset, 0)
        if dist in self.sparse_cells:
            self.sparse_cells[dist].clear()
        for reg in (
            self.reg_n,
            self.reg_xsum,
            self.reg_xsumsq,
            self.reg_var,
            self.reg_sd,
            self.reg_pos,
            self.reg_low,
            self.reg_high,
            self.reg_window_index,
            self.reg_current,
            self.reg_interval_start,
        ):
            reg.write(dist, 0)

    def state_of(self, dist: int) -> Optional[DistributionState]:
        """The working state of a slot (None if never bound)."""
        return self._states.get(dist)

    # -- frequency distributions ------------------------------------------------------

    def _update_frequency(
        self,
        state: DistributionState,
        ctx: PacketContext,
        value: Optional[int],
        now: float,
    ) -> None:
        if value is None:
            # Matched, but no value of interest: still helps the percentile
            # tracker walk (Sec. 2's remark on value-free packets).
            if state.tracker is not None and state.tracker.has_value:
                state.tracker.tick()
                self._sync_percentile(state, ctx, now)
            return
        if value >= self.config.counter_size:
            state.values_dropped += 1
            return
        dist = state.spec.dist
        cell = self.config.cell_index(dist, value)
        old_count = self.counters.read(cell)
        new_count = state.stats.observe_frequency(old_count)
        self.counters.write(cell, new_count)
        if state.tracker is not None:
            state.tracker.observe(value)
            self._sync_percentile(state, ctx, now)
        # A value joined the distribution: lazily recompute the measures.
        self._sync_stats(state)
        self._maybe_alert(state, ctx, sample=new_count, index=value, now=now)

    # -- sparse (hashed) frequency distributions ------------------------------------------

    def _update_sparse(
        self,
        state: DistributionState,
        ctx: PacketContext,
        value: Optional[int],
        now: float,
    ) -> None:
        """The Sec.-5 technique: frequencies over a sparse domain in hashed
        slots, with evicted values removed from the moments so the stats
        keep describing exactly the resident set."""
        if value is None:
            return
        cells = self.sparse_cells[state.spec.dist]
        old_count, new_count, evicted = cells.increment(value)
        if evicted:
            state.stats.remove_value(evicted)
        state.stats.observe_frequency(old_count)
        self._sync_stats(state)
        self._maybe_alert(state, ctx, sample=new_count, index=value, now=now)

    # -- time-series distributions -------------------------------------------------------

    def _update_time_series(
        self,
        state: DistributionState,
        ctx: PacketContext,
        value: Optional[int],
        now: float,
    ) -> None:
        spec = state.spec
        dist = spec.dist
        if state.interval_start is None:
            state.interval_start = now
            self.reg_interval_start.write(dist, _to_us(now))
        elif now - state.interval_start >= spec.interval:
            self._close_interval(state, ctx, now)
        state.current_count += value if value is not None else 0
        self.reg_current.write(dist, state.current_count)

    def _close_interval(self, state: DistributionState, ctx: PacketContext, now: float) -> None:
        spec = state.spec
        dist = spec.dist
        cfg = self.config
        completed = state.current_count
        # Check the completed interval against the distribution *before*
        # absorbing it, so a spike is judged against the normal history.
        if state.window_filled >= spec.min_samples:
            self._maybe_alert(
                state, ctx, sample=completed, index=state.window_index, now=now
            )
        cell = cfg.cell_index(dist, state.window_index)
        if state.window_is_full(cfg.counter_size):
            old_value = self.counters.read(cell)
            state.stats.replace_value(old_value, completed)
        else:
            state.stats.add_value(completed)
            state.window_filled += 1
        self.counters.write(cell, completed)
        # Advance the circular cursor without modulo: compare and reset.
        next_index = state.window_index + 1
        if next_index == state.effective_window(cfg.counter_size):
            next_index = 0
        state.window_index = next_index
        self.reg_window_index.write(dist, next_index)
        state.interval_start += spec.interval
        # Silent-gap rule: if more than one whole interval elapsed while no
        # packet arrived, snap to now (one comparison; P4 cannot loop to
        # close every missed interval).
        if now - state.interval_start >= spec.interval:
            state.interval_start = now
        self.reg_interval_start.write(dist, _to_us(state.interval_start))
        state.current_count = 0
        state.intervals_closed += 1
        # A value joined the distribution: lazily recompute the measures.
        self._sync_stats(state)

    # -- alerts -----------------------------------------------------------------------

    def _maybe_alert(
        self,
        state: DistributionState,
        ctx: PacketContext,
        sample: int,
        index: int,
        now: float,
    ) -> None:
        spec = state.spec
        if spec.k_sigma <= 0:
            return
        if state.stats.count < spec.min_samples:
            return
        cooldown = max(self.config.alert_cooldown, spec.cooldown)
        if state.cooldown_active(now, cooldown):
            return
        if not state.stats.is_outlier(sample, k_sigma=spec.k_sigma, margin=spec.margin):
            return
        state.last_alert = now
        self.alerts_emitted += 1
        ctx.emit_digest(
            spec.alert,
            dist=spec.dist,
            index=index,
            sample=sample,
            scaled_sample=state.stats.scaled(sample),
            xsum=state.stats.xsum,
            stddev_nx=state.stats.stddev_nx,
            count=state.stats.count,
            generation=spec.generation,
        )

    # -- register mirroring ----------------------------------------------------------------

    def _sync_stats(self, state: DistributionState) -> None:
        dist = state.spec.dist
        stats = state.stats
        self.reg_n.write(dist, stats.count)
        self.reg_xsum.write(dist, stats.xsum)
        self.reg_xsumsq.write(dist, stats.xsumsq)
        self.reg_var.write(dist, stats.variance_nx)
        self.reg_sd.write(dist, stats.stddev_nx)

    def _sync_percentile(
        self, state: DistributionState, ctx: PacketContext, now: float
    ) -> None:
        dist = state.spec.dist
        tracker = state.tracker
        assert tracker is not None
        if tracker.has_value:
            previous = self.reg_pos.read(dist)
            position = tracker.value
            self.reg_pos.write(dist, position)
            if position != previous:
                self._maybe_percentile_alert(state, ctx, position, previous, now)
        self.reg_low.write(dist, tracker.low)
        self.reg_high.write(dist, tracker.high)

    def _maybe_percentile_alert(
        self,
        state: DistributionState,
        ctx: PacketContext,
        position: int,
        previous: int,
        now: float,
    ) -> None:
        """The Sec.-2 "change rates of percentiles" signal: the tracked
        percentile moved to a different value."""
        spec = state.spec
        if not spec.percentile_alert:
            return
        if state.stats.count < spec.min_samples:
            return
        cooldown = max(self.config.alert_cooldown, spec.cooldown)
        if state.last_percentile_alert is not None and cooldown > 0:
            if now - state.last_percentile_alert < cooldown:
                return
        state.last_percentile_alert = now
        self.alerts_emitted += 1
        ctx.emit_digest(
            spec.percentile_alert,
            dist=spec.dist,
            position=position,
            previous=previous,
            percent=spec.percent if spec.percent is not None else 0,
            generation=spec.generation,
        )

    # -- controller-facing reads --------------------------------------------------------------

    def read_measures(self, dist: int) -> Dict[str, int]:
        """Read one slot's statistical measures from the registers."""
        return {
            "n": self.reg_n.read(dist),
            "xsum": self.reg_xsum.read(dist),
            "xsumsq": self.reg_xsumsq.read(dist),
            "variance": self.reg_var.read(dist),
            "stddev": self.reg_sd.read(dist),
            "percentile_pos": self.reg_pos.read(dist),
        }

    def read_cells(self, dist: int) -> List[int]:
        """Read one slot's value cells (the distribution itself)."""
        base = self.config.cell_index(dist, 0)
        return [
            self.counters.read(base + offset)
            for offset in range(self.config.counter_size)
        ]

    def read_sparse_items(self, dist: int) -> List[tuple]:
        """Resident ``(key, count)`` pairs of a sparse slot (Sec. 5)."""
        try:
            cells = self.sparse_cells[dist]
        except KeyError:
            raise ResourceError(
                f"distribution {dist} has no sparse storage"
            ) from None
        return cells.items()

    def snapshot(self) -> Dict[str, Any]:
        """The detector's state as a plain nested mapping, read with no side
        effect.  Slot attributes (with ``stats`` and ``tracker`` nested) are
        walked, not listed, so a field added later joins every comparison;
        :data:`SNAPSHOT_EXCLUDED` names what is left out."""
        return {
            "packets_seen": self.packets_seen,
            "alerts_emitted": self.alerts_emitted,
            "registers": {reg.name: reg.peek() for reg in self.registers},
            "tables": {
                t.name: {"lookups": t.lookups, "hits": t.hits} for t in self.binding_tables
            },
            "slots": {dist: _attributes(s) for dist, s in sorted(self._states.items())},
            "sparse": {
                dist: {name: getattr(cells, name) for name in _SPARSE_COUNTERS}
                for dist, cells in self.sparse_cells.items()
            },
        }


#: What :meth:`Stat4.snapshot` leaves out, and why.  Register read/write
#: accounting is left out too, for the first reason: ``peek`` skips it.
SNAPSHOT_EXCLUDED = {
    "sd_recomputations": "the batch path coalesces σ recomputation by design",
    "square": "code, not state",
}
_SPARSE_COUNTERS = ("resident_keys", "evictions", "evicted_mass")
_ABSENT = object()


def _attributes(obj: Any) -> Dict[str, Any]:
    """``vars(obj)`` bar :data:`SNAPSHOT_EXCLUDED`, with lists copied and a
    slot's ``stats`` and ``tracker`` nested."""
    view = {}
    for name, value in vars(obj).items():
        if name in ("stats", "tracker") and value is not None:
            value = _attributes(value)
        if name not in SNAPSHOT_EXCLUDED:
            view[name] = list(value) if isinstance(value, list) else value
    return view


def diff(a: Mapping[Any, Any], b: Mapping[Any, Any]) -> List[str]:
    """The dotted paths of the entries two snapshots differ in, in order,
    such as ``slots.0.tracker.moves``; an entry one side lacks (a slot
    bound on one side only) differs whole."""
    paths: List[str] = []
    for key in {**a, **b}:
        left, right = a.get(key, _ABSENT), b.get(key, _ABSENT)
        if isinstance(left, Mapping) and isinstance(right, Mapping):
            paths += [f"{key}.{path}" for path in diff(left, right)]
        elif left != right:
            paths.append(str(key))
    return paths


def _to_us(seconds: float) -> int:
    """Seconds → integer microseconds (switch timestamps are integers)."""
    return int(round(seconds * 1_000_000))


def _declare_steps() -> DependencyGraph:
    """The declared sequential structure of the time-series update path.

    This is the code path the paper singles out: "The longest dependency
    chain in our code has 12 sequential steps, used to override the oldest
    counter in distributions of traffic over time" (Sec. 4).  Each step
    names what it reads and writes; the resource model derives stage needs.
    """
    graph = DependencyGraph()
    graph.add("binding_lookup", reads={"hdr.fields"}, writes={"meta.spec"})
    graph.add(
        "load_interval_start",
        reads={"meta.spec", "reg.interval_start"},
        writes={"meta.start"},
    )
    graph.add(
        "rollover_compare",
        reads={"meta.start", "std.timestamp"},
        writes={"meta.rollover"},
    )
    graph.add(
        "load_window_index",
        reads={"meta.rollover", "reg.window_index"},
        writes={"meta.idx"},
    )
    graph.add(
        "load_oldest_cell", reads={"meta.idx", "reg.counters"}, writes={"meta.old"}
    )
    graph.add(
        "store_new_cell",
        reads={"meta.idx", "reg.current"},
        writes={"reg.counters"},
    )
    graph.add(
        "update_xsum",
        reads={"reg.xsum", "reg.current", "meta.old"},
        writes={"reg.xsum"},
    )
    graph.add(
        "square_old_and_new",
        reads={"meta.old", "reg.current"},
        writes={"meta.squares"},
    )
    graph.add(
        "update_xsumsq", reads={"reg.xsumsq", "meta.squares"}, writes={"reg.xsumsq"}
    )
    graph.add(
        "compute_variance",
        reads={"reg.n", "reg.xsumsq", "reg.xsum"},
        writes={"reg.var"},
    )
    graph.add("find_msb", reads={"reg.var"}, writes={"meta.msb"})
    graph.add("compute_sd", reads={"meta.msb", "reg.var"}, writes={"reg.sd"})
    graph.add(
        "anomaly_check",
        reads={"reg.sd", "reg.xsum", "reg.current"},
        writes={"meta.alert"},
    )
    graph.add(
        "advance_window",
        reads={"meta.idx"},
        writes={"reg.window_index", "reg.interval_start", "reg.current"},
    )
    return graph
