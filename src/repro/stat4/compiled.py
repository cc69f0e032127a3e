# p4-ok-file — host-side batch code generator; the per-packet P4 semantics
# it specializes live (and are linted) in repro.stat4.library, and the
# generated sources themselves are audited by ST510/ST511.
# race-ok file: KernelLibrary holds no mutable state, and the one kernel
# cache is a functools.lru_cache, which is safe to share across threads.
"""Generated per-packet kernels for the order-dependent shapes.

The paper's pitch is that Stat4 runs at line rate because the restricted
operation set (adds, shifts, compares, table lookups) compiles to cheap
hardware stages.  The software analogue of "compiles" is taken literally
here: for every kernel shape whose update cannot be reordered — dense
frequency with a k·σ check and/or a percentile alert, tracked or not, and
hashed sparse frequency with or without k·σ — this module *generates
Python source* for a monomorphic per-packet loop.  Every spec constant
(cell domain, width mask, k·σ, cooldown, percentile weights) is baked in
as a literal, every polymorphic dispatch of the scalar library (attribute
lookups, None checks, register accounting) is specialized away, and the
source is ``exec``-compiled once per ``(shape, constants)``.

The loops run over plain Python ints, so they need no numpy: the
:class:`KernelLibrary` gathers a run's values into plain lists on every
backend.  The same loop serves three callers —
:class:`~repro.stat4.batch.BatchEngine`, the merge workers' speculation,
and the parallel reconciler's replay (:mod:`repro.stat4.parallel`) — so
a chunk replayed on the parent and a chunk speculated in a worker run
the same code.

A frequency kernel's working state travels as one flat tuple (see
:func:`pack_frequency_state`); the loop takes it as its trailing
positional arguments and returns it, updated, in the same layout.  A
worker can therefore speculate from a shipped snapshot and hand back an
exit state the parent installs exactly as a serial run's.

Exactness contract: a generated kernel leaves *bit-identical* state to the
scalar library — registers, moments, tracker state, cooldown stamps,
digests and their order.  The hypothesis differentials in
``tests/stat4/test_batch_differential.py`` and
``tests/stat4/test_parallel_differential.py`` gate this.

The generated source stays inside the restricted op set the analyzer can
audit — integer add/sub/shift/mask, compile-time-constant multiplies,
``checked_multiply`` for the runtime multiplies of the σ²·N² check, and
``approx_isqrt``.  Rule ST510 walks every generated kernel's AST against
that whitelist, and ST511 cross-checks each kernel's ``# parallel-mode:``
pragma against the dataflow-derived eligibility table (see
:func:`repro.analysis.concurrency.check_generated_kernels`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from repro.core.approx import approx_isqrt
from repro.p4.values import checked_multiply
from repro.stat4.distributions import (
    DistributionKind,
    DistributionState,
    KernelShape,
    TrackSpec,
    enumerate_shapes,
)
from repro.traffic.columns import DIGEST_KIND_KSIGMA, DIGEST_KIND_PERCENTILE

#: Cap on cached compiled kernels per process.  A rebind mints a new
#: generation, which is part of the cache key, so a rebound slot misses
#: and recompiles; the cap bounds what stale generations can pin.
_CACHE_LIMIT = 64


@dataclass(frozen=True)
class KernelConstants:
    """Every compile-time constant a generated kernel bakes in.

    One value per knob the scalar library reads per packet; part of the
    kernel cache key, so two specs sharing a shape and these constants
    share one compiled kernel.
    """

    size: int
    width_mask: int
    k_sigma: int
    min_samples: int
    margin: int
    cooldown: float
    wl: int
    wh: int
    generation: int

    @classmethod
    def of_spec(cls, spec: TrackSpec, config, width: int) -> "KernelConstants":
        percent = spec.percent if spec.percent is not None else 0
        return cls(
            size=config.counter_size,
            width_mask=(1 << width) - 1,
            k_sigma=spec.k_sigma,
            min_samples=spec.min_samples,
            margin=spec.margin,
            cooldown=max(config.alert_cooldown, spec.cooldown),
            wl=percent,
            wh=100 - percent,
            generation=spec.generation,
        )


# -- source templates -----------------------------------------------------------------
#
# Every template replicates one scalar update path of repro.stat4.library
# statement for statement; the comments in the templates name the scalar
# method each block mirrors.  Constants are interpolated with repr() so
# floats round-trip exactly.


def _header(shape: KernelShape, mode: str) -> List[str]:
    return [
        "# generated by repro.stat4.compiled — do not edit",
        f"# shape: {shape.key}",
        f"# parallel-mode: {mode}",
    ]


def _rebalance_lines(c: KernelConstants, pad: str) -> List[str]:
    """One ``PercentileTracker.rebalance`` step (steps_per_update == 1)."""
    p = pad
    return [
        f"{p}at = freqs[pos]",
        f"{p}if {c.wl} * high > {c.wh} * (low + at) and pos < {c.size - 1}:",
        f"{p}    low = low + at",
        f"{p}    pos = pos + 1",
        f"{p}    high = high - freqs[pos]",
        f"{p}    moves = moves + 1",
        f"{p}elif {c.wh} * low > {c.wl} * (high + at) and pos > 0:",
        f"{p}    high = high + at",
        f"{p}    pos = pos - 1",
        f"{p}    low = low - freqs[pos]",
        f"{p}    moves = moves + 1",
    ]


def _sync_percentile_lines(c: KernelConstants, pad: str, pa: bool) -> List[str]:
    """``Stat4._sync_percentile``: mirror the position register, and fire
    the percentile-move alert when the mirrored position changed."""
    p = pad
    lines = [
        f"{p}previous = pos_mirror",
        f"{p}pos_mirror = pos",
        f"{p}synced = True",
    ]
    if pa:
        lines.append(f"{p}if pos != previous:")
        lines.append(f"{p}    if count >= {c.min_samples}:")
        inner = p + "        "
        if c.cooldown > 0:
            lines.append(
                f"{p}        if last_pa is None or now - last_pa >= {c.cooldown!r}:"
            )
            inner = p + "            "
        lines.append(f"{inner}last_pa = now")
        lines.append(
            f"{inner}records.append(({DIGEST_KIND_PERCENTILE}, i, pos, previous))"
        )
    return lines


def _ksigma_lines(c: KernelConstants, pad: str, sample: str, index: str) -> List[str]:
    """``Stat4._maybe_alert``: min-samples gate, cooldown gate, then the
    division-free k·σ outlier check of ``ScaledStats.is_outlier`` (with
    the lazy ``stddev_nx`` recompute inlined)."""
    p = pad
    lines = [f"{p}if count >= {c.min_samples}:"]
    inner = p + "    "
    if c.cooldown > 0:
        lines.append(
            f"{inner}if last_alert is None or now - last_alert >= {c.cooldown!r}:"
        )
        inner = inner + "    "
    lines += [
        f"{inner}if sd_dirty:",
        f"{inner}    var = checked_multiply(count, xsumsq, runtime_operands=2) - square(xsum)",
        f"{inner}    if var < 0:",
        f"{inner}        var = 0",
        f"{inner}    cached_sd = approx_isqrt(var)",
        f"{inner}    sd_dirty = False",
        f"{inner}threshold = xsum + {c.k_sigma} * cached_sd",
    ]
    if c.margin:
        lines.append(
            f"{inner}threshold = threshold + "
            f"checked_multiply(count, {c.margin}, runtime_operands=2)"
        )
    lines += [
        f"{inner}scaled_sample = checked_multiply(count, {sample}, runtime_operands=2)",
        f"{inner}if scaled_sample > threshold:",
        f"{inner}    last_alert = now",
        f"{inner}    records.append(({DIGEST_KIND_KSIGMA}, i, {index}, {sample}, "
        "scaled_sample, xsum, cached_sd, count))",
    ]
    return lines


def _frequency_state_names(shape: KernelShape) -> List[str]:
    """The flat working-state layout of a dense frequency kernel."""
    names = [
        "cells",
        "count",
        "xsum",
        "xsumsq",
        "updates",
        "cached_sd",
        "sd_dirty",
        "last_alert",
    ]
    if shape.percentile_alert:
        names.append("last_pa")
    if shape.tracked:
        names += ["freqs", "low", "high", "total", "moves", "pos", "pos_mirror"]
    return names


def _frequency_loop_source(shape: KernelShape, c: KernelConstants) -> str:
    """Dense frequency with alerts: the monomorphic per-packet loop
    (``Stat4._update_frequency`` with every constant and attribute lookup
    specialized away; state lives in plain locals)."""
    tracked = shape.tracked
    state = _frequency_state_names(shape)
    lines = _header(shape, "merge")
    lines.append(f"def kernel(vlist, tlist, square, records, {', '.join(state)}):")
    lines.append("    dropped = 0")
    lines.append("    observed = 0")
    lines.append("    synced = False")
    lines.append("    for i in range(len(vlist)):")
    lines.append("        v = vlist[i]")
    lines.append("        now = tlist[i]")
    lines.append("        if v < 0:")
    if tracked:
        # value-free packet: tick + sync iff the tracker has a position
        lines.append("            if pos >= 0:")
        lines += _rebalance_lines(c, "                ")
        lines += _sync_percentile_lines(c, "                ", shape.percentile_alert)
    lines.append("            continue")
    lines.append(f"        if v >= {c.size}:")
    lines.append("            dropped = dropped + 1")
    lines.append("            continue")
    # ScaledStats.observe_frequency (sample is the *unmasked* old + 1)
    lines += [
        "        old = cells[v]",
        "        new = old + 1",
        "        if old == 0:",
        "            count = count + 1",
        "        xsum = xsum + 1",
        "        xsumsq = xsumsq + (old << 1) + 1",
        "        updates = updates + 1",
        "        sd_dirty = True",
        f"        cells[v] = new & {c.width_mask}",
        "        observed = observed + 1",
    ]
    if tracked:
        # PercentileTracker.observe
        lines += [
            "        freqs[v] = freqs[v] + 1",
            "        total = total + 1",
            "        if pos < 0:",
            "            pos = v",
            "        elif v < pos:",
            "            low = low + 1",
            "        elif v > pos:",
            "            high = high + 1",
        ]
        lines += _rebalance_lines(c, "        ")
        lines += _sync_percentile_lines(c, "        ", shape.percentile_alert)
    if shape.alerting:
        lines += _ksigma_lines(c, "        ", sample="new", index="v")
    lines.append(f"    return dropped, observed, synced, ({', '.join(state)},)")
    return "\n".join(lines) + "\n"


_SPARSE_STATE = (
    "count",
    "xsum",
    "xsumsq",
    "updates",
    "cached_sd",
    "sd_dirty",
    "last_alert",
)


def _sparse_loop_source(shape: KernelShape, c: KernelConstants) -> str:
    """Hashed sparse frequency: per-packet probe/evict/observe loop with
    the moments and the k·σ gate inlined (``Stat4._update_sparse``)."""
    state = ", ".join(_SPARSE_STATE)
    lines = _header(shape, "serial")
    lines.append(
        f"def kernel(vlist, tlist, square, records, increment, probes, {state}):"
    )
    lines.append("    observed = 0")
    lines.append("    for i in range(len(vlist)):")
    lines.append("        v = vlist[i]")
    lines.append("        if v < 0:")
    lines.append("            continue")
    if shape.alerting:
        lines.append("        now = tlist[i]")
    lines.append("        old, new, evicted = increment(v, probes[v])")
    # ScaledStats.remove_value for the evicted resident
    lines += [
        "        if evicted:",
        "            if count == 0:",
        "                raise ValueError('cannot remove a value from an "
        "empty distribution')",
        "            count = count - 1",
        "            xsum = xsum - evicted",
        "            if xsum < 0:",
        "                xsum = 0",
        "            xsumsq = xsumsq - square(evicted)",
        "            if xsumsq < 0:",
        "                xsumsq = 0",
        "            updates = updates + 1",
        "            sd_dirty = True",
    ]
    # ScaledStats.observe_frequency(old)
    lines += [
        "        if old == 0:",
        "            count = count + 1",
        "        xsum = xsum + 1",
        "        xsumsq = xsumsq + (old << 1) + 1",
        "        updates = updates + 1",
        "        sd_dirty = True",
        "        observed = observed + 1",
    ]
    if shape.alerting:
        lines += _ksigma_lines(c, "        ", sample="new", index="v")
    lines.append(f"    return observed, ({state},)")
    return "\n".join(lines) + "\n"


def generate_kernel_source(shape: KernelShape, constants: KernelConstants) -> str:
    """The monomorphic kernel source for one shape × constants point.

    Raises:
        ValueError: for a shape the engine runs through a vectorised
            kernel (plain tally, tracked-only, time series).
    """
    if shape.kind is DistributionKind.SPARSE_FREQUENCY:
        return _sparse_loop_source(shape, constants)
    if shape.kind is DistributionKind.FREQUENCY and (
        shape.alerting or shape.percentile_alert
    ):
        return _frequency_loop_source(shape, constants)
    raise ValueError(f"shape {shape.key!r} has no generated kernel")


#: Canonical constants for the lint's reference sources: every optional
#: block (margin, cooldown gates) present, so ST510 audits the fullest
#: emission of each template.
_REFERENCE_CONSTANTS = KernelConstants(
    size=256,
    width_mask=(1 << 32) - 1,
    k_sigma=2,
    min_samples=8,
    margin=1,
    cooldown=0.25,
    wl=90,
    wh=10,
    generation=0,
)


def reference_sources() -> Dict[str, str]:
    """One generated source per shape the engine dispatches to a
    generated kernel — what ST510 (restricted op set) and ST511 (pragma
    vs derived eligibility) audit.

    The shape set comes from the engine's own dispatch
    (:func:`repro.stat4.batch.kernel_of`), not from a list kept here.
    """
    from repro.stat4.batch import GENERATED_KERNELS, kernel_of

    return {
        shape.key: generate_kernel_source(shape, _REFERENCE_CONSTANTS)
        for shape in enumerate_shapes()
        if kernel_of(shape) in GENERATED_KERNELS
    }


# -- compilation ----------------------------------------------------------------------


#: The only builtins generated source may resolve; the exec namespace is
#: restricted to exactly these (plus the two sanctioned arithmetic
#: helpers), so a template drifting outside the op set fails loudly at run
#: time as well as under ST510.
_EXEC_BUILTINS = {"range": range, "len": len, "ValueError": ValueError}


def exec_compile(source: str) -> Callable[..., Any]:
    """Compile generated kernel source; returns its ``kernel`` callable."""
    namespace: Dict[str, Any] = {
        "approx_isqrt": approx_isqrt,
        "checked_multiply": checked_multiply,
        "__builtins__": _EXEC_BUILTINS,
    }
    exec(compile(source, "<repro.stat4.compiled>", "exec"), namespace)
    return namespace["kernel"]


@functools.lru_cache(maxsize=_CACHE_LIMIT)
def compiled_kernel(
    shape: KernelShape, constants: KernelConstants
) -> Callable[..., Any]:
    """The process-wide compiled kernel for one ``(shape, constants)``.

    The one kernel cache: engines (through :class:`KernelLibrary`) and
    merge workers alike compile each point once per process and reuse it.
    """
    return exec_compile(generate_kernel_source(shape, constants))


# -- frequency working state ----------------------------------------------------------


def pack_frequency_state(
    state: DistributionState, cells: List[int], pos_register: int
) -> Tuple[Any, ...]:
    """A dense frequency slot's kernel state as one flat tuple.

    ``cells`` is the slot's cell registers (a list the kernel mutates in
    place) and ``pos_register`` the current ``reg_pos`` value, which the
    scalar ``_sync_percentile`` reads as the previous position.  The
    layout matches the generated kernel's trailing arguments.
    """
    stats = state.stats
    packed: List[Any] = [
        cells,
        stats.count,
        stats.xsum,
        stats.xsumsq,
        stats.updates,
        stats._cached_sd,
        stats._sd_dirty,
        state.last_alert,
    ]
    spec = state.spec
    if spec.percentile_alert:
        packed.append(state.last_percentile_alert)
    tracker = state.tracker
    if tracker is not None:
        position = tracker._position
        packed += [
            list(tracker.freqs),
            tracker.low,
            tracker.high,
            tracker.total,
            tracker.moves,
            position if position is not None else -1,
            pos_register,
        ]
    return tuple(packed)


def copy_frequency_state(packed: Tuple[Any, ...]) -> Tuple[Any, ...]:
    """A copy whose cell and freqs lists a kernel may mutate freely."""
    return tuple(list(item) if isinstance(item, list) else item for item in packed)


# -- the engine-side library ----------------------------------------------------------


class KernelLibrary:
    """Runs the generated kernels for one engine.

    Args:
        stat4: the library instance the owning engine drives.
    """

    def __init__(self, stat4):
        self.stat4 = stat4

    def kernel_for(self, spec: TrackSpec) -> Callable[..., Any]:
        """The compiled kernel for a spec.

        The binding generation is part of :class:`KernelConstants`, so a
        slot rebound by ``Stat4Runtime.rebind`` misses the cache and gets
        a fresh kernel.
        """
        stat4 = self.stat4
        return compiled_kernel(
            KernelShape.of_spec(spec),
            KernelConstants.of_spec(spec, stat4.config, stat4.counters.width),
        )

    # -- gathers ----------------------------------------------------------------

    def _gather(self, spec, segment, batch) -> Tuple[List[int], List[float]]:
        """A run's value and timestamp lists, in event order.

        Value-free packets read as ``-1`` (the columns sentinel).  When the
        run covers every packet of a single-stage batch in order, the
        batch columns are the run's columns; otherwise a list
        comprehension picks the run's packets.
        """
        values = batch.values_for(spec)
        timestamps = batch.timestamps
        n = len(segment)
        if (
            n == len(batch)
            and segment[-1][0] == n - 1
            and len(self.stat4.binding_tables) == 1
        ):
            return [-1 if value is None else value for value in values], timestamps
        pkts = [event[0] for event in segment]
        return (
            [-1 if values[pkt] is None else values[pkt] for pkt in pkts],
            [timestamps[pkt] for pkt in pkts],
        )

    # -- runs -------------------------------------------------------------------

    def run(self, spec, state, segment, batch, sink) -> None:
        """Run one spec-run through its generated kernel.

        Leaves the slot's working state and every register exactly as the
        scalar loop over the same events would.
        """
        kernel = self.kernel_for(spec)
        vlist, tlist = self._gather(spec, segment, batch)
        records: List[Tuple[int, ...]] = []
        if spec.kind is DistributionKind.SPARSE_FREQUENCY:
            self._run_sparse(kernel, state, vlist, tlist, records)
        else:
            stat4 = self.stat4
            base = stat4.config.cell_index(spec.dist, 0)
            cells = stat4.counters._cells[base : base + stat4.config.counter_size]
            packed = pack_frequency_state(
                state, cells, stat4.reg_pos._cells[spec.dist]
            )
            dropped, observed, synced, exit_state = kernel(
                vlist, tlist, state.stats.square, records, *packed
            )
            state.values_dropped += dropped
            self.install_frequency_state(state, exit_state, observed, synced)
        self.install_records(spec, records, segment, 0, batch.timestamps, sink)

    def _run_sparse(self, kernel, state, vlist, tlist, records) -> None:
        unique = {value for value in vlist if value >= 0}
        if not unique:
            return
        stat4 = self.stat4
        cells = stat4.sparse_cells[state.spec.dist]
        stats = state.stats
        observed, exit_state = kernel(
            vlist,
            tlist,
            stats.square,
            records,
            cells.increment,
            cells.probe_paths(unique),
            stats.count,
            stats.xsum,
            stats.xsumsq,
            stats.updates,
            stats._cached_sd,
            stats._sd_dirty,
            state.last_alert,
        )
        (
            stats.count,
            stats.xsum,
            stats.xsumsq,
            stats.updates,
            stats._cached_sd,
            stats._sd_dirty,
            state.last_alert,
        ) = exit_state
        if observed:
            stat4._sync_stats(state)

    def install_frequency_state(
        self,
        state: DistributionState,
        packed: Tuple[Any, ...],
        observed: int,
        synced: bool,
    ) -> None:
        """Install a frequency kernel's exit state into the slot and its
        registers — the cells, the derived measures when a value landed,
        and the position registers when the tracker synced."""
        stat4 = self.stat4
        spec = state.spec
        stats = state.stats
        (
            cells,
            stats.count,
            stats.xsum,
            stats.xsumsq,
            stats.updates,
            stats._cached_sd,
            stats._sd_dirty,
            state.last_alert,
        ) = packed[:8]
        rest = packed[8:]
        if spec.percentile_alert:
            state.last_percentile_alert = rest[0]
            rest = rest[1:]
        base = stat4.config.cell_index(spec.dist, 0)
        stat4.counters._cells[base : base + stat4.config.counter_size] = cells
        tracker = state.tracker
        if tracker is not None:
            freqs, low, high, total, moves, pos, _pos_register = rest
            tracker.freqs[:] = freqs
            tracker.low = low
            tracker.high = high
            tracker.total = total
            tracker.moves = moves
            tracker._position = pos if pos >= 0 else None
        if observed:
            stat4._sync_stats(state)
        if synced:
            stat4.reg_pos.write(spec.dist, tracker.value)
            stat4.reg_low.write(spec.dist, tracker.low)
            stat4.reg_high.write(spec.dist, tracker.high)

    def install_records(self, spec, records, segment, start, timestamps, sink) -> None:
        """Replay kernel digest records into the sink, scalar-shaped.

        A record's second field is its packet's position in the kernel's
        input, which started at ``segment[start]``; the record is tagged
        with that event's ``(packet, stage)`` and stamped with the batch
        timestamp of its packet, so the sink's scalar-order sort puts it
        exactly where the serial loop would have emitted it.
        """
        stat4 = self.stat4
        for record in records:
            pkt, stage, _spec = segment[start + record[1]]
            sink.set(pkt, stage, timestamps[pkt])
            if record[0] == DIGEST_KIND_KSIGMA:
                sink.emit_digest(
                    spec.alert,
                    dist=spec.dist,
                    index=record[2],
                    sample=record[3],
                    scaled_sample=record[4],
                    xsum=record[5],
                    stddev_nx=record[6],
                    count=record[7],
                    generation=spec.generation,
                )
            else:
                sink.emit_digest(
                    spec.percentile_alert,
                    dist=spec.dist,
                    position=record[2],
                    previous=record[3],
                    percent=spec.percent if spec.percent is not None else 0,
                    generation=spec.generation,
                )
        stat4.alerts_emitted += len(records)
