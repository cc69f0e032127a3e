# p4-ok-file — host-side batch code generator; the per-packet P4 semantics
# it specializes live (and are linted) in repro.stat4.library, and the
# generated sources themselves are audited by ST510.
"""Generated per-packet kernels for the order-dependent shapes.

The paper's pitch is that Stat4 runs at line rate because the restricted
operation set (adds, shifts, compares, table lookups) compiles to cheap
hardware stages.  The software analogue of "compiles" is taken literally
here: for every kernel shape whose update cannot be reordered — dense
frequency with a percentile tracker or a k·σ check (the tracker moves one
cell per packet, Figure 3), and hashed sparse frequency with or without
k·σ — this module *generates Python source* for a monomorphic per-packet
loop; :func:`kernel_of` is the one place that decides which shapes those
are.  Every spec constant (cell domain, width masks, k·σ, cooldown,
percentile weights, a sparse table's stage count) is baked in as a
literal, every polymorphic dispatch of the scalar library (attribute
lookups, None checks, register accounting) is specialized away, and the
source is ``exec``-compiled once per ``(shape, constants)``.

The loops run over plain Python ints, so they need no numpy: the
:class:`KernelLibrary` gathers a run's values into plain lists.  State
the scalar library keeps in registers reaches a loop as copies of the
registers' cell lists, indexed directly: a dense slot's counter cells
(with its tracker's frequencies), and a sparse slot's key and count
rows, whose probe, claim and lightest-cell eviction
(``HashedCells.increment``) the sparse loop unrolls over the table's
stage count.  The copies are taken at the start of every run and
installed when the loop returns, so a run that raises leaves its slot as
it was; none is kept between runs, since a slot reset
(``RegisterArray.fill``) replaces the lists.  Batch mode keeps no
per-access register accounting.  :class:`~repro.stat4.batch.BatchEngine`
is the one caller.

A kernel's working state travels as one flat tuple: the loop takes it
as its trailing positional arguments and returns it, updated, in the
same layout.  Both loops share its moments, σ and last-alert part
(:data:`_SHARED_STATE`); a dense loop adds its cells and tracker
(:func:`pack_frequency_state`).

σ only when the comparison needs it: both loops share one k·σ check
(:func:`_ksigma_lines`), and two σ-free bounds decide it before σ, whose
MSB search is the check's dearest step, is computed.  An alert needs
``N·x > Xsum + k·σ + N·margin`` with N, Xsum, k and σ never negative, so
``x ≤ margin`` (a compare against a literal) and ``N·x ≤ Xsum +
N·margin`` (no σ) each rule it out exactly.  A skipped recompute leaves
the σ flag dirty, and the run's closing register sync computes σ from
the same moments.

Exactness contract: a generated kernel leaves *bit-identical* state to the
scalar library — registers, moments, tracker state, cooldown stamps,
digests and their order.  The hypothesis differentials in
``tests/stat4/test_batch_differential.py`` and
``tests/stat4/test_ksigma_bounds.py`` gate this.

The generated source stays inside the restricted op set the analyzer can
audit — integer add/sub/shift/mask, compile-time-constant multiplies,
``checked_multiply`` for the runtime multiplies of the σ²·N² check, and
``approx_isqrt``.  Rule ST510 walks every generated kernel's AST against
that whitelist (see :func:`repro.analysis.kernels.check_generated_kernels`).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.approx import approx_isqrt
from repro.p4.values import checked_multiply
from repro.stat4.distributions import (
    DistributionKind,
    DistributionState,
    KernelShape,
    TrackSpec,
    enumerate_shapes,
)
from repro.stat4.sparse import HashedCells

#: Cap on cached compiled kernels per process.  A rebind mints a new
#: generation, which is part of the cache key, so a rebound slot misses
#: and recompiles; the cap bounds what stale generations can pin.
_CACHE_LIMIT = 64

#: Kinds of the digest records a generated kernel appends, by layout:
#: ``(kind, i, position, previous)`` for a percentile move and
#: ``(kind, i, index, sample, scaled_sample, xsum, stddev_nx, count)`` for
#: a k·σ outlier, where ``i`` is the packet's position in the kernel's input.
DIGEST_KIND_PERCENTILE = 0
DIGEST_KIND_KSIGMA = 1

#: Kernels that run a generated per-packet loop; every other kernel is a
#: hand-written batched one in :mod:`repro.stat4.batch`.
GENERATED_KERNELS = ("exact_loop", "sparse_fast")


def kernel_of(shape: KernelShape) -> str:
    """The one kernel that runs a shape: the engine's dispatch table
    (:meth:`~repro.stat4.batch.BatchEngine._process_run`), the
    ``BatchResult.kernels`` name its events are counted under, and the
    choice of which shapes get generated code.

    A percentile tracker moves one cell per packet and a k·σ check reads
    the moments as they stand at its packet, so a dense slot with either
    runs the generated loop; plain counting does not depend on order.
    """
    if shape.kind is DistributionKind.TIME_SERIES:
        return "time_series"
    if shape.kind is DistributionKind.SPARSE_FREQUENCY:
        return "sparse_fast"
    if shape.tracked or shape.alerting:
        return "exact_loop"
    return "frequency_fast"


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
    #: A sparse slot's geometry (0 for a dense slot): its probe depth and
    #: the widths of its key and count rows.
    stages: int = 0
    key_mask: int = 0
    count_mask: int = 0

    @classmethod
    def of_spec(
        cls, spec: TrackSpec, config, width: int, cells: Optional[HashedCells] = None
    ) -> "KernelConstants":
        """The constants of ``spec`` on a slot whose cells are ``width``
        bits wide; ``cells`` is a sparse slot's table, None for a dense one."""
        percent = spec.percent if spec.percent is not None else 0
        geometry = {}
        if cells is not None:
            geometry = dict(
                stages=cells.stages,
                key_mask=(1 << cells.key_rows[0].width) - 1,
                count_mask=(1 << cells.count_rows[0].width) - 1,
            )
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
            **geometry,
        )


# -- source templates -----------------------------------------------------------------
#
# Every template replicates one scalar update path of repro.stat4.library
# statement for statement; the comments in the templates name the scalar
# method each block mirrors.  Constants are interpolated with repr() so
# floats round-trip exactly.


def _header(shape: KernelShape) -> List[str]:
    return [
        "# generated by repro.stat4.compiled — do not edit",
        f"# shape: {shape.key}",
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
    division-free k·σ outlier check of ``ScaledStats.is_outlier``, with σ
    computed only when two σ-free bounds leave the outcome open.

    An alert needs ``N·x > Xsum + k·σ + N·margin``, and N, Xsum, k and σ
    are never negative, so each bound rules it out exactly:

    - ``x ≤ margin`` gives ``N·x ≤ N·margin``: one compare against a
      literal, emitted only for ``margin > 0`` (with margin 0 it always
      holds, since every sample is at least 1);
    - ``N·x ≤ Xsum + N·margin`` needs no σ.

    Only a sample past both runs the lazy ``stddev_nx`` recompute and the
    full compare, whose threshold sums the same terms as the scalar one.
    A skipped recompute leaves ``sd_dirty`` set, so the next check, or the
    run's closing ``_sync_stats``, computes σ from the same moments: the
    slot ends bit-identical, and σ is fresh in every digest.
    """
    p = pad
    lines = [f"{p}if count >= {c.min_samples}:"]
    inner = p + "    "
    if c.cooldown > 0:
        lines.append(
            f"{inner}if last_alert is None or now - last_alert >= {c.cooldown!r}:"
        )
        inner = inner + "    "
    threshold = "xsum"
    if c.margin:
        lines += [
            f"{inner}if {sample} > {c.margin}:",
            f"{inner}    threshold = xsum + "
            f"checked_multiply(count, {c.margin}, runtime_operands=2)",
        ]
        inner = inner + "    "
        threshold = "threshold"
    lines += [
        f"{inner}scaled_sample = checked_multiply(count, {sample}, runtime_operands=2)",
        f"{inner}if scaled_sample > {threshold}:",
        f"{inner}    if sd_dirty:",
        f"{inner}        var = checked_multiply(count, xsumsq, runtime_operands=2) - square(xsum)",
        f"{inner}        if var < 0:",
        f"{inner}            var = 0",
        f"{inner}        cached_sd = approx_isqrt(var)",
        f"{inner}        sd_dirty = False",
        f"{inner}    if scaled_sample > {threshold} + {c.k_sigma} * cached_sd:",
        f"{inner}        last_alert = now",
        f"{inner}        records.append(({DIGEST_KIND_KSIGMA}, i, {index}, {sample}, "
        "scaled_sample, xsum, cached_sd, count))",
    ]
    return lines


#: The working state both generated loops take and return, in this order:
#: the slot's moments, σ and its dirty flag, and the last k·σ alert time,
#: as paths from the slot's :class:`DistributionState`.  A loop names each
#: field by its attribute without the leading ``_``.
_SHARED_STATE = (
    "stats.count",
    "stats.xsum",
    "stats.xsumsq",
    "stats.updates",
    "stats._cached_sd",
    "stats._sd_dirty",
    "last_alert",
)
_SHARED_NAMES = [path.rpartition(".")[2].lstrip("_") for path in _SHARED_STATE]
_shared_state = operator.attrgetter(*_SHARED_STATE)


def _install_shared_state(state: DistributionState, values: Tuple[Any, ...]) -> None:
    """Write a loop's exit values of :data:`_SHARED_STATE` into the slot."""
    for path, value in zip(_SHARED_STATE, values):
        owner, _, name = path.rpartition(".")
        setattr(state.stats if owner else state, name, value)


def _frequency_state_names(shape: KernelShape) -> List[str]:
    """The flat working-state layout of a dense frequency kernel."""
    names = ["cells", *_SHARED_NAMES]
    if shape.percentile_alert:
        names.append("last_pa")
    if shape.tracked:
        names += ["freqs", "low", "high", "total", "moves", "pos", "pos_mirror"]
    return names


def _frequency_loop_source(shape: KernelShape, c: KernelConstants) -> str:
    """Dense frequency with a tracker or a k·σ check: the monomorphic
    per-packet loop (``Stat4._update_frequency`` with every constant and
    attribute lookup specialized away; state lives in plain locals)."""
    tracked = shape.tracked
    state = _frequency_state_names(shape)
    lines = _header(shape)
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


def _sparse_row_names(stages: int) -> List[str]:
    """The sparse kernel's row arguments: every key row, then every count row."""
    return [f"keys{s}" for s in range(stages)] + [f"counts{s}" for s in range(stages)]


def _claim_lines(c: KernelConstants, stage: int, pad: str) -> List[str]:
    """Write the packet's key into ``stage``'s probed slot with count 1."""
    return [
        f"{pad}keys{stage}[slot{stage}] = stored & {c.key_mask}",
        f"{pad}counts{stage}[slot{stage}] = 1",
    ]


def _evict_lines(c: KernelConstants, pad: str) -> List[str]:
    """``HashedCells.increment``'s full miss: ``min`` over the probe path
    picks the lightest occupant, the earliest stage on a tie, so only a
    strictly lighter later stage takes the victim; the packet's key
    replaces it and the moments forget its count
    (``ScaledStats.remove_value``)."""
    p = pad
    lines = [f"{p}evicted = counts0[slot0]"]
    if c.stages > 1:
        lines.append(f"{p}victim = 0")
        for stage in range(1, c.stages):
            lines += [
                f"{p}if counts{stage}[slot{stage}] < evicted:",
                f"{p}    evicted = counts{stage}[slot{stage}]",
                f"{p}    victim = {stage}",
            ]
        for stage in range(c.stages):
            if stage == 0:
                lines.append(f"{p}if victim == 0:")
            elif stage < c.stages - 1:
                lines.append(f"{p}elif victim == {stage}:")
            else:
                lines.append(f"{p}else:")
            lines += _claim_lines(c, stage, p + "    ")
    else:
        lines += _claim_lines(c, 0, p)
    lines += [
        f"{p}evictions = evictions + 1",
        f"{p}evicted_mass = evicted_mass + evicted",
        f"{p}old = 0",
        f"{p}if evicted:",
        f"{p}    if count == 0:",
        f"{p}        raise ValueError('cannot remove a value from an empty distribution')",
        f"{p}    count = count - 1",
        f"{p}    xsum = xsum - evicted",
        f"{p}    if xsum < 0:",
        f"{p}        xsum = 0",
        f"{p}    xsumsq = xsumsq - square(evicted)",
        f"{p}    if xsumsq < 0:",
        f"{p}        xsumsq = 0",
        f"{p}    updates = updates + 1",
        f"{p}    sd_dirty = True",
    ]
    return lines


def _probe_lines(c: KernelConstants, stage: int, pad: str) -> List[str]:
    """``HashedCells.increment`` from ``stage`` on, unrolled: the key's
    own slot increments, an empty slot claims the key, anything else
    probes the next stage, and a miss at the last stage evicts.  Each
    branch leaves the slot's old count in ``old``; writes wrap to the row
    widths as ``RegisterArray.write`` does."""
    p = pad
    lines = [
        f"{p}resident = keys{stage}[slot{stage}]",
        f"{p}if resident == stored:",
        f"{p}    old = counts{stage}[slot{stage}]",
        f"{p}    counts{stage}[slot{stage}] = (old + 1) & {c.count_mask}",
        f"{p}elif resident == 0:",
    ]
    lines += _claim_lines(c, stage, p + "    ")
    lines += [
        f"{p}    claimed = claimed + 1",
        f"{p}    old = 0",
        f"{p}else:",
    ]
    if stage + 1 < c.stages:
        lines += _probe_lines(c, stage + 1, p + "    ")
    else:
        lines += _evict_lines(c, p + "    ")
    return lines


def _sparse_loop_source(shape: KernelShape, c: KernelConstants) -> str:
    """Hashed sparse frequency: ``Stat4._update_sparse`` per packet, with
    ``HashedCells.increment`` inlined over the rows' cell lists (unrolled
    over the slot's ``c.stages``), the moments and the k·σ gate.

    ``paths`` maps each key of the run to its slot per stage
    (:meth:`~repro.stat4.sparse.HashedCells.slot_paths`).  The loop
    returns the table's claim and eviction counts with the moments.
    """
    state = ", ".join(_SHARED_NAMES)
    rows = ", ".join(_sparse_row_names(c.stages))
    slots = ", ".join(f"slot{s}" for s in range(c.stages))
    lines = _header(shape)
    lines.append(f"def kernel(vlist, tlist, square, records, paths, {rows}, {state}):")
    lines.append("    observed = 0")
    lines.append("    claimed = 0")
    lines.append("    evictions = 0")
    lines.append("    evicted_mass = 0")
    lines.append("    for i in range(len(vlist)):")
    lines.append("        v = vlist[i]")
    lines.append("        if v < 0:")
    lines.append("            continue")
    if shape.alerting:
        lines.append("        now = tlist[i]")
    lines.append("        stored = v + 1")
    lines.append(f"        {slots}{',' if c.stages == 1 else ''} = paths[v]")
    lines += _probe_lines(c, 0, "        ")
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
        lines.append("        new = old + 1")
        lines += _ksigma_lines(c, "        ", sample="new", index="v")
    lines.append(
        f"    return observed, claimed, evictions, evicted_mass, ({state},)"
    )
    return "\n".join(lines) + "\n"


def generate_kernel_source(shape: KernelShape, constants: KernelConstants) -> str:
    """The monomorphic kernel source for one shape × constants point.

    Raises:
        ValueError: for a shape :func:`kernel_of` sends to a hand-written
            kernel (plain counting, time series).
    """
    kernel = kernel_of(shape)
    if kernel == "exact_loop":
        return _frequency_loop_source(shape, constants)
    if kernel == "sparse_fast":
        return _sparse_loop_source(shape, constants)
    raise ValueError(f"shape {shape.key!r} has no generated kernel")


#: Canonical constants for the lint's reference sources: every optional
#: block (margin, cooldown gates) present and the deepest sparse table
#: (four stages), so ST510 audits the fullest emission of each template.
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
    stages=4,
    key_mask=(1 << 33) - 1,
    count_mask=(1 << 32) - 1,
)


def reference_sources() -> Dict[str, str]:
    """One generated source per shape :func:`kernel_of` sends to a
    generated kernel — what ST510 (restricted op set) audits."""
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

    The one kernel cache: every engine's :class:`KernelLibrary` compiles
    each point once per process and reuses it.
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
    packed: List[Any] = [cells, *_shared_state(state)]
    if state.spec.percentile_alert:
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
        cells = None
        if spec.kind is DistributionKind.SPARSE_FREQUENCY:
            cells = stat4.sparse_cells[spec.dist]
        return compiled_kernel(
            KernelShape.of_spec(spec),
            KernelConstants.of_spec(spec, stat4.config, stat4.counters.width, cells),
        )

    # -- runs -------------------------------------------------------------------

    @staticmethod
    def _gather(run, batch) -> Tuple[List[int], List[float]]:
        """A run's value and timestamp lists, in application order.

        Value-free packets read as ``-1``, which the loops skip.  A run
        over the whole batch reads the batch columns directly.
        """
        values = run.pick(batch.values_for(run.spec))
        vlist = [-1 if value is None else value for value in values]
        return vlist, run.pick(batch.timestamps)

    def run(self, state, run, batch, sink) -> None:
        """Run one spec-run (a :class:`~repro.stat4.batch.BatchEngine`
        run: its spec, packet indices and stages) through its generated
        kernel.

        Leaves the slot's working state and every register exactly as the
        scalar loop over the same applications would.
        """
        spec = run.spec
        kernel = self.kernel_for(spec)
        vlist, tlist = self._gather(run, batch)
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
        self.install_records(records, run, batch.timestamps, sink)

    def _run_sparse(self, kernel, state, vlist, tlist, records) -> None:
        unique = {value for value in vlist if value >= 0}
        if not unique:
            return
        stat4 = self.stat4
        cells = stat4.sparse_cells[state.spec.dist]
        rows = cells.key_rows + cells.count_rows
        # The loop writes copies of the rows, installed with the moments
        # and counters on return, so a run that raises leaves the table as
        # it was.  A slot reset (HashedCells.clear) replaces every row's
        # cell list, so the lists are read per run, never kept.
        copies = [row._cells[:] for row in rows]
        observed, claimed, evictions, evicted_mass, exit_state = kernel(
            vlist,
            tlist,
            state.stats.square,
            records,
            cells.slot_paths(unique),
            *copies,
            *_shared_state(state),
        )
        for row, copy in zip(rows, copies):
            row._cells = copy
        _install_shared_state(state, exit_state)
        cells.resident_keys += claimed
        cells.evictions += evictions
        cells.evicted_mass += evicted_mass
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
        cells = packed[0]
        end = 1 + len(_SHARED_STATE)
        _install_shared_state(state, packed[1:end])
        rest = packed[end:]
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

    def install_records(self, records, run, timestamps, sink) -> None:
        """Replay kernel digest records into the sink, scalar-shaped.

        A record's second field is its application's position in the
        kernel's input, the ``run``; the record is tagged with that
        application's ``(packet, stage)`` and stamped with the batch
        timestamp of its packet, so the sink's scalar-order sort puts it
        exactly where the serial loop would have emitted it.
        """
        stat4 = self.stat4
        spec = run.spec
        for record in records:
            pkt, stage = run.event(record[1])
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
