# p4-ok-file — host-side cluster scale-out engine; per-shard data-plane
# semantics live (and are linted) in repro.stat4.library.
"""One logical Stat4 deployment sharded across N switches.

The paper's architecture (Fig. 1c) gives every switch its own autonomous
Stat4; this module is the Sec.-5 scale-out: a :class:`ShardedStat4` that
hash-partitions the binding-key space across N :class:`~repro.stat4.library.Stat4`
instances, routes each row of a :class:`~repro.stat4.batch.PacketBatch` to
its owning shard (each shard's batch engine runs the one batch over its own
rows), and merges the per-shard ``N``/``Xsum``/``Xsumsq`` and frequency
state back into network-wide statistics through the
:mod:`repro.controller.aggregate` merge functions.

What makes the merge *exact* — the scaled-distribution invariant
``σ²_NX = N·Xsumsq − Xsum²`` is preserved bit-for-bit against a
single-switch oracle — depends on the distribution kind:

- **Dense frequency** slots merge their *cell vectors* (counting is
  order-independent, so the merged vector equals the oracle's for any
  traffic split) and recompute the moments from the merged cells with the
  telescoped ``observe_frequency`` identity.  Summing the per-shard
  moments instead would double-count ``N`` and drop the ``(c_A+c_B)²``
  cross terms whenever one value appears on several shards.
- **Time-series** slots merge by *moment summation*: every closed interval
  is one shard's own value, so the per-shard value sets are disjoint and
  plain sums are exact.  Bit-identity against a full-trace oracle
  additionally needs the slot's traffic to be owned by a single shard
  (one binding key — which the key-hash router guarantees), because the
  interval cursor is order-dependent.
- **Sparse frequency** slots merge their resident ``(key, count)`` sets,
  summing per key and recomputing moments; exact while no shard evicted
  (an eviction discards mass no merge can recover — the merged view
  reports the summed eviction counters so callers can check).

The percentile *position* register is a per-packet walk and thus
path-dependent; what merges exactly is the frequency state under it, so the
network-wide percentile is derived from the merged cells with the same
exact rule the tests apply to the oracle's cells
(:func:`~repro.controller.aggregate.percentile_of_cells`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.hashing import shard_of
from repro.controller.aggregate import (
    merge_cells,
    merge_measures,
    merge_sparse_items,
    percentile_of_cells,
    stats_from_items,
    stats_from_cells,
)
from repro.core.stats import ScaledStats
from repro.p4.switch import Digest, PacketContext
from repro.stat4.batch import BatchEngine, BatchResult, PacketBatch
from repro.stat4.binding import BindingMatch, binding_key_of
from repro.stat4.config import DEFAULT_CONFIG, Stat4Config
from repro.stat4.distributions import DistributionKind, TrackSpec
from repro.stat4.library import Stat4
from repro.stat4.runtime import BindingHandle, Stat4Runtime

__all__ = ["ShardedStat4", "ClusterResult", "MergedDistribution"]


@dataclass
class ClusterResult:
    """What one routed batch produced across the cluster.

    Attributes:
        packets: packets ingested over all shards (equals the input batch).
        digests: every ``(shard, digest)`` emitted.  Within a shard the
            digests are in scalar order; the cross-shard interleaving of
            independent switches is not a defined order and is not
            reconstructed.
        per_shard: each shard's :class:`~repro.stat4.batch.BatchResult`,
            keyed by shard index (only shards that received packets appear).
    """

    packets: int = 0
    digests: List[Tuple[int, Digest]] = field(default_factory=list)
    per_shard: Dict[int, BatchResult] = field(default_factory=dict)

    @property
    def alerts(self) -> int:
        """Digest count across the cluster."""
        return len(self.digests)


@dataclass
class MergedDistribution:
    """The network-wide view of one sharded distribution slot.

    Attributes:
        dist: the distribution slot.
        kind: the slot's distribution kind (decides the merge rule used).
        stats: exact merged moments (N, Xsum, Xsumsq with lazy σ² and σ).
        cells: merged dense cell vector (frequency and time-series slots).
        items: merged resident ``(key, count)`` pairs (sparse slots).
        percentile: the tracked percentile derived from the merged cells
            (None when the slot tracks no percentile or holds no mass).
        evictions: summed per-shard eviction counters of a sparse slot —
            nonzero means evicted mass left the moments and the merge is an
            estimate, not exact.
    """

    dist: int
    kind: DistributionKind
    stats: ScaledStats
    cells: Optional[List[int]] = None
    items: Optional[List[Tuple[int, int]]] = None
    percentile: Optional[int] = None
    evictions: int = 0

    @property
    def exact(self) -> bool:
        """Whether the merge rule was exact for what the shards held."""
        return self.evictions == 0

    def measures(self) -> Dict[str, int]:
        """The merged measures in :meth:`Stat4.read_measures` shape.

        ``n``/``xsum``/``xsumsq``/``variance``/``stddev`` are bit-identical
        to the oracle's registers under each kind's exactness condition
        (``variance`` and ``stddev`` re-derive through the same integer
        σ²_NX = N·Xsumsq − Xsum² and ``approx_isqrt`` path the data plane
        runs).  The percentile position is intentionally absent — it is
        derived, see :attr:`percentile`.
        """
        return {
            "n": self.stats.count,
            "xsum": self.stats.xsum,
            "xsumsq": self.stats.xsumsq,
            "variance": self.stats.variance_nx,
            "stddev": self.stats.stddev_nx,
        }


class ShardedStat4:
    """One logical Stat4 hash-partitioned across N shard instances.

    Bindings are installed identically on every shard (the composite key
    routing means each shard only ever *sees* its own key range, but the
    rule set is uniform — exactly how one would provision N identical
    switches from one controller).  Batch rows are routed with
    :func:`~repro.cluster.hashing.shard_of`, and each shard's
    :class:`~repro.stat4.batch.BatchEngine` (one per shard, in
    :attr:`engines`, so its binding memo lives as long as the cluster)
    applies the batch over its own rows.

    Args:
        shards: cluster size (≥ 1; 1 degenerates to a plain Stat4).
        config: per-shard register geometry — uniform across the cluster,
            the merge functions require equal cell vector lengths.
        hash_seed: routing seed (see :func:`~repro.cluster.hashing.fnv1a64`).
    """

    def __init__(
        self,
        shards: int,
        config: Stat4Config = DEFAULT_CONFIG,
        hash_seed: int = 0,
    ):
        if shards <= 0:
            raise ValueError(f"shard count must be positive, got {shards}")
        self.shard_count = shards
        self.config = config
        self.hash_seed = hash_seed
        self.nodes: List[Stat4] = [Stat4(config) for _ in range(shards)]
        self.runtimes: List[Stat4Runtime] = [Stat4Runtime(node) for node in self.nodes]
        self.engines: List[BatchEngine] = [BatchEngine(node) for node in self.nodes]
        #: Message-only runtime: spec-builder sugar without a backing shard.
        self.specs = Stat4Runtime()
        self._bound: Dict[int, TrackSpec] = {}
        self.packets_routed = 0

    # -- provisioning -------------------------------------------------------

    def bind(
        self,
        stage: int,
        match: BindingMatch,
        spec: TrackSpec,
        priority: int = 0,
    ) -> List[BindingHandle]:
        """Install one tracking rule on *every* shard.

        Returns the per-shard handles (index-aligned with :attr:`nodes`).
        """
        handles = [
            runtime.bind(stage, match, spec, priority=priority)[0]
            for runtime in self.runtimes
        ]
        self._bound[spec.dist] = spec
        return handles

    def spec_of(self, dist: int) -> TrackSpec:
        """The spec bound to a slot (raises KeyError when never bound)."""
        return self._bound[dist]

    # -- routing ------------------------------------------------------------

    def shard_of_key(self, key: Tuple[int, int, int, int]) -> int:
        """The shard owning a composite binding key."""
        return shard_of(key, self.shard_count, seed=self.hash_seed)

    def route(self, batch: PacketBatch) -> Dict[int, Sequence[int]]:
        """Each shard's rows of a batch, shard-indexed.

        A shard's rows are ascending batch indices, so it applies exactly
        the subsequence a hash-routed deployment would deliver to it, in
        arrival order.  Shards that own no rows are absent; one shard owns
        ``range(len(batch))``.

        The FNV hash runs once per distinct key, not once per row, and
        the rest of the pass is a dict probe and an append per row.  How
        much that saves depends on the trace: the bench's destination
        walk has 1,024 distinct keys in every 4,000 packets.
        """
        if self.shard_count == 1:
            return {0: range(len(batch))} if len(batch) else {}
        groups: Dict[int, List[int]] = {}
        owner_of: Dict[Tuple[int, int, int, int], List[int]] = {}
        seed = self.hash_seed
        shards = self.shard_count
        for index, key in enumerate(batch.keys):
            rows = owner_of.get(key)
            if rows is None:
                shard = shard_of(key, shards, seed=seed)
                rows = groups.setdefault(shard, [])
                owner_of[key] = rows
            rows.append(index)
        return dict(sorted(groups.items()))

    # -- ingestion ----------------------------------------------------------

    def ingest(self, batch: PacketBatch) -> ClusterResult:
        """Route one batch, and apply it on each shard over that shard's rows.

        Shards run in ascending shard order, so ``ClusterResult`` (packet
        counts, per-shard results, the ``(shard, digest)`` sequence) is
        deterministic.
        """
        result = ClusterResult()
        for shard, rows in self.route(batch).items():
            shard_result = self.engines[shard].process(batch, rows)
            result.per_shard[shard] = shard_result
            result.packets += shard_result.packets
            result.digests.extend((shard, digest) for digest in shard_result.digests)
        self.packets_routed += len(batch)
        return result

    def process(self, ctx: PacketContext) -> int:
        """Scalar path: route one parsed packet to its owner shard.

        Returns the shard index that processed it (differential tests use
        this to cross-check the batch router).
        """
        shard = self.shard_of_key(binding_key_of(ctx))
        self.nodes[shard].process(ctx)
        self.packets_routed += 1
        return shard

    # -- merged views --------------------------------------------------------

    def merged(self, dist: int) -> MergedDistribution:
        """The exact network-wide view of one slot (see module docstring)."""
        spec = self.spec_of(dist)
        if spec.kind is DistributionKind.FREQUENCY:
            cells = merge_cells([node.read_cells(dist) for node in self.nodes])
            return MergedDistribution(
                dist=dist,
                kind=spec.kind,
                stats=stats_from_cells(cells),
                cells=cells,
                percentile=(
                    percentile_of_cells(cells, spec.percent)
                    if spec.percent is not None
                    else None
                ),
            )
        if spec.kind is DistributionKind.SPARSE_FREQUENCY:
            items = merge_sparse_items(
                [node.read_sparse_items(dist) for node in self.nodes]
            )
            evictions = sum(node.sparse_cells[dist].evictions for node in self.nodes)
            return MergedDistribution(
                dist=dist,
                kind=spec.kind,
                stats=stats_from_items(items),
                items=items,
                evictions=evictions,
            )
        # TIME_SERIES: disjoint per-shard interval values — moment sums are
        # exact; the merged window cells are exact when one shard owns the
        # slot's key (the router's guarantee for single-key slots).
        stats = merge_measures([node.read_measures(dist) for node in self.nodes])
        cells = merge_cells([node.read_cells(dist) for node in self.nodes])
        return MergedDistribution(dist=dist, kind=spec.kind, stats=stats, cells=cells)

    def merged_measures(self, dist: int) -> Dict[str, int]:
        """Shorthand for ``merged(dist).measures()``."""
        return self.merged(dist).measures()

    # -- diagnostics ---------------------------------------------------------

    def shard_loads(self) -> List[int]:
        """Packets seen per shard (routing balance diagnostics)."""
        return [node.packets_seen for node in self.nodes]

    def __repr__(self) -> str:
        return (
            f"ShardedStat4(shards={self.shard_count}, "
            f"packets={self.packets_routed})"
        )
