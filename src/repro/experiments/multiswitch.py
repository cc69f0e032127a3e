# p4-ok-file — host-side experiment driver, not data-plane code.
"""Sharded multi-switch scale-out experiment (paper Sec. 5 future work).

Scenario: one logical per-destination frequency monitor is sharded across K
ingress switches by hashing the binding key — every destination's traffic
is owned by exactly one switch, as in a network-wide monitoring deployment
(Tang et al.'s invertible sketches pick the recording switch the same way).
A heavy-hitter destination receives several times the baseline load, but
each switch holds only its own key range, so no single register dump is the
network-wide distribution.

The controller pulls every shard's registers over the simulated control
channel and merges them through :mod:`repro.controller.aggregate`.  The
headline is **merge exactness**: the merged frequency cells and the
recomputed N/Xsum/Xsumsq (hence σ²_NX = N·Xsumsq − Xsum²) are bit-identical
to a single-switch oracle that saw the whole trace, for any shard count —
so the same 2σ check flags exactly the same outliers globally as it would
on one giant switch, quantifying the paper's remark that "scalability is a
strength of centralized architectures".
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.cluster.sharded import ShardedStat4
from repro.cluster.topology import deploy_cluster
from repro.p4.parser import standard_parser
from repro.stat4.batch import PacketBatch
from repro.stat4.binding import BindingMatch
from repro.stat4.config import Stat4Config
from repro.stat4.extract import ExtractSpec
from repro.stat4.library import Stat4
from repro.stat4.runtime import Stat4Runtime
from repro.traffic.builders import udp_to

__all__ = ["MultiSwitchResult", "run_multiswitch"]


@dataclass
class MultiSwitchResult:
    """What the sharded deployment and the oracle each saw.

    Attributes:
        shards: cluster size.
        victim_index: the heavy-hitter destination's cell index.
        per_switch_counts: each shard's local cells (diagnostics — no
            single one is the network-wide distribution).
        merged_counts: the controller's merged cells.
        oracle_counts: the single-switch oracle's cells.
        merge_errors: fields where the merged view differs from the oracle
            (the headline claim is that this is empty for any shard count).
        global_outliers: ``(index, merged count)`` the merged 2σ check flags.
        oracle_outliers: the same check on the oracle's registers.
        local_alerts: per-shard in-switch alert counts (diagnostics: the
            owning shard may or may not flag the victim locally; the merged
            verdict is what matches the oracle).
        shard_loads: packets each shard ingested.
        control_bytes: bytes the control channel carried for the merge.
    """

    shards: int = 0
    victim_index: int = 0
    per_switch_counts: Dict[str, List[int]] = field(default_factory=dict)
    merged_counts: List[int] = field(default_factory=list)
    oracle_counts: List[int] = field(default_factory=list)
    merge_errors: List[str] = field(default_factory=list)
    global_outliers: List[Tuple[int, int]] = field(default_factory=list)
    oracle_outliers: List[Tuple[int, int]] = field(default_factory=list)
    local_alerts: Dict[str, int] = field(default_factory=dict)
    shard_loads: List[int] = field(default_factory=list)
    control_bytes: int = 0

    @property
    def merge_exact(self) -> bool:
        """Merged cells and moments bit-identical to the oracle."""
        return not self.merge_errors

    @property
    def detected(self) -> bool:
        """The headline: exact merge, and the merged 2σ view flags the
        victim with exactly the oracle's verdicts."""
        flagged = {index for index, _ in self.global_outliers}
        return (
            self.merge_exact
            and self.victim_index in flagged
            and self.global_outliers == self.oracle_outliers
        )


def run_multiswitch(
    packets_per_destination: int = 50,
    destinations: int = 24,
    victim_factor: int = 6,
    shards: int = 4,
    seed: int = 0,
    control_delay: float = 0.005,
) -> MultiSwitchResult:
    """Run the sharded scenario, the merge, and both detection layers.

    Args:
        packets_per_destination: baseline load per destination; the victim
            receives ``victim_factor`` times this.
        destinations: baseline destination count (cell indices 1..N).
        victim_factor: the heavy hitter's load multiplier.
        shards: cluster size.
        seed: shuffles packet interleaving.
        control_delay: controller link delay.
    """
    config = Stat4Config(counter_num=1, counter_size=64, binding_stages=1)
    match = BindingMatch.ipv4_prefix("10.0.0.0", 8)

    def monitor_spec(runtime: Stat4Runtime):
        return runtime.frequency_of(
            dist=0,
            extract=ExtractSpec.field("ipv4.dst", mask=0x3F),
            k_sigma=2,
            alert="local_imbalance",
            min_samples=5,
            margin=2,
            cooldown=0.1,
        )

    # The single-switch oracle: the whole trace through one Stat4.
    oracle = Stat4(config)
    oracle_runtime = Stat4Runtime(oracle)
    oracle_runtime.bind(0, match, monitor_spec(oracle_runtime))

    cluster = ShardedStat4(shards, config=config)
    cluster.bind(0, match, monitor_spec(cluster.specs))
    deployment = deploy_cluster(cluster, dist=0, control_delay=control_delay)

    victim_index = destinations + 1
    rng = random.Random(seed)
    loads = [(index, packets_per_destination) for index in range(1, destinations + 1)]
    loads.append((victim_index, victim_factor * packets_per_destination))
    sends = [index for index, load in loads for _ in range(load)]
    rng.shuffle(sends)
    gap = 0.0005
    packets = [udp_to(0x0A000000 | index) for index in sends]
    timestamps = [step * gap for step in range(len(sends))]
    parser = standard_parser()
    batch = PacketBatch.from_packets(packets, parser, timestamps=timestamps)

    oracle.process_batch(batch)
    deployment.ingest(batch)
    deployment.network.run()

    result = MultiSwitchResult(shards=shards, victim_index=victim_index)
    result.local_alerts = {
        switch.name: stat4.alerts_emitted
        for switch, stat4 in zip(deployment.switches, cluster.nodes)
    }
    result.shard_loads = cluster.shard_loads()
    result.per_switch_counts = deployment.collect()
    controller = deployment.controller
    result.merged_counts = controller.global_counts
    result.oracle_counts = oracle.read_cells(0)
    result.global_outliers = controller.global_outliers(k_sigma=2, margin=2)

    # The oracle-side verdicts with the identical host-side rule.
    from repro.controller.aggregate import stats_from_cells

    oracle_stats = stats_from_cells(result.oracle_counts)
    result.oracle_outliers = [
        (index, count)
        for index, count in enumerate(result.oracle_counts)
        if count > 0 and oracle_stats.is_outlier(count, 2, margin=2)
    ]

    # Merge exactness: cells and all derived measures, bit for bit.
    if result.merged_counts != result.oracle_counts:
        result.merge_errors.append("merged cells differ from oracle")
    merged_measures = controller.global_stats()
    expected = oracle.read_measures(0)
    for name, got in (
        ("n", merged_measures.count),
        ("xsum", merged_measures.xsum),
        ("xsumsq", merged_measures.xsumsq),
        ("variance", merged_measures.variance_nx),
        ("stddev", merged_measures.stddev_nx),
    ):
        if got != expected[name]:
            result.merge_errors.append(
                f"{name}: merged={got} oracle={expected[name]}"
            )
    result.control_bytes = deployment.network.total_control_bytes(controller.name)
    return result
