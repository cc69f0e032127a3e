# p4-ok-file — host-side cluster topology construction, not data-plane code.
"""Deploying a :class:`~repro.cluster.sharded.ShardedStat4` into the netsim.

:func:`deploy_cluster` turns the in-process cluster engine into an actual
simulated network: one :class:`~repro.netsim.switchnode.SwitchNode` per
shard (each running a pipeline program around that shard's Stat4), plus an
:class:`~repro.controller.aggregate.AggregatingController` star-wired to
every shard's CPU port (:meth:`~repro.netsim.network.Network.wire_star`).
Batches are routed by the cluster's key hash and ingested through each
switch node, so digests ride the control channel with realistic delays, and
register dumps pay the paper's "several milliseconds for thousands of
registers" cost before the controller merges them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.cluster.sharded import ClusterResult, ShardedStat4
from repro.controller.aggregate import AggregatingController
from repro.netsim.network import Network
from repro.netsim.switchnode import SwitchNode
from repro.p4.parser import standard_parser
from repro.p4.pipeline import PipelineProgram
from repro.p4.switch import CPU_PORT
from repro.stat4.batch import PacketBatch

__all__ = ["ClusterDeployment", "deploy_cluster"]


@dataclass
class ClusterDeployment:
    """A sharded cluster living inside a simulated network.

    Attributes:
        network: the owning network.
        cluster: the routing/merging engine (its ``nodes`` are the very
            Stat4 instances the switch programs run).
        switches: one node per shard, index-aligned with ``cluster.nodes``.
        controller: the merging controller, wired to every CPU port.
    """

    network: Network
    cluster: ShardedStat4
    switches: List[SwitchNode]
    controller: AggregatingController

    def ingest(self, batch: PacketBatch) -> ClusterResult:
        """Route one batch through the shard switch nodes.

        Same state evolution as :meth:`ShardedStat4.ingest`, but every
        digest is pushed out of its switch's CPU port into the simulated
        control channel (run the network to deliver them).
        """
        result = ClusterResult()
        for shard, sub_batch in self.cluster.route(batch).items():
            engine = self.cluster.nodes[shard].batch_engine()
            shard_result = self.switches[shard].ingest_batch(sub_batch, engine)
            result.per_shard[shard] = shard_result
            result.packets += shard_result.packets
            result.digests.extend((shard, digest) for digest in shard_result.digests)
        self.cluster.packets_routed += len(batch)
        return result

    def collect(self) -> Dict[str, List[int]]:
        """Pull and merge every shard's registers over the control channel.

        Runs the network until the dumps are in; returns the per-switch
        cell vectors (the merged view lives on the controller).
        """
        collected: Dict[str, List[int]] = {}
        self.controller.collect(on_complete=collected.update)
        self.network.run()
        return collected


def deploy_cluster(
    cluster: ShardedStat4,
    network: Network = None,
    name_prefix: str = "shard",
    dist: int = 0,
    control_delay: float = 0.005,
    with_measures: bool = True,
) -> ClusterDeployment:
    """Build the star topology for an existing cluster engine.

    Args:
        cluster: the sharded engine to deploy (bindings may be installed
            before or after deployment — the Stat4 instances are shared).
        network: network to build into (a fresh one when omitted).
        name_prefix: shard nodes are named ``{prefix}0..{prefix}N-1``.
        dist: the distribution slot the controller aggregates.
        control_delay: one-way control-channel delay per shard link.
        with_measures: dump the moment registers alongside the cells so the
            controller can cross-check both merge routes.
    """
    if network is None:
        network = Network()
    switches = []
    for shard, stat4 in enumerate(cluster.nodes):
        def ingress(ctx, _stat4=stat4):
            _stat4.process(ctx)

        program = PipelineProgram(
            name=f"{name_prefix}{shard}_prog",
            parser=standard_parser(),
            registers=stat4.registers,
            ingress=ingress,
        )
        stat4.install_into(program)
        switches.append(network.add(SwitchNode(f"{name_prefix}{shard}", program)))
    controller = AggregatingController(
        "aggregator",
        switch_ports={},
        dist=dist,
        cells=cluster.config.counter_size,
        with_measures=with_measures,
    )
    controller.switch_ports = network.wire_star(
        controller,
        {switch.name: CPU_PORT for switch in switches},
        delay=control_delay,
    )
    return ClusterDeployment(
        network=network, cluster=cluster, switches=switches, controller=controller
    )
