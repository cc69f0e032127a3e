# p4-ok-file — host-side experiment driver, not data-plane code.
"""Sec. 3 validation (Figure 5): the echo application.

"We simulate a minimal network with a single host connected to a bmv2
switch running the echo application. […] The host sends Ethernet frames
whose payload only contains a randomly generated integer between −255 and
255. […] In all our experiments (with up to 10,000 packets), the values of
N, Xsum, Xsumsq and σ²_NX stored at the switch are equal to those computed
at the host, and the output of our online algorithms is consistent with
results in Sec. 2."

The validation host mirrors the switch's integer algorithms in software
(the same :class:`ScaledStats`/:class:`PercentileTracker` definitions) and
additionally cross-checks against floating-point Welford: the integer
variance over N² must match Welford's population variance, and the
approximate σ must sit within the Table-2 error envelope of the true σ.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List

from repro.apps.echo import build_echo_app
from repro.core.percentile import PercentileTracker
from repro.core.stats import ScaledStats
from repro.core.welford import WelfordAccumulator
from repro.netsim.hosts import Host
from repro.netsim.network import Network
from repro.netsim.switchnode import SwitchNode
from repro.p4 import headers as hdr
from repro.p4.packet import Packet
from repro.p4.parser import standard_parser
from repro.traffic.builders import echo_frame

__all__ = [
    "ValidationResult",
    "EchoValidationHost",
    "run_validation",
    "BatchedValidationResult",
    "run_validation_batched",
    "ShardedValidationResult",
    "run_validation_sharded",
]


@dataclass
class ValidationResult:
    """Outcome of one validation run.

    Attributes:
        packets_sent: echo requests sent.
        replies: echo replies received and checked.
        mismatches: integer fields that differed from the host's mirror
            (the paper's claim is that this is zero).
        mismatch_details: first few mismatch descriptions, for debugging.
        max_sd_relative_error: worst ``(|σ_switch − σ_true| − 1) / σ_true``
            seen (the "consistent with Sec. 2" check; one integer quantum is
            subtracted because σ is truncated to an integer, which dominates
            when the variance is small — the Table-2 footnote's regime).
        max_variance_drift: worst |integer variance/N² − Welford variance|.
    """

    packets_sent: int = 0
    replies: int = 0
    mismatches: int = 0
    mismatch_details: List[str] = field(default_factory=list)
    max_sd_relative_error: float = 0.0
    max_variance_drift: float = 0.0

    @property
    def passed(self) -> bool:
        """The paper's validation criterion."""
        return (
            self.replies == self.packets_sent
            and self.mismatches == 0
            and self.max_sd_relative_error < 0.07
        )


class EchoValidationHost(Host):
    """The Figure-5 host: sends values, checks every reply against mirrors."""

    def __init__(self, name: str, values: List[int]):
        super().__init__(name)
        self.values = values
        self.result = ValidationResult(packets_sent=len(values))
        # Software mirrors of the switch-side algorithms.
        self._mirror_stats = ScaledStats()
        self._mirror_median = PercentileTracker(512)
        self._mirror_counts = {}
        self._welford = WelfordAccumulator()
        self._next_to_fold = 0
        self._parser = standard_parser()

    def send_all(self, start: float = 0.0, gap: float = 0.001) -> None:
        """Schedule every echo request at a fixed cadence."""
        for index, value in enumerate(self.values):
            self.send_at(start + index * gap, echo_frame(value))

    def on_packet(self, packet: Packet, port: int, now: float) -> None:
        """Check one reply against the mirrors (replies arrive in order)."""
        parsed = self._parser.parse(packet)
        if not parsed.has("stat4_echo"):
            return
        echo = parsed["stat4_echo"]
        if echo.get("op") != hdr.ECHO_OP_REPLY:
            return
        # Fold the value this reply corresponds to into the mirrors.
        value = self.values[self._next_to_fold] + 256
        self._next_to_fold += 1
        old = self._mirror_counts.get(value, 0)
        self._mirror_counts[value] = self._mirror_stats.observe_frequency(old)
        self._mirror_median.observe(value)
        self.result.replies += 1
        self._check(echo)

    def _check(self, echo) -> None:
        mirror = self._mirror_stats
        expectations = {
            "n": mirror.count,
            "xsum": mirror.xsum,
            "xsumsq": mirror.xsumsq,
            "variance": mirror.variance_nx,
            "stddev": mirror.stddev_nx,
            "median": self._mirror_median.value,
        }
        for name, expected in expectations.items():
            got = echo.get(name)
            if got != expected:
                self.result.mismatches += 1
                if len(self.result.mismatch_details) < 10:
                    self.result.mismatch_details.append(
                        f"reply {self.result.replies}: {name} switch={got} "
                        f"host={expected}"
                    )
        # Consistency with Sec. 2: the approximate sigma tracks the true one.
        counts = list(self._mirror_counts.values())
        self._welford = WelfordAccumulator()
        self._welford.extend(counts)
        n = len(counts)
        true_var = self._welford.variance * n * n
        if true_var > 0:
            true_sd = math.sqrt(true_var)
            excess = max(abs(echo.get("stddev") - true_sd) - 1.0, 0.0)
            self.result.max_sd_relative_error = max(
                self.result.max_sd_relative_error, excess / true_sd
            )
        drift = abs(mirror.variance_nx - true_var)
        self.result.max_variance_drift = max(self.result.max_variance_drift, drift)


def run_validation(
    packets: int = 10_000,
    seed: int = 0,
    link_delay: float = 0.0001,
    gap: float = 0.0005,
) -> ValidationResult:
    """Run the full Figure-5 validation through the simulated network.

    Args:
        packets: echo requests to send (paper: up to 10,000).
        seed: RNG seed for the value stream.
        link_delay: host↔switch one-way delay.
        gap: inter-packet spacing.
    """
    rng = random.Random(seed)
    values = [rng.randint(-255, 255) for _ in range(packets)]
    bundle = build_echo_app()
    network = Network()
    host = EchoValidationHost("h1", values)
    switch = SwitchNode("s1", bundle.program)
    network.add(host)
    network.add(switch)
    network.connect(host, 0, switch, 0, delay=link_delay)
    host.send_all(gap=gap)
    network.run()
    return host.result


@dataclass
class BatchedValidationResult:
    """Outcome of the scalar-vs-batched differential validation.

    Attributes:
        packets: echo values fed to both paths.
        batches: chunks the batched side processed.
        mismatches: human-readable differences (empty on success).
    """

    packets: int = 0
    batches: int = 0
    mismatches: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """Bit-identical register and working state across both paths."""
        return not self.mismatches


def run_validation_batched(
    packets: int = 10_000,
    seed: int = 0,
    batch_size: int = 1024,
    gap: float = 0.0005,
) -> BatchedValidationResult:
    """Figure-5 differential: batched ingestion vs the scalar library.

    Builds two identical echo applications, drives the same echo-value
    stream through ``Stat4.process`` one packet at a time on one side and
    through :class:`~repro.stat4.batch.BatchEngine` chunks on the other,
    then names each path in which the two detectors' ``snapshot()`` differ.
    This is the validation experiment for the batched fast path: the paper
    validates switch-vs-host equality, this validates batched-vs-scalar
    equality on the same workload.
    """
    from repro.p4.switch import PacketContext, StandardMetadata
    from repro.stat4.batch import BatchEngine, PacketBatch
    from repro.stat4.library import diff

    rng = random.Random(seed)
    values = [rng.randint(-255, 255) for _ in range(packets)]
    parser = standard_parser()
    contexts = []
    for index, value in enumerate(values):
        packet = echo_frame(value)
        ctx = PacketContext(
            parsed=parser.parse(packet),
            meta=StandardMetadata(ingress_port=0, timestamp=index * gap),
        )
        ctx.user["frame_bytes"] = len(packet)
        contexts.append(ctx)

    scalar = build_echo_app()
    batched = build_echo_app()
    for ctx in contexts:
        scalar.stat4.process(ctx)
    engine = BatchEngine(batched.stat4)
    result = BatchedValidationResult(packets=packets)
    for start in range(0, packets, batch_size):
        engine.process(PacketBatch.from_contexts(contexts[start : start + batch_size]))
        result.batches += 1

    result.mismatches = [
        f"{path} differs"
        for path in diff(scalar.stat4.snapshot(), batched.stat4.snapshot())
    ]
    return result


@dataclass
class ShardedValidationResult:
    """Outcome of the sharded-vs-oracle merge validation.

    Attributes:
        packets: values fed to both the cluster and the oracle.
        shards: cluster size.
        batches: chunks the cluster ingested.
        shard_loads: packets each shard received from the key router.
        mismatches: human-readable differences (empty on success).
    """

    packets: int = 0
    shards: int = 0
    batches: int = 0
    shard_loads: List[int] = field(default_factory=list)
    mismatches: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """Merged state bit-identical to the single-switch oracle."""
        return not self.mismatches


def run_validation_sharded(
    packets: int = 10_000,
    shards: int = 4,
    seed: int = 0,
    batch_size: int = 2048,
    gap: float = 0.0005,
) -> ShardedValidationResult:
    """Figure-5 analogue for the cluster: K shards merged vs one oracle.

    The same echo-value stream (−255..255, shifted to 1..511) rides UDP
    destinations so the binding keys — and hence the shard assignment —
    vary per packet.  A single :class:`~repro.stat4.library.Stat4` oracle
    processes every packet through the *scalar* path; a
    :class:`~repro.cluster.sharded.ShardedStat4` routes the same packets to
    K shards in batches.  The merged N/Xsum/Xsumsq (hence mean), the
    derived σ²_NX and σ, the merged frequency cells, and the percentile
    derived from them must all equal the oracle's registers bit for bit.
    """
    from repro.cluster.sharded import ShardedStat4
    from repro.controller.aggregate import percentile_of_cells
    from repro.p4.switch import PacketContext, StandardMetadata
    from repro.stat4.batch import PacketBatch
    from repro.stat4.binding import BindingMatch
    from repro.stat4.config import Stat4Config
    from repro.stat4.extract import ExtractSpec
    from repro.stat4.library import Stat4
    from repro.stat4.runtime import Stat4Runtime
    from repro.traffic.builders import udp_to

    rng = random.Random(seed)
    values = [rng.randint(-255, 255) for _ in range(packets)]
    parser = standard_parser()
    contexts = []
    for index, value in enumerate(values):
        packet = udp_to(0x0A000000 | (value + 256))
        ctx = PacketContext(
            parsed=parser.parse(packet),
            meta=StandardMetadata(ingress_port=0, timestamp=index * gap),
        )
        ctx.user["frame_bytes"] = len(packet)
        contexts.append(ctx)

    config = Stat4Config(counter_num=1, counter_size=512, binding_stages=1)
    match = BindingMatch.ipv4_prefix("10.0.0.0", 8)

    oracle = Stat4(config)
    spec = Stat4Runtime(oracle).frequency_of(
        dist=0, extract=ExtractSpec.field("ipv4.dst", mask=0x1FF), percent=50
    )
    Stat4Runtime(oracle).bind(0, match, spec)
    for ctx in contexts:
        oracle.process(ctx)

    cluster = ShardedStat4(shards, config=config)
    cluster.bind(0, match, spec)
    result = ShardedValidationResult(packets=packets, shards=shards)
    for start in range(0, packets, batch_size):
        cluster.ingest(PacketBatch.from_contexts(contexts[start : start + batch_size]))
        result.batches += 1
    result.shard_loads = cluster.shard_loads()

    merged = cluster.merged(0)
    expected = oracle.read_measures(0)
    for name, got in merged.measures().items():
        if got != expected[name]:
            result.mismatches.append(
                f"{name}: merged={got} oracle={expected[name]}"
            )
    oracle_cells = oracle.read_cells(0)
    if merged.cells != oracle_cells:
        result.mismatches.append("merged frequency cells differ from oracle")
    oracle_percentile = percentile_of_cells(oracle_cells, 50)
    if merged.percentile != oracle_percentile:
        result.mismatches.append(
            f"percentile: merged={merged.percentile} oracle={oracle_percentile}"
        )
    if sum(result.shard_loads) != packets:
        result.mismatches.append("router dropped or duplicated packets")
    return result
