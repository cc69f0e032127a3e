# p4-ok-file — host-side scoring harness, not data-plane code.
"""Replay labeled scenarios and score the digests against ground truth.

The harness builds a fresh :class:`~repro.stat4.library.Stat4` per replay,
installs the scenario's binding entries, and streams the rendered trace
through :meth:`SwitchNode.ingest_batch` and the
:class:`~repro.stat4.batch.BatchEngine` in columnar chunks — exactly the
monitoring fast path the bench suite and ``repro serve`` run, so quality
numbers and throughput numbers describe the same code.

Scoring semantics (window recall, interval precision):

- an interval is *predicted* when at least one digest whose name is in
  ``truth.alert_kinds`` lands in it (digest timestamps are packet
  timestamps, floored to interval indices);
- a predicted interval is a true positive when a covering attack window
  expects one of the kinds predicted there, a false positive otherwise;
- a window counts as *detected* when any interval inside it predicts one
  of the window's kinds — percentile detectors alert on movement, not
  continuously, so demanding every interval would punish the mechanism;
- precision is over predicted intervals (vacuously 1.0 with no
  predictions), recall over windows, F1 their harmonic mean;
- detection latency is the mean, over detected windows, of (first
  detecting interval − window start), in intervals; ``None`` when nothing
  was detected.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.netsim.network import Network
from repro.netsim.switchnode import SwitchNode
from repro.p4.parser import standard_parser
from repro.p4.pipeline import PipelineProgram
from repro.p4.registers import RegisterFile
from repro.stat4.batch import BatchEngine
from repro.stat4.library import Stat4
from repro.stat4.runtime import Stat4Runtime
from repro.scenarios.catalog import build_scenarios
from repro.scenarios.truth import LabeledScenario, ScenarioTruth

__all__ = [
    "ScenarioScore",
    "replay_scenario",
    "score_digests",
    "score_scenario",
    "run_scenario_suite",
]

#: Replay chunk size: ``repro serve``'s default, and small enough to keep
#: many chunks per trace.
BATCH_SIZE = 2048


@dataclass(frozen=True)
class ScenarioScore:
    """One scenario's quality numbers."""

    scenario: str
    packets: int
    intervals: int
    windows: int
    detected_windows: int
    predicted_intervals: int
    true_positive_intervals: int
    false_positive_intervals: int
    alerts: int
    precision: float
    recall: float
    f1: float
    latency_intervals: Optional[float]
    victim_identified: Optional[bool]

    def as_row(self) -> Dict[str, Any]:
        """The schema-versioned leaderboard row (see bench suite)."""
        return {
            "scenario": self.scenario,
            "packets": self.packets,
            "intervals": self.intervals,
            "windows": self.windows,
            "detected_windows": self.detected_windows,
            "predicted_intervals": self.predicted_intervals,
            "true_positive_intervals": self.true_positive_intervals,
            "false_positive_intervals": self.false_positive_intervals,
            "alerts": self.alerts,
            "precision": round(self.precision, 6),
            "recall": round(self.recall, 6),
            "f1": round(self.f1, 6),
            "latency_intervals": (
                None
                if self.latency_intervals is None
                else round(self.latency_intervals, 6)
            ),
            "victim_identified": self.victim_identified,
        }


# -- replay --------------------------------------------------------------------


def _build_node(
    scenario: LabeledScenario,
    detector_overrides: Optional[Dict[str, Any]],
) -> Tuple[SwitchNode, Stat4]:
    """A fresh switch running the scenario's detector configuration."""
    registers = RegisterFile()
    stat4 = Stat4(scenario.config, registers)
    runtime = Stat4Runtime(stat4)
    for stage, match, spec in scenario.bindings:
        if detector_overrides:
            spec = replace(spec, **detector_overrides)
        runtime.bind(stage, match, spec)
    program = PipelineProgram(
        name=f"scenario_{scenario.name}",
        parser=standard_parser(),
        registers=registers,
        ingress=stat4.process,
    )
    stat4.install_into(program)
    node = SwitchNode(f"scenario-{scenario.name}", program)
    # An unwired CPU port drops digests like an unsubscribed digest
    # stream; ingest_batch still returns them, which is all we score.
    Network().add(node)
    return node, stat4


def replay_scenario(
    scenario: LabeledScenario,
    batch_size: int = BATCH_SIZE,
    detector_overrides: Optional[Dict[str, Any]] = None,
) -> List[Any]:
    """Stream the trace through ``SwitchNode.ingest_batch``; return digests.

    ``detector_overrides`` patches every binding's :class:`TrackSpec`
    (``dataclasses.replace`` semantics) — the negative-control hook: e.g.
    ``{"min_samples": 10**9}`` silences every detector, which must tank
    recall and fail the committed floors.
    """
    node, stat4 = _build_node(scenario, detector_overrides)
    engine = BatchEngine(stat4)
    digests: List[Any] = []
    parser = standard_parser()
    for batch in scenario.trace.iter_packet_batches(parser, batch_size):
        result = node.ingest_batch(batch, engine)
        digests.extend(result.digests)
    return digests


# -- scoring -------------------------------------------------------------------


def score_digests(
    truth: ScenarioTruth,
    digests: Iterable[Any],
    scenario: str = "",
    packets: int = 0,
) -> ScenarioScore:
    """Score a digest stream against the labels (pure function).

    Decoupled from replay so tests can feed hand-built digests: the
    3-interval micro-scenario in the test suite computes F1 by hand and
    checks this scorer against it.
    """
    predicted: Dict[int, Set[str]] = {}
    alerts = 0
    victim_hit = False
    victims = truth.victim_keys()
    for digest in digests:
        if digest.name not in truth.alert_kinds:
            continue
        interval = truth.interval_of(digest.timestamp)
        if not 0 <= interval < truth.intervals:
            continue
        alerts += 1
        predicted.setdefault(interval, set()).add(digest.name)
        if victims and not victim_hit:
            key = digest.fields.get("index")
            if key in victims and truth.is_attack(interval):
                victim_hit = True

    true_positives = {
        interval
        for interval, kinds in predicted.items()
        if kinds & truth.kinds_at(interval)
    }
    false_positives = set(predicted) - true_positives

    detected = 0
    latencies: List[int] = []
    for window in truth.windows:
        hits = sorted(
            interval
            for interval, kinds in predicted.items()
            if window.covers(interval) and kinds & set(window.kinds)
        )
        if hits:
            detected += 1
            latencies.append(hits[0] - window.start)

    precision = (
        len(true_positives) / len(predicted) if predicted else 1.0
    )
    recall = detected / len(truth.windows) if truth.windows else 1.0
    f1 = (
        0.0
        if precision + recall == 0
        else 2 * precision * recall / (precision + recall)
    )
    latency = sum(latencies) / len(latencies) if latencies else None
    return ScenarioScore(
        scenario=scenario,
        packets=packets,
        intervals=truth.intervals,
        windows=len(truth.windows),
        detected_windows=detected,
        predicted_intervals=len(predicted),
        true_positive_intervals=len(true_positives),
        false_positive_intervals=len(false_positives),
        alerts=alerts,
        precision=precision,
        recall=recall,
        f1=f1,
        latency_intervals=latency,
        victim_identified=(victim_hit if victims else None),
    )


def score_scenario(
    scenario: LabeledScenario,
    batch_size: int = BATCH_SIZE,
    detector_overrides: Optional[Dict[str, Any]] = None,
) -> ScenarioScore:
    """Replay one scenario and score it."""
    digests = replay_scenario(
        scenario, batch_size=batch_size, detector_overrides=detector_overrides
    )
    return score_digests(
        scenario.truth,
        digests,
        scenario=scenario.name,
        packets=len(scenario.trace),
    )


def run_scenario_suite(
    names: Optional[Sequence[str]] = None,
    detector_overrides: Optional[Dict[str, Any]] = None,
) -> List[Dict[str, Any]]:
    """Score the catalog (or a subset); returns leaderboard rows.

    Scenario sizes are fixed — deliberately independent of the bench
    suite's ``--quick`` profile — so scores are bit-stable and the
    committed floors can be exact.
    """
    rows: List[Dict[str, Any]] = []
    for scenario in build_scenarios(names):
        score = score_scenario(scenario, detector_overrides=detector_overrides)
        rows.append(score.as_row())
    return rows
