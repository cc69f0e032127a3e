# p4-ok-file — host-side scenario suite package, not data-plane code.
"""Labeled adversarial scenarios and their ground-truth scoring harness.

The paper's single case study, generalised: a catalog of attack shapes
(floods, scans, heavy hitters, distribution drifts), each rendered into a
deterministic packet trace with per-interval ground-truth labels, and a
scorer that replays them through the batched ingest path and reports
precision / recall / F1 / detection latency.  ``repro bench --scenarios``
turns the scores into leaderboard rows gated by committed quality floors.
"""

from repro.scenarios.catalog import (
    SCENARIO_BUILDERS,
    build_scenario,
    build_scenarios,
    scenario_names,
)
from repro.scenarios.score import (
    ScenarioScore,
    replay_scenario,
    run_scenario_suite,
    score_digests,
    score_scenario,
)
from repro.scenarios.truth import AttackWindow, LabeledScenario, ScenarioTruth

__all__ = [
    "AttackWindow",
    "ScenarioTruth",
    "LabeledScenario",
    "SCENARIO_BUILDERS",
    "scenario_names",
    "build_scenario",
    "build_scenarios",
    "ScenarioScore",
    "replay_scenario",
    "score_digests",
    "score_scenario",
    "run_scenario_suite",
]
