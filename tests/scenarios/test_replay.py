"""Replay-path tests: the committed floors, determinism, and the
negative control.

Every catalog scenario replays through ``BatchEngine`` and must clear its
committed quality floor; a detector silenced by an override must fail
every floor, so the gate cannot pass vacuously.
"""

import json
import pathlib

import pytest

from repro.bench import check_floors, load_floors
from repro.scenarios import (
    build_scenario,
    run_scenario_suite,
    scenario_names,
    score_scenario,
)

BASELINE_PATH = (
    pathlib.Path(__file__).resolve().parents[2]
    / "benchmarks"
    / "scenario_baseline.json"
)


@pytest.fixture(scope="module")
def replay_rows():
    return run_scenario_suite()


class TestScalarReplay:
    def test_every_catalog_scenario_is_scored(self, replay_rows):
        assert [row["scenario"] for row in replay_rows] == scenario_names()

    def test_scores_meet_the_committed_floors(self, replay_rows):
        baseline = load_floors(str(BASELINE_PATH))
        report = {"scenarios": {"rows": replay_rows}}
        rows = check_floors(report, baseline)
        regressed = [r for r in rows if r.regressed]
        assert not regressed, f"floor regressions: {regressed}"
        # The committed baseline gates every scenario — no WARN rows.
        assert not any(r.missing_floor for r in rows)

    def test_heavy_hitter_names_its_victim(self, replay_rows):
        by_name = {row["scenario"]: row for row in replay_rows}
        assert by_name["heavy_hitter"]["victim_identified"] is True

    def test_replay_is_deterministic(self, replay_rows):
        again = score_scenario(build_scenario("port_scan"))
        by_name = {row["scenario"]: row for row in replay_rows}
        assert again.as_row() == by_name["port_scan"]


class TestNegativeControl:
    def test_degraded_detector_fails_the_committed_floors(self):
        # min_samples beyond any trace length silences every detector;
        # the gate must report that as FAIL, not silently pass.
        rows = run_scenario_suite(detector_overrides={"min_samples": 10**9})
        assert all(row["alerts"] == 0 for row in rows)
        assert all(row["recall"] == 0.0 for row in rows)
        assert all(row["f1"] == 0.0 for row in rows)
        baseline = load_floors(str(BASELINE_PATH))
        comparison = check_floors({"scenarios": {"rows": rows}}, baseline)
        regressed = {(r.label, r.metric) for r in comparison if r.regressed}
        for name in scenario_names():
            assert (name, "recall") in regressed
            assert (name, "f1") in regressed
            # Nothing detected -> latency undefined -> ceiling violated.
            assert (name, "latency_intervals") in regressed


class TestCommittedBaselineFile:
    def test_baseline_gates_every_catalog_scenario(self):
        with open(BASELINE_PATH, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        assert baseline["schema"] == "repro-scenario-baseline/1"
        assert set(baseline["floors"]) == set(scenario_names())
        for name, floors in baseline["floors"].items():
            assert floors["min_f1"] > 0, f"{name} floor is vacuous"
