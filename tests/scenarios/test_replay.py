"""Replay-path tests: scalar/parallel equivalence and the negative control.

The differential here is the acceptance criterion for the scenario suite:
the scalar ``BatchEngine`` replay and the process-pool
``ParallelBatchEngine`` replay (workers=4, shared-memory columns) must
produce *identical* leaderboard rows on every catalog scenario — the
committed floors apply to both, so any divergence is a correctness bug,
not a tuning matter.
"""

import json
import pathlib

import pytest

from repro.bench import compare_scenario_reports, load_scenario_baseline
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
def scalar_rows():
    return run_scenario_suite(engine="scalar", workers=4)


class TestScalarReplay:
    def test_every_catalog_scenario_is_scored(self, scalar_rows):
        assert {row["scenario"] for row in scalar_rows} == set(scenario_names())
        assert all(row["engine"] == "scalar" for row in scalar_rows)

    def test_scores_meet_the_committed_floors(self, scalar_rows):
        baseline = load_scenario_baseline(str(BASELINE_PATH))
        report = {"scenarios": {"rows": scalar_rows}}
        rows = compare_scenario_reports(report, baseline)
        regressed = [r for r in rows if r.regressed]
        assert not regressed, f"floor regressions: {regressed}"
        # The committed baseline gates every scenario — no WARN rows.
        assert not any(r.missing_floor for r in rows)

    def test_heavy_hitter_names_its_victim(self, scalar_rows):
        by_name = {row["scenario"]: row for row in scalar_rows}
        assert by_name["heavy_hitter"]["victim_identified"] is True

    def test_replay_is_deterministic(self, scalar_rows):
        again = score_scenario(build_scenario("port_scan"), engine="scalar")
        by_name = {row["scenario"]: row for row in scalar_rows}
        assert again.as_row() == by_name["port_scan"]


class TestParallelDifferential:
    def test_parallel_rows_identical_to_scalar(self, scalar_rows):
        # Process pool + shared-memory columns: the exact engine CI's
        # parallel leg runs.  Every field of every row must match.
        parallel_rows = run_scenario_suite(engine="parallel", workers=4)
        scalar_by_name = {
            row["scenario"]: {k: v for k, v in row.items() if k != "engine"}
            for row in scalar_rows
        }
        parallel_by_name = {
            row["scenario"]: {k: v for k, v in row.items() if k != "engine"}
            for row in parallel_rows
        }
        assert parallel_by_name == scalar_by_name


class TestNegativeControl:
    def test_degraded_detector_fails_the_committed_floors(self):
        # min_samples beyond any trace length silences every detector;
        # the gate must report that as FAIL, not silently pass.
        rows = run_scenario_suite(
            engine="scalar", detector_overrides={"min_samples": 10**9}
        )
        assert all(row["alerts"] == 0 for row in rows)
        assert all(row["recall"] == 0.0 for row in rows)
        assert all(row["f1"] == 0.0 for row in rows)
        baseline = load_scenario_baseline(str(BASELINE_PATH))
        comparison = compare_scenario_reports(
            {"scenarios": {"rows": rows}}, baseline
        )
        regressed = {
            (r.scenario, r.metric) for r in comparison if r.regressed
        }
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
