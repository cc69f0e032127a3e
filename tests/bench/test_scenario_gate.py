"""Unit tests for the floor check on scenario quality floors (check /
annotate / format).

These run on hand-built reports and floors — no replay — so every
branch of the gate logic is cheap to pin down: exact floors, latency
ceilings, undefined latency, vanished scenarios, WARN rows, and the
``::warning::`` annotations both smoke jobs emit.
"""

import json

import pytest

from repro.bench import (
    FloorRow,
    Floors,
    check_floors,
    format_verdicts,
    load_floors,
    warning_annotations,
)
from repro.bench.compare import SCENARIO_BASELINE_SCHEMA


def make_row(scenario="flood", **overrides):
    row = {
        "scenario": scenario,
        "packets": 1000,
        "intervals": 50,
        "windows": 1,
        "detected_windows": 1,
        "predicted_intervals": 5,
        "true_positive_intervals": 5,
        "false_positive_intervals": 0,
        "alerts": 5,
        "precision": 1.0,
        "recall": 1.0,
        "f1": 1.0,
        "latency_intervals": 1.0,
        "victim_identified": None,
    }
    row.update(overrides)
    return row


def make_report(rows):
    return {"scenarios": {"schema": "repro-scenarios/2", "rows": rows}}


def make_baseline(floors):
    return Floors(SCENARIO_BASELINE_SCHEMA, 0.0, floors)


def write_floors(tmp_path, document):
    path = tmp_path / "floors.json"
    path.write_text(json.dumps(document))
    return str(path)


FULL_FLOORS = {
    "min_precision": 1.0,
    "min_recall": 1.0,
    "min_f1": 1.0,
    "max_latency_intervals": 1.0,
}


class TestCompareScenarioReports:
    def test_exact_scores_pass(self):
        rows = check_floors(
            make_report([make_row()]), make_baseline({"flood": FULL_FLOORS})
        )
        assert len(rows) == 4
        assert not any(r.regressed for r in rows)
        assert not any(r.missing_floor for r in rows)

    def test_comparison_is_exact_not_toleranced(self):
        # A hair under the floor regresses — quality scores are
        # deterministic, so there is no tolerance band to hide in.
        rows = check_floors(
            make_report([make_row(f1=0.999999)]),
            make_baseline({"flood": {"min_f1": 1.0}}),
        )
        assert [r.regressed for r in rows] == [True]

    def test_latency_is_a_ceiling(self):
        baseline = make_baseline({"flood": {"max_latency_intervals": 1.0}})
        ok = check_floors(
            make_report([make_row(latency_intervals=1.0)]), baseline
        )
        assert not ok[0].regressed
        slow = check_floors(
            make_report([make_row(latency_intervals=2.0)]), baseline
        )
        assert slow[0].regressed

    def test_undetected_latency_violates_a_committed_ceiling(self):
        rows = check_floors(
            make_report([make_row(latency_intervals=None)]),
            make_baseline({"flood": {"max_latency_intervals": 3.0}}),
        )
        assert rows[0].current is None
        assert rows[0].regressed

    def test_committed_floor_with_no_measured_row_fails(self):
        # A scenario silently dropping out of the suite must not pass.
        rows = check_floors(
            make_report([make_row(scenario="other")]),
            make_baseline({"vanished": FULL_FLOORS, "other": {"min_f1": 1.0}}),
        )
        vanished = [r for r in rows if r.label == "vanished"]
        assert vanished
        assert all(r.regressed and r.current is None for r in vanished)

    def test_measured_scenario_without_floors_is_a_warn_row(self):
        rows = check_floors(
            make_report([make_row(scenario="fresh")]), make_baseline({})
        )
        assert len(rows) == 1
        row = rows[0]
        assert row.missing_floor and not row.regressed
        assert row.metric == "f1"
        assert row.label == "fresh"


class TestLoadScenarioBaseline:
    def test_round_trips_a_valid_file(self, tmp_path):
        path = write_floors(
            tmp_path,
            {"schema": SCENARIO_BASELINE_SCHEMA, "floors": {"flood": FULL_FLOORS}},
        )
        floors = load_floors(path)
        assert floors.bounds["flood"] == FULL_FLOORS
        assert floors.gate == "scenario-smoke"
        # No tolerance in the file: quality floors compare exactly.
        assert floors.tolerance == 0.0

    def test_rejects_foreign_schema(self, tmp_path):
        path = write_floors(tmp_path, {"schema": "nope", "floors": {}})
        with pytest.raises(ValueError):
            load_floors(path)

    def test_rejects_missing_floors_mapping(self, tmp_path):
        path = write_floors(tmp_path, {"schema": SCENARIO_BASELINE_SCHEMA})
        with pytest.raises(ValueError):
            load_floors(path)

    def test_rejects_a_bound_with_no_direction(self, tmp_path):
        path = write_floors(
            tmp_path,
            {"schema": SCENARIO_BASELINE_SCHEMA, "floors": {"flood": {"f1": 1.0}}},
        )
        with pytest.raises(ValueError, match="min_/max_"):
            load_floors(path)


class TestWarningAnnotations:
    def test_scenario_warn_rows_annotate(self):
        rows = [
            FloorRow(
                label="fresh",
                metric="f1",
                bound=None,
                current=1.0,
                regressed=False,
                missing_floor=True,
            )
        ]
        lines = warning_annotations(rows, "scenario-smoke")
        assert len(lines) == 1
        assert lines[0].startswith("::warning title=scenario-smoke")
        assert "fresh is measured" in lines[0]

    def test_perf_warn_rows_annotate_too(self):
        rows = [
            FloorRow(
                label="fresh_kernel",
                metric="speedup",
                bound=None,
                current=2.0,
                regressed=False,
                missing_floor=True,
            )
        ]
        lines = warning_annotations(rows, "perf-smoke")
        assert len(lines) == 1
        assert lines[0].startswith("::warning title=perf-smoke")
        assert "fresh_kernel is measured" in lines[0]

    def test_gated_rows_do_not_annotate(self):
        rows = check_floors(
            make_report([make_row()]), make_baseline({"flood": FULL_FLOORS})
        )
        assert warning_annotations(rows, "scenario-smoke") == []


class TestFormatters:
    def test_delta_table_lists_verdicts(self):
        baseline = make_baseline(
            {"flood": {"min_f1": 1.0, "max_latency_intervals": 1.0}}
        )
        rows = check_floors(
            make_report([make_row(), make_row(scenario="fresh")]), baseline
        )
        text = format_verdicts(rows, baseline)
        assert text.startswith("scenario-smoke: committed floors (exact)")
        assert "flood" in text and "ok" in text
        assert "WARN (no floor)" in text  # fresh has no floor

    def test_delta_markdown_has_fail_rows(self):
        baseline = make_baseline({"flood": {"min_f1": 1.0}})
        rows = check_floors(make_report([make_row(f1=0.5)]), baseline)
        markdown = format_verdicts(rows, baseline, markdown=True)
        assert markdown.startswith("### scenario-smoke")
        assert "| flood | f1 | 1.000 | 0.500 | -50% | FAIL |" in markdown
        assert "scenario-smoke: 1 regression(s) detected" in markdown
