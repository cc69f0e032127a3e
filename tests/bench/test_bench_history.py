"""Tests for the revision-over-revision bench history (``--history``)."""

import json

import pytest

from repro.bench import (
    HISTORY_SCHEMA,
    Floors,
    append_history,
    format_suggestions,
    format_trend,
    load_index,
    previous_report,
    suggest_floor_bumps,
)
from repro.bench.compare import BASELINE_SCHEMA, SCENARIO_BASELINE_SCHEMA
from repro.bench.suite import SCHEMA_VERSION


def make_report(revision, speedups=None, cluster=None, scenarios=None):
    report = {
        "schema": SCHEMA_VERSION,
        "revision": revision,
        "python": "3.x",
        "numpy": "2.0",
        "quick": True,
        "kernels": [],
        "paper": {},
        "speedups": speedups if speedups is not None else {"k": 2.0},
        "cluster": cluster if cluster is not None else [],
    }
    if scenarios is not None:
        report["scenarios"] = {"schema": "repro-scenarios/2", "rows": scenarios}
    return report


def scenario_row(scenario, f1):
    return {"scenario": scenario, "f1": f1}


class TestAppendHistory:
    def test_writes_report_and_index(self, tmp_path):
        history = str(tmp_path / "history")
        path = append_history(make_report("abc1234"), history)
        assert path.endswith("BENCH_abc1234.json")
        with open(path, "r", encoding="utf-8") as handle:
            assert json.load(handle)["revision"] == "abc1234"
        index = load_index(history)
        assert index["schema"] == HISTORY_SCHEMA
        assert [run["revision"] for run in index["runs"]] == ["abc1234"]
        assert index["runs"][0]["file"] == "BENCH_abc1234.json"
        assert index["runs"][0]["speedups"] == {"k": 2.0}

    def test_one_entry_per_revision_latest_wins(self, tmp_path):
        history = str(tmp_path / "history")
        append_history(make_report("aaa", speedups={"k": 1.0}), history)
        append_history(make_report("bbb"), history)
        append_history(make_report("aaa", speedups={"k": 9.0}), history)
        index = load_index(history)
        assert [run["revision"] for run in index["runs"]] == ["aaa", "bbb"]
        assert index["runs"][0]["speedups"]["k"] == 9.0

    def test_empty_index_when_missing(self, tmp_path):
        assert load_index(str(tmp_path / "nowhere"))["runs"] == []

    def test_rejects_a_schema_1_index(self, tmp_path):
        # A /1 index holds two speedups per kernel; it must be refused,
        # not read as one ratio per kernel.
        history = tmp_path / "history"
        history.mkdir()
        (history / "index.json").write_text(
            json.dumps({"schema": "repro-bench-history/1", "runs": []})
        )
        with pytest.raises(ValueError, match="history/1"):
            load_index(str(history))

    def test_rejects_foreign_schema(self, tmp_path):
        history = tmp_path / "history"
        history.mkdir()
        (history / "index.json").write_text(json.dumps({"schema": "nope"}))
        with pytest.raises(ValueError):
            load_index(str(history))

    def test_missing_revision_indexes_under_unknown(self, tmp_path):
        # A hand-built report with no revision must never produce
        # "BENCH_.json" or an empty index key.
        history = str(tmp_path / "history")
        report = make_report("whatever")
        del report["revision"]
        path = append_history(report, history)
        assert path.endswith("BENCH_unknown.json")
        index = load_index(history)
        assert [run["revision"] for run in index["runs"]] == ["unknown"]

    def test_scenario_summary_recorded_in_index(self, tmp_path):
        history = str(tmp_path / "history")
        append_history(
            make_report(
                "abc",
                scenarios=[
                    scenario_row("flood", 1.0),
                    scenario_row("scan", 0.9),
                ],
            ),
            history,
        )
        entry = load_index(history)["runs"][0]
        assert entry["scenarios"] == {"flood": 1.0, "scan": 0.9}

    def test_no_scenario_section_records_none(self, tmp_path):
        history = str(tmp_path / "history")
        append_history(make_report("abc"), history)
        assert load_index(history)["runs"][0]["scenarios"] is None


class TestPreviousReport:
    def test_skips_own_revision(self, tmp_path):
        history = str(tmp_path / "history")
        append_history(make_report("old"), history)
        append_history(make_report("new"), history)
        previous = previous_report(history, "new")
        assert previous["revision"] == "old"

    def test_none_when_only_self(self, tmp_path):
        history = str(tmp_path / "history")
        append_history(make_report("only"), history)
        assert previous_report(history, "only") is None

    def test_none_when_empty(self, tmp_path):
        assert previous_report(str(tmp_path / "nowhere"), "x") is None

    def test_none_when_file_vanished(self, tmp_path):
        history = tmp_path / "history"
        path = append_history(make_report("old"), str(history))
        append_history(make_report("new"), str(history))
        import os

        os.remove(path)
        assert previous_report(str(history), "new") is None


class TestFormatTrend:
    def test_reports_deltas_and_lifecycle(self):
        previous = make_report(
            "old", speedups={"k": 2.0, "gone_kernel": 1.0}
        )
        current = make_report(
            "new", speedups={"k": 3.0, "fresh_kernel": 1.5}
        )
        text = format_trend(current, previous)
        assert "trend vs revision old" in text
        assert "+50%" in text
        assert "new" in text  # fresh_kernel appeared
        assert "gone" in text  # gone_kernel vanished

    def test_cluster_merge_overhead_lines(self):
        previous = make_report(
            "old", cluster=[{"shards": 4, "merge_seconds": 0.002}]
        )
        current = make_report(
            "new",
            cluster=[
                {"shards": 4, "merge_seconds": 0.001},
                {"shards": 8, "merge_seconds": 0.004},
            ],
        )
        text = format_trend(current, previous)
        assert "cluster merge overhead" in text
        assert "4 shard(s): 0.0020 -> 0.0010" in text
        assert "8 shard" not in text  # no shared previous entry

    def test_no_cluster_section_without_shared_shards(self):
        text = format_trend(make_report("new"), make_report("old"))
        assert "cluster merge overhead" not in text

    def test_scenario_f1_trend_lines(self):
        previous = make_report(
            "old", scenarios=[scenario_row("flood", 0.8)]
        )
        current = make_report(
            "new",
            scenarios=[
                scenario_row("flood", 1.0),
                scenario_row("fresh", 1.0),
            ],
        )
        text = format_trend(current, previous)
        assert "scenario detection quality (F1):" in text
        assert "flood: 0.800 -> 1.000" in text
        assert "fresh" not in text  # no shared previous entry

    def test_no_scenario_section_without_shared_runs(self):
        text = format_trend(
            make_report("new", scenarios=[scenario_row("flood", 1.0)]),
            make_report("old"),
        )
        assert "scenario detection quality" not in text


def make_baseline(speedups, tolerance=0.2):
    return Floors(
        BASELINE_SCHEMA,
        tolerance,
        {kernel: {"min_speedup": floor} for kernel, floor in speedups.items()},
    )


class TestSuggestFloorBumps:
    def test_two_consecutive_big_wins_suggest_half_worst(self):
        suggestions = suggest_floor_bumps(
            make_report("new", speedups={"k": 8.0}),
            make_report("old", speedups={"k": 6.0}),
            make_baseline({"k": 1.5}),
        )
        assert len(suggestions) == 1
        s = suggestions[0]
        assert (s.kernel, s.floor) == ("k", 1.5)
        assert (s.current, s.previous) == (8.0, 6.0)
        # Documented refresh rule: half the worst of the two observations.
        assert s.suggested == 3.0

    def test_one_lucky_run_is_not_enough(self):
        # Previous revision only cleared the floor by 10% — no suggestion.
        suggestions = suggest_floor_bumps(
            make_report("new", speedups={"k": 8.0}),
            make_report("old", speedups={"k": 1.65}),
            make_baseline({"k": 1.5}),
        )
        assert suggestions == []

    def test_no_suggestion_when_half_would_not_raise(self):
        # Both runs beat a 3.0 floor by >25%, but half the worst (2.0)
        # is below the existing floor — suggesting it would be a downgrade.
        suggestions = suggest_floor_bumps(
            make_report("new", speedups={"k": 4.5}),
            make_report("old", speedups={"k": 4.0}),
            make_baseline({"k": 3.0}),
        )
        assert suggestions == []

    def test_unmeasured_kernel_skipped(self):
        suggestions = suggest_floor_bumps(
            make_report("new", speedups={"k": 8.0}),
            make_report("old", speedups={}),
            make_baseline({"k": 1.5}),
        )
        assert suggestions == []

    def test_quality_floors_get_no_suggestion(self):
        suggestions = suggest_floor_bumps(
            make_report("new", speedups={"k": 8.0}),
            make_report("old", speedups={"k": 6.0}),
            Floors(SCENARIO_BASELINE_SCHEMA, 0.0, {"k": {"min_f1": 1.5}}),
        )
        assert suggestions == []

    def test_negative_margin_rejected(self):
        with pytest.raises(ValueError):
            suggest_floor_bumps(
                make_report("new"), make_report("old"), make_baseline({}), margin=-0.1
            )

    def test_format_suggestions_empty_and_table(self):
        assert format_suggestions([]) == ""
        assert format_suggestions([], markdown=True) == ""
        suggestions = suggest_floor_bumps(
            make_report("new", speedups={"k": 8.0}),
            make_report("old", speedups={"k": 6.0}),
            make_baseline({"k": 1.5}),
        )
        text = format_suggestions(suggestions)
        assert "advisory" in text
        assert "3.00x" in text
        markdown = format_suggestions(suggestions, markdown=True)
        assert markdown.startswith("### baseline floors beaten by >25%")
        assert "| kernel | floor | previous | current | suggested |" in markdown
        assert "| k | 1.50x | 6.00x | 8.00x | 3.00x |" in markdown
