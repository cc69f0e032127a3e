"""Tests for the machine-readable perf harness and its CI gate logic.

``run_suite`` runs here with tiny packet/repeat overrides — these tests
check the report contract (schema, structure, speedup derivation) and the
baseline comparison semantics, not actual performance numbers.
"""

import json
import pathlib

import pytest

from repro.bench import (
    SCHEMA_VERSION,
    ComparisonRow,
    compare_reports,
    format_delta_markdown,
    format_delta_table,
    format_report,
    load_baseline,
    run_suite,
    write_report,
)
from repro.bench.compare import BASELINE_SCHEMA

BASELINE_PATH = (
    pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "baseline.json"
)


@pytest.fixture(scope="module")
def tiny_report():
    # One shared tiny run: 200 packets, 1 repeat, kernels only.
    return run_suite(
        quick=True,
        skip_experiments=True,
        packets=200,
        repeats=1,
    )


class TestRunSuite:
    def test_report_schema_fields(self, tiny_report):
        assert tiny_report["schema"] == SCHEMA_VERSION
        assert tiny_report["quick"] is True
        assert isinstance(tiny_report["revision"], str)
        assert isinstance(tiny_report["python"], str)
        assert tiny_report["experiments"] == []
        assert isinstance(tiny_report["kernels"], list)
        assert tiny_report["kernels"], "suite measured no kernels"
        assert tiny_report["workers"] >= 1

    def test_every_kernel_has_scalar_and_batched_rows(self, tiny_report):
        names = {row["name"] for row in tiny_report["kernels"]}
        assert {
            "mean_variance",
            "percentile",
            "time_series",
            "sparse",
            "sharded_mean_variance",
            "shm_parallel_mean_variance",
        } <= names
        for name in names:
            modes = {
                row["mode"]
                for row in tiny_report["kernels"]
                if row["name"] == name
            }
            assert {"scalar", "batched"} <= modes, name

    def test_speedups_derived_from_kernel_rows(self, tiny_report):
        speedups = tiny_report["speedups"]
        for kernel, ratio in speedups.items():
            (scalar,) = [
                row["pps"]
                for row in tiny_report["kernels"]
                if row["name"] == kernel and row["mode"] == "scalar"
            ]
            (batched,) = [
                row["pps"]
                for row in tiny_report["kernels"]
                if row["name"] == kernel and row["mode"] == "batched"
            ]
            assert ratio == pytest.approx(batched / scalar)

    def test_report_round_trips_through_json(self, tiny_report, tmp_path):
        path = write_report(tiny_report, output=str(tmp_path / "bench.json"))
        with open(path, "r", encoding="utf-8") as handle:
            assert json.load(handle) == tiny_report

    def test_format_report_mentions_every_kernel(self, tiny_report):
        text = format_report(tiny_report)
        for row in tiny_report["kernels"]:
            assert row["name"] in text

    def test_format_report_aligns_every_kernel_row(self, tiny_report):
        # The longest kernel name must not push its row's columns right:
        # every row's mode column starts at the header's offset.
        lines = format_report(tiny_report).splitlines()
        header = next(line for line in lines if line.startswith("kernel "))
        offset = header.index("mode")
        rows = lines[lines.index(header) + 1 :][: len(tiny_report["kernels"])]
        for line, row in zip(rows, tiny_report["kernels"]):
            assert line.startswith(row["name"]), line
            assert line[offset:].startswith(row["mode"]), line

    def test_service_throughput_kernel_measured(self, tiny_report):
        rows = [
            row for row in tiny_report["kernels"]
            if row["name"] == "service_throughput"
        ]
        modes = {row["mode"] for row in rows}
        assert {"scalar", "batched"} <= modes
        assert "service_throughput" in tiny_report["speedups"]
        section = tiny_report["service"]
        assert section["packets"] == 200
        assert section["pps"] > 0
        assert section["dropped_batches"] == 0
        text = format_report(tiny_report)
        assert "service throughput" in text

    def test_cluster_scaling_sweep(self, tiny_report):
        rows = tiny_report["cluster"]
        assert [row["shards"] for row in rows] == [1, 2, 4, 8]
        for row in rows:
            assert row["ingest_pps"] > 0
            assert row["merge_seconds"] >= 0
        text = format_report(tiny_report)
        assert "cluster scaling" in text


def make_report(speedups):
    return {
        "schema": SCHEMA_VERSION,
        "revision": "test",
        "python": "3.x",
        "numpy": "2.0",
        "quick": True,
        "kernels": [],
        "experiments": [],
        "speedups": speedups,
    }


def make_baseline(speedups, tolerance=0.2):
    return {"schema": BASELINE_SCHEMA, "tolerance": tolerance, "speedups": speedups}


class TestCompareReports:
    def test_above_floor_passes(self):
        rows = compare_reports(
            make_report({"k": 3.5}),
            make_baseline({"k": 3.0}),
        )
        assert [(r.kernel, r.regressed) for r in rows] == [("k", False)]

    def test_within_tolerance_passes(self):
        rows = compare_reports(
            make_report({"k": 2.5}),
            make_baseline({"k": 3.0}),
            tolerance=0.2,
        )
        assert not rows[0].regressed

    def test_below_tolerance_fails(self):
        rows = compare_reports(
            make_report({"k": 2.3}),
            make_baseline({"k": 3.0}),
            tolerance=0.2,
        )
        assert rows[0].regressed
        assert rows[0].delta_percent < 0

    def test_missing_measurement_fails(self):
        rows = compare_reports(
            make_report({}),
            make_baseline({"k": 3.0}),
        )
        assert rows[0].regressed
        assert rows[0].current is None

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            compare_reports(make_report({}), make_baseline({}), tolerance=-0.1)

    def test_delta_table_lists_verdicts(self):
        rows = [
            ComparisonRow("good", 3.0, 3.6, False),
            ComparisonRow("bad", 3.0, 1.0, True),
            ComparisonRow("gone", 3.0, None, True),
        ]
        text = format_delta_table(rows)
        assert "ok" in text
        assert "FAIL" in text
        assert "FAIL (not measured)" in text
        assert "2 regression(s) detected" in text

    def test_measured_without_floor_warns_instead_of_silent_pass(self):
        rows = compare_reports(
            make_report({"k": 3.5, "unbaselined": 2.0}),
            make_baseline({"k": 3.0}),
        )
        warn = [row for row in rows if row.missing_floor]
        assert [r.kernel for r in warn] == ["unbaselined"]
        assert not warn[0].regressed
        assert warn[0].baseline is None
        assert warn[0].delta_percent is None
        text = format_delta_table(rows)
        assert "WARN (no baseline floor)" in text
        assert "missing a committed floor (not gated): unbaselined" in text

    def test_missing_floor_never_fails_the_gate(self):
        rows = compare_reports(
            make_report({"only_measured": 0.01}),
            make_baseline({}),
        )
        assert not any(row.regressed for row in rows)
        assert all(row.missing_floor for row in rows)


class TestFormatDeltaMarkdown:
    def test_renders_github_table(self):
        rows = [
            ComparisonRow("good", 3.0, 3.6, False),
            ComparisonRow("bad", 3.0, 1.0, True),
            ComparisonRow("gone", 3.0, None, True),
            ComparisonRow("unbaselined", None, 2.0, False, True),
        ]
        text = format_delta_markdown(rows, tolerance=0.2)
        assert text.startswith("### perf-smoke")
        assert "| kernel | floor | current | delta | verdict |" in text
        assert "| `good` | 3.00x | 3.60x | +20% | ✅ ok |" in text
        assert "❌ FAIL" in text
        assert "❌ FAIL (not measured)" in text
        assert "⚠️ WARN (no baseline floor)" in text
        assert "2 regression(s) detected" in text
        assert "(not gated): unbaselined" in text


class TestLoadBaseline:
    def test_loads_committed_baseline(self):
        baseline = load_baseline(str(BASELINE_PATH))
        assert baseline["schema"] == BASELINE_SCHEMA
        assert "mean_variance" in baseline["speedups"]

    def test_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "nope", "speedups": {}}))
        with pytest.raises(ValueError):
            load_baseline(str(path))

    def test_rejects_a_schema_1_baseline(self, tmp_path):
        # A /1 baseline (two floors per kernel) must be refused,
        # not read as one floor per kernel.
        path = tmp_path / "old.json"
        path.write_text(
            json.dumps(
                {
                    "schema": "repro-bench-baseline/1",
                    "speedups": {"k": {"python": 3.0}},
                }
            )
        )
        with pytest.raises(ValueError, match="baseline/1"):
            load_baseline(str(path))

    def test_committed_baseline_has_one_floor_per_kernel(self):
        baseline = load_baseline(str(BASELINE_PATH))
        for kernel, floor in baseline["speedups"].items():
            assert isinstance(floor, float) and floor > 0, kernel

    def test_rejects_missing_speedups(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": BASELINE_SCHEMA}))
        with pytest.raises(ValueError):
            load_baseline(str(path))

    def test_committed_baseline_consistent_with_suite_kernels(self, tiny_report):
        # Every committed floor must name a kernel the suite measures, so
        # the perf-smoke gate can never silently check nothing.
        baseline = load_baseline(str(BASELINE_PATH))
        measured = set(tiny_report["speedups"])
        assert set(baseline["speedups"]) <= measured
