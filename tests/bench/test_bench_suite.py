"""Tests for the machine-readable perf harness and its CI gate logic.

``run_suite`` runs here with tiny packet/repeat overrides — these tests
check the report contract (schema, structure, speedup derivation) and the
baseline comparison semantics, not actual performance numbers.
"""

import json
import math
import pathlib

import pytest

from repro.bench import (
    SCHEMA_VERSION,
    FloorRow,
    Floors,
    check_floors,
    format_report,
    format_verdicts,
    load_floors,
    run_suite,
    write_report,
)
from repro.bench.compare import (
    BASELINE_SCHEMA,
    PAPER_BASELINE_SCHEMA,
    SCENARIO_BASELINE_SCHEMA,
)

BASELINE_PATH = (
    pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "baseline.json"
)


@pytest.fixture(scope="module")
def tiny_report():
    # One shared tiny run: 200 packets, 1 repeat, no paper claims.
    return run_suite(
        quick=True,
        skip_paper=True,
        packets=200,
        repeats=1,
    )


class TestRunSuite:
    def test_report_schema_fields(self, tiny_report):
        assert tiny_report["schema"] == SCHEMA_VERSION
        assert tiny_report["quick"] is True
        assert isinstance(tiny_report["revision"], str)
        assert isinstance(tiny_report["python"], str)
        assert tiny_report["paper"] == {}
        assert isinstance(tiny_report["kernels"], list)
        assert tiny_report["kernels"], "suite measured no kernels"

    def test_every_kernel_has_scalar_and_batched_rows(self, tiny_report):
        names = {row["name"] for row in tiny_report["kernels"]}
        assert {
            "mean_variance",
            "percentile",
            "time_series",
            "sparse",
            "sparse_alerting",
            "sharded_mean_variance",
            "tracked_alerting",
            "service_throughput",
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

    def test_format_report_lists_every_paper_number(self, tiny_report):
        paper = {"claim": {"count": 3, "ratio": 0.125, "gone": None}}
        lines = format_report(dict(tiny_report, paper=paper)).splitlines()
        start = lines.index("paper claims:")
        assert [line.split() for line in lines[start + 2 : start + 5]] == [
            ["claim", "count", "3"],
            ["claim", "ratio", "0.125"],
            ["claim", "gone", "-"],
        ]

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
        "paper": {},
        "speedups": speedups,
    }


def make_baseline(speedups, tolerance=0.2):
    return Floors(
        BASELINE_SCHEMA,
        tolerance,
        {kernel: {"min_speedup": floor} for kernel, floor in speedups.items()},
    )


def write_baseline(tmp_path, document):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(document))
    return str(path)


class TestCompareReports:
    def test_above_floor_passes(self):
        rows = check_floors(
            make_report({"k": 3.5}),
            make_baseline({"k": 3.0}),
        )
        assert [(r.label, r.metric, r.regressed) for r in rows] == [
            ("k", "speedup", False)
        ]

    def test_within_tolerance_passes(self):
        rows = check_floors(
            make_report({"k": 2.5}),
            make_baseline({"k": 3.0}, tolerance=0.2),
        )
        assert not rows[0].regressed

    def test_below_tolerance_fails(self):
        rows = check_floors(
            make_report({"k": 2.3}),
            make_baseline({"k": 3.0}, tolerance=0.2),
        )
        assert rows[0].regressed
        assert rows[0].delta_percent < 0

    def test_missing_measurement_fails(self):
        rows = check_floors(
            make_report({}),
            make_baseline({"k": 3.0}),
        )
        assert rows[0].regressed
        assert rows[0].current is None

    def test_negative_tolerance_rejected(self, tmp_path):
        path = write_baseline(
            tmp_path,
            {"schema": BASELINE_SCHEMA, "tolerance": -0.1, "speedups": {}},
        )
        with pytest.raises(ValueError, match="tolerance"):
            load_floors(path)

    def test_delta_table_lists_verdicts(self):
        rows = [
            FloorRow("good", "speedup", 3.0, 3.6, False),
            FloorRow("bad", "speedup", 3.0, 1.0, True),
            FloorRow("gone", "speedup", 3.0, None, True),
        ]
        text = format_verdicts(rows, make_baseline({}))
        assert "ok" in text
        assert "FAIL" in text
        assert "FAIL (not measured)" in text
        assert "perf-smoke: 2 regression(s) detected" in text

    def test_measured_without_floor_warns_instead_of_silent_pass(self):
        rows = check_floors(
            make_report({"k": 3.5, "unbaselined": 2.0}),
            make_baseline({"k": 3.0}),
        )
        warn = [row for row in rows if row.missing_floor]
        assert [r.label for r in warn] == ["unbaselined"]
        assert not warn[0].regressed
        assert warn[0].bound is None
        assert warn[0].delta_percent is None
        text = format_verdicts(rows, make_baseline({"k": 3.0}))
        assert "WARN (no floor)" in text
        assert "missing a committed floor (not gated): unbaselined" in text

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "bounds", [{"min_f1": 1.0}, {"max_latency_intervals": 0.0}]
    )
    def test_a_value_that_is_not_finite_fails_either_way(self, bounds, value):
        report = {
            "scenarios": {
                "rows": [{"scenario": "s", "f1": value, "latency_intervals": value}]
            }
        }
        floors = Floors(SCENARIO_BASELINE_SCHEMA, 0.0, {"s": bounds})
        (row,) = check_floors(report, floors)
        assert row.regressed
        assert row.verdict == "FAIL"

    def test_missing_floor_never_fails_the_gate(self):
        rows = check_floors(
            make_report({"only_measured": 0.01}),
            make_baseline({}),
        )
        assert not any(row.regressed for row in rows)
        assert all(row.missing_floor for row in rows)


class TestFormatDeltaMarkdown:
    def test_renders_github_table(self):
        rows = [
            FloorRow("good", "speedup", 3.0, 3.6, False),
            FloorRow("bad", "speedup", 3.0, 1.0, True),
            FloorRow("gone", "speedup", 3.0, None, True),
            FloorRow("unbaselined", "speedup", None, 2.0, False, True),
        ]
        text = format_verdicts(rows, make_baseline({}, tolerance=0.2), markdown=True)
        assert text.startswith("### perf-smoke: committed floors (±20% tolerance)")
        assert "| label | metric | bound | current | delta | verdict |" in text
        assert "| --- | --- | ---: | ---: | ---: | --- |" in text
        assert "| good | speedup | ≥ 3 | 3.6 | +20% | ok |" in text
        assert "| bad | speedup | ≥ 3 | 1 | -67% | FAIL |" in text
        assert "| gone | speedup | ≥ 3 | - | - | FAIL (not measured) |" in text
        assert "| unbaselined | speedup | - | 2 | - | WARN (no floor) |" in text
        assert "2 regression(s) detected" in text
        assert "(not gated): unbaselined" in text


class TestVerdictNumbers:
    """Each row says which way its bound points, and prints its bound and
    value so that distinct numbers read differently."""

    CLAIMS = {
        "case_study_pinpoint": {
            "min_pinpoint_seconds": 2.0,
            "max_pinpoint_seconds": 3.0,
        },
        "ablation_division_table": {
            "max_finest_error": 0.001,
            "min_finest_table_bytes": 102401,
        },
    }
    MEASURED = {
        "case_study_pinpoint": {"pinpoint_seconds": 2.07},
        "ablation_division_table": {
            "finest_error": 0.00098,
            "finest_table_bytes": 102401,
        },
    }

    def verdicts(self, markdown):
        floors = Floors(PAPER_BASELINE_SCHEMA, 0.0, self.CLAIMS)
        rows = check_floors({"paper": self.MEASURED}, floors)
        return format_verdicts(rows, floors, markdown=markdown)

    def test_text(self):
        lines = [" ".join(line.split()) for line in self.verdicts(False).splitlines()]
        assert "case_study_pinpoint pinpoint_seconds ≥ 2 2.07 +3% ok" in lines
        assert "case_study_pinpoint pinpoint_seconds ≤ 3 2.07 -31% ok" in lines
        assert "ablation_division_table finest_error ≤ 0.001 0.00098 -2% ok" in lines
        assert (
            "ablation_division_table finest_table_bytes ≥ 102401 102401 +0% ok" in lines
        )

    def test_markdown(self):
        text = self.verdicts(True)
        pinpoint = "| case_study_pinpoint | pinpoint_seconds |"
        assert f"{pinpoint} ≥ 2 | 2.07 | +3% | ok |" in text
        assert f"{pinpoint} ≤ 3 | 2.07 | -31% | ok |" in text
        assert (
            "| ablation_division_table | finest_error | ≤ 0.001 | 0.00098 | -2% | ok |"
            in text
        )
        assert (
            "| ablation_division_table | finest_table_bytes | ≥ 102401 | 102401 | +0% "
            "| ok |" in text
        )


class TestLoadBaseline:
    def test_loads_committed_baseline(self):
        baseline = load_floors(str(BASELINE_PATH))
        assert baseline.schema == BASELINE_SCHEMA
        assert baseline.gate == "perf-smoke"
        assert baseline.tolerance == 0.2
        assert "mean_variance" in baseline.bounds

    def test_rejects_wrong_schema(self, tmp_path):
        path = write_baseline(tmp_path, {"schema": "nope", "speedups": {}})
        with pytest.raises(ValueError):
            load_floors(path)

    def test_rejects_a_schema_1_baseline(self, tmp_path):
        # A /1 baseline (two floors per kernel) must be refused,
        # not read as one floor per kernel.
        path = write_baseline(
            tmp_path,
            {
                "schema": "repro-bench-baseline/1",
                "speedups": {"k": {"python": 3.0}},
            },
        )
        with pytest.raises(ValueError, match="baseline/1"):
            load_floors(path)

    def test_committed_baseline_has_one_floor_per_kernel(self):
        baseline = load_floors(str(BASELINE_PATH))
        for kernel, bounds in baseline.bounds.items():
            (floor,) = bounds.values()
            assert list(bounds) == ["min_speedup"], kernel
            assert isinstance(floor, float) and floor > 0, kernel

    @pytest.mark.parametrize(
        "document, fault",
        [
            ({"schema": BASELINE_SCHEMA, "speedups": {"k": "3.0"}}, "not a number"),
            ({"schema": BASELINE_SCHEMA, "speedups": {"k": True}}, "not a number"),
            ({"schema": BASELINE_SCHEMA, "speedups": {"k": math.nan}}, "not finite"),
            (
                {"schema": BASELINE_SCHEMA, "tolerance": math.nan, "speedups": {}},
                "not finite",
            ),
            (
                {"schema": SCENARIO_BASELINE_SCHEMA, "floors": {"s": [1.0]}},
                "mapping",
            ),
            ([BASELINE_SCHEMA], "unknown floors schema"),
        ],
    )
    def test_rejects_a_bound_that_is_not_a_finite_number(
        self, tmp_path, document, fault
    ):
        path = write_baseline(tmp_path, document)
        with pytest.raises(ValueError, match=fault) as error:
            load_floors(path)
        assert str(error.value).startswith(path)

    @pytest.mark.parametrize("text", [None, "{not json"])
    def test_an_unreadable_file_is_a_value_error_naming_it(self, tmp_path, text):
        path = tmp_path / "floors.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(ValueError, match="cannot read floors file") as error:
            load_floors(str(path))
        assert str(error.value).startswith(str(path))

    def test_rejects_missing_speedups(self, tmp_path):
        path = write_baseline(tmp_path, {"schema": BASELINE_SCHEMA})
        with pytest.raises(ValueError):
            load_floors(path)

    def test_committed_baseline_consistent_with_suite_kernels(self, tiny_report):
        # Every committed floor must name a kernel the suite measures, so
        # the perf-smoke gate can never silently check nothing.
        baseline = load_floors(str(BASELINE_PATH))
        measured = set(tiny_report["speedups"])
        assert set(baseline.bounds) <= measured
