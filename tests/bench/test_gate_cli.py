"""The committed-floor gate through ``repro bench``: exit codes, the
``::warning::`` annotations and the job summary.

``repro.bench.run_suite`` is replaced by a hand-built report, so each
case pins one gate decision without timing anything or running a driver.
"""

import json
import pathlib

import pytest

import repro.bench
from repro.bench.compare import BASELINE_SCHEMA
from repro.bench.paper import CLAIMS
from repro.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[2]
BASELINE = ROOT / "benchmarks" / "baseline.json"
SCENARIO_BASELINE = ROOT / "benchmarks" / "scenario_baseline.json"
PAPER_BASELINE = ROOT / "benchmarks" / "paper_baseline.json"


def committed(path):
    return json.loads(path.read_text())


def scenario_row(name, **overrides):
    row = {
        "scenario": name,
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
        "latency_intervals": 0.0,
        "victim_identified": None,
    }
    row.update(overrides)
    return row


def make_report(speedups=None, scenarios=None, paper=None):
    """A report that clears every committed floor unless overridden."""
    if speedups is None:
        speedups = {
            kernel: floor * 1.5
            for kernel, floor in committed(BASELINE)["speedups"].items()
        }
    report = {
        "schema": "repro-bench/2",
        "revision": "test",
        "python": "3.x",
        "numpy": None,
        "quick": True,
        "kernels": [
            {
                "name": kernel,
                "mode": "batched",
                "packets": 100,
                "seconds": 0.001,
                "pps": 1e5,
                "ns_per_packet": 1e4,
            }
            for kernel in speedups
        ],
        "cluster": [],
        "service": None,
        "speedups": speedups,
        "paper": paper or {},
    }
    if scenarios is not None:
        report["scenarios"] = {"schema": "repro-scenarios/2", "rows": scenarios}
    return report


def passing_scenarios():
    return [scenario_row(name) for name in committed(SCENARIO_BASELINE)["floors"]]


def passing_claims():
    """Every committed paper claim, each metric halfway between its bounds
    (or on its one bound)."""
    claims = {}
    for claim, bounds in committed(PAPER_BASELINE)["claims"].items():
        by_metric = {}
        for key, bound in bounds.items():
            by_metric.setdefault(key.split("_", 1)[1], []).append(bound)
        claims[claim] = {
            metric: sum(values) / len(values) for metric, values in by_metric.items()
        }
    return claims


@pytest.fixture
def bench(monkeypatch, tmp_path):
    """``bench(report, *args)`` runs ``repro bench`` on ``report`` and
    returns its exit code; ``bench.calls`` holds run_suite's arguments."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GITHUB_ACTIONS", raising=False)
    monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
    calls = []

    def run(report, *args):
        def fake_suite(**kwargs):
            calls.append(kwargs)
            return report

        monkeypatch.setattr(repro.bench, "run_suite", fake_suite)
        return main(["bench", "--output", str(tmp_path / "report.json"), *args])

    run.calls = calls
    return run


def write_baseline(tmp_path, speedups, tolerance):
    path = tmp_path / "baseline.json"
    path.write_text(
        json.dumps(
            {"schema": BASELINE_SCHEMA, "tolerance": tolerance, "speedups": speedups}
        )
    )
    return str(path)


def test_every_floor_holds_exits_0(bench, capsys):
    report = make_report(scenarios=passing_scenarios(), paper=passing_claims())
    code = bench(
        report,
        "--baseline", str(BASELINE),
        "--baseline", str(SCENARIO_BASELINE),
        "--baseline", str(PAPER_BASELINE),
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "perf-smoke" in out and "scenario-smoke" in out and "paper-claims" in out
    assert "FAIL" not in out and "WARN" not in out


def test_a_claim_past_its_bound_exits_1_and_is_named(bench, capsys):
    claims = passing_claims()
    claims["resources"]["longest_chain"] = 13
    code = bench(make_report(paper=claims), "--baseline", str(PAPER_BASELINE))
    out = capsys.readouterr().out
    assert code == 1
    failed = [line.split() for line in out.splitlines() if line.endswith("FAIL")]
    assert [row[:2] for row in failed] == [["resources", "longest_chain"]]
    assert "paper-claims: 1 regression(s) detected" in out


def test_a_claim_with_no_bound_is_a_warn_row(bench, monkeypatch, capsys):
    monkeypatch.setenv("GITHUB_ACTIONS", "true")
    claims = dict(passing_claims(), fresh_claim={"ratio": 2.0, "count": 3})
    code = bench(make_report(paper=claims), "--baseline", str(PAPER_BASELINE))
    out = capsys.readouterr().out
    assert code == 0
    (warn,) = [line for line in out.splitlines() if line.endswith("WARN (no floor)")]
    assert warn.split()[:2] == ["fresh_claim", "ratio"]
    assert "::warning title=paper-claims" in out


def test_paper_baseline_bounds_every_claim():
    paper = committed(PAPER_BASELINE)
    assert paper["schema"] == "repro-paper-baseline/1"
    assert list(paper["claims"]) == list(CLAIMS)
    for claim, bounds in paper["claims"].items():
        assert bounds, f"{claim} has no bound"


@pytest.mark.parametrize("factor, expected", [(0.81, 0), (0.79, 1)])
def test_speedup_below_floor_times_tolerance_exits_1(bench, factor, expected):
    # The committed file's tolerance is 0.2: a ratio may read 20% under
    # its floor, and no further.
    speedups = {
        kernel: floor * (factor if kernel == "mean_variance" else 1.5)
        for kernel, floor in committed(BASELINE)["speedups"].items()
    }
    assert committed(BASELINE)["tolerance"] == 0.2
    assert bench(make_report(speedups), "--baseline", str(BASELINE)) == expected


def test_an_unreachable_floor_exits_1(bench, tmp_path):
    floors = dict(committed(BASELINE)["speedups"], mean_variance=1e9)
    baseline = write_baseline(tmp_path, floors, tolerance=0.2)
    assert bench(make_report(), "--baseline", baseline) == 1


def test_the_baselines_own_tolerance_governs(bench, tmp_path, capsys):
    # A file with no tolerance band fails a ratio 1% under its floor.
    baseline = write_baseline(tmp_path, {"mean_variance": 3.0}, tolerance=0.0)
    report = make_report({"mean_variance": 3.0 * 0.99})
    assert bench(report, "--baseline", baseline) == 1
    assert "perf-smoke: committed floors (exact)" in capsys.readouterr().out


def test_scenario_below_its_floor_exits_1(bench, capsys):
    scenarios = passing_scenarios()
    scenarios[0]["recall"] = 0.99
    report = make_report(speedups={}, scenarios=scenarios)
    code = bench(report, "--scenarios-only", "--baseline", str(SCENARIO_BASELINE))
    assert code == 1
    assert "regression(s) detected" in capsys.readouterr().out


@pytest.mark.parametrize("on_actions", [False, True])
def test_warn_only_run_exits_0_and_annotates_on_actions(
    bench, tmp_path, monkeypatch, capsys, on_actions
):
    if on_actions:
        monkeypatch.setenv("GITHUB_ACTIONS", "true")
    floors = committed(BASELINE)["speedups"]
    baseline = write_baseline(tmp_path, floors, tolerance=0.2)
    speedups = {kernel: floor * 1.5 for kernel, floor in floors.items()}
    speedups["fresh_kernel"] = 1.0
    code = bench(make_report(speedups), "--baseline", baseline)
    out = capsys.readouterr().out
    assert code == 0
    assert "fresh_kernel" in out and "WARN" in out
    assert ("::warning title=perf-smoke" in out) is on_actions


def test_step_summary_holds_a_verdict_row_per_floor(bench, monkeypatch, tmp_path):
    summary = tmp_path / "summary.md"
    monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
    # The two CI gate commands, as ci.yml runs them.
    assert bench(
        make_report(paper=passing_claims()),
        "--quick", "--json", "--baseline", str(BASELINE),
        "--baseline", str(PAPER_BASELINE), "--history",
    ) == 0
    assert bench(
        make_report(speedups={}, scenarios=passing_scenarios()),
        "--quick", "--json", "--scenarios-only",
        "--baseline", str(SCENARIO_BASELINE),
    ) == 0
    # Verdict rows are the table rows whose last cell reads "ok"; their
    # first cell is the kernel, scenario or claim.
    verdicts = {}
    for line in summary.read_text().splitlines():
        if line.startswith("| ") and line.endswith("ok |"):
            label = line.split("|")[1].strip(" `")
            verdicts[label] = verdicts.get(label, 0) + 1
    expected = {kernel: 1 for kernel in committed(BASELINE)["speedups"]}
    for scenario, bounds in committed(SCENARIO_BASELINE)["floors"].items():
        expected[scenario] = len(bounds)
    for claim, bounds in committed(PAPER_BASELINE)["claims"].items():
        expected[claim] = len(bounds)
    assert verdicts == expected
    assert (tmp_path / "benchmarks" / "history" / "index.json").exists()


def test_scenario_baseline_alone_produces_scenario_rows(bench, capsys):
    report = make_report(scenarios=passing_scenarios())
    assert bench(report, "--baseline", str(SCENARIO_BASELINE)) == 0
    assert bench.calls[-1]["scenarios"] is True
    out = capsys.readouterr().out
    assert "scenario-smoke" in out
    assert "perf-smoke" not in out
    for name in committed(SCENARIO_BASELINE)["floors"]:
        assert name in out


def test_scenarios_only_with_a_speed_baseline_is_a_usage_error(bench, capsys):
    # Nor with a paper baseline: --scenarios-only runs neither section.
    for baseline in (BASELINE, PAPER_BASELINE):
        code = bench(make_report(), "--scenarios-only", "--baseline", str(baseline))
        assert code == 2
        assert bench.calls == []
        assert "--scenarios-only" in capsys.readouterr().err


@pytest.mark.parametrize(
    "document",
    [
        None,
        {"schema": "repro-scenario-baseline/1", "floors": {"s": {"f1": 1.0}}},
        {"schema": "repro-scenario-baseline/1", "floors": {"s": {"min_f1": "1"}}},
        {"schema": "repro-nothing/1", "floors": {}},
    ],
    ids=["missing", "no-direction", "string-bound", "unknown-schema"],
)
def test_a_bad_floors_file_is_refused_before_anything_runs(
    bench, tmp_path, capsys, document
):
    path = tmp_path / "floors.json"
    if document is not None:
        path.write_text(json.dumps(document))
    code = bench(
        make_report(), "--scenarios-only", "--baseline", str(SCENARIO_BASELINE),
        "--baseline", str(path),
    )
    assert code == 2
    assert bench.calls == []
    assert str(path) in capsys.readouterr().err


def test_history_takes_its_directory(bench, tmp_path):
    assert bench(make_report(), "--history", str(tmp_path / "elsewhere")) == 0
    index = json.loads((tmp_path / "elsewhere" / "index.json").read_text())
    assert [run["revision"] for run in index["runs"]] == ["test"]
