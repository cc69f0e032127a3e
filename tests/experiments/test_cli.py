"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import build_parser, main
from repro.traffic.builders import udp_frame
from repro.traffic.trace import PacketTrace, TraceRecord


#: A finite source that exits once drained, on a free port: a value that
#: slips through a check runs briefly instead of serving on.
SERVE_ONCE = "serve --port 0 --exit-when-drained"


def assert_usage_error(argv, capsys):
    # A usage error (exit 2) before the command runs: nothing printed to
    # stdout, and argparse names the flag (the next-to-last argument).
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {argv[-2]}" in captured.err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_validate_shards_option(self):
        args = build_parser().parse_args(["validate", "--shards", "4"])
        assert args.shards == 4
        assert build_parser().parse_args(["validate"]).shards is None

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize(
        "command",
        [
            "validate --packets",
            "validate --batched --packets",
            "validate --batched --batch-size",
            "validate --shards 2 --batch-size",
            "validate --shards",
            "multiswitch --shards",
            "table3 --repetitions",
            "sweep --repetitions",
            "generate --counter-num",
            "generate --counter-size",
            "generate --binding-stages",
            "case-study --spike-intervals",
            f"{SERVE_ONCE} --synthetic",
            "lint --max-value",
        ],
        ids=lambda command: command.replace(" ", "_"),
    )
    def test_counts_must_be_positive(self, command, value, capsys):
        assert_usage_error([*command.split(), value], capsys)

    @pytest.mark.parametrize(
        "command",
        [
            "case-study --window -3",
            "case-study --interval 0",
            "case-study --interval -1",
            "case-study --interval inf",
            "case-study --control-delay nan",
            "case-study --control-delay -1",
            "case-study --processing -1",
            "table3 --max-n 99",
            "table3 --max-n 0",
            "table3 --max-n -5",
            f"{SERVE_ONCE} --synthetic 10 --rate -5",
            f"{SERVE_ONCE} --synthetic 10 --degraded-after -1",
            "serve --synthetic 10 --exit-when-drained --port 70000",
            "serve --synthetic 10 --exit-when-drained --port -1",
            f"{SERVE_ONCE} --feed 127.0.0.1:70000",
            f"{SERVE_ONCE} --feed 127.0.0.1:-1",
            f"{SERVE_ONCE} --feed 127.0.0.1:abc",
            f"{SERVE_ONCE} --feed nohost",
        ],
        ids=lambda command: command.replace(" ", "_"),
    )
    def test_values_out_of_range_are_usage_errors(self, command, capsys):
        assert_usage_error(command.split(), capsys)

    def test_ci_commands_parse(self):
        parser = build_parser()
        sharded = parser.parse_args(["validate", "--shards", "4", "--packets", "3000"])
        assert (sharded.shards, sharded.packets, sharded.batched) == (4, 3000, False)
        batched = parser.parse_args(["validate", "--batched", "--packets", "3000"])
        assert (batched.shards, batched.packets, batched.batched) == (None, 3000, True)
        assert parser.parse_args(["multiswitch", "--shards", "4"]).shards == 4
        perf = parser.parse_args(
            "bench --quick --json --baseline benchmarks/baseline.json "
            "--baseline benchmarks/paper_baseline.json --history "
            "--output bench-report.json".split()
        )
        assert perf.baseline == [
            "benchmarks/baseline.json",
            "benchmarks/paper_baseline.json",
        ]
        assert (perf.quick, perf.json, perf.scenarios_only) == (True, True, False)
        scenarios = parser.parse_args(
            "bench --quick --json --scenarios-only "
            "--baseline benchmarks/scenario_baseline.json "
            "--output scenario-leaderboard.json".split()
        )
        assert scenarios.baseline == ["benchmarks/scenario_baseline.json"]
        assert scenarios.scenarios_only

    def test_batched_and_sharded_validation_are_exclusive(self, capsys):
        # One differential per run: --batched used to be dropped silently.
        assert_usage_error(
            ["validate", "--batched", "--packets", "500", "--shards", "2"], capsys
        )

    def test_bench_history_options(self):
        args = build_parser().parse_args(
            ["bench", "--quick", "--history", "somewhere"]
        )
        assert args.history == "somewhere"
        bare = build_parser().parse_args(["bench", "--history", "--quick"])
        assert bare.history == os.path.join("benchmarks", "history")
        assert bare.quick
        assert build_parser().parse_args(["bench"]).history is None

    @pytest.mark.parametrize("flag", ["--batch-size", "--queue-depth"])
    @pytest.mark.parametrize("value", ["0", "-5", "x"])
    @pytest.mark.parametrize(
        "source", [["--synthetic", "100"], ["--trace", "x.pcap"], ["--feed", "127.0.0.1:0"]]
    )
    def test_serve_sizes_must_be_positive(self, source, flag, value, capsys):
        # A usage error (exit 2) before any source is built or bound.
        with pytest.raises(SystemExit) as exited:
            build_parser().parse_args(["serve", *source, flag, value, "--port", "0"])
        assert exited.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "source, flag",
        [
            (["--scenario", "nosuch"], "--scenario"),
            (["--trace", "{missing}"], "--trace"),
            (["--trace", "{not_pcap}"], "--trace"),
            (["--trace", "{one_record}", "--loop"], "--loop"),
            (["--feed", "127.0.0.1:0", "--rate", "100"], "--rate"),
        ],
        ids=[
            "unknown_scenario", "missing_trace", "not_a_pcap", "unloopable", "paced_feed"
        ],
    )
    def test_a_source_that_cannot_serve_is_a_usage_error(
        self, source, flag, tmp_path, capsys
    ):
        (tmp_path / "not.pcap").write_bytes(b"not a capture")
        PacketTrace([TraceRecord(1.0, udp_frame(0x0A000001))]).save(
            str(tmp_path / "one.pcap")
        )
        paths = {
            "missing": tmp_path / "missing.pcap",
            "not_pcap": tmp_path / "not.pcap",
            "one_record": tmp_path / "one.pcap",
        }
        argv = SERVE_ONCE.split() + [part.format(**paths) for part in source]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"repro serve: error: argument {flag}: " in captured.err

    def test_serve_feed_address(self):
        parser = build_parser()
        # perfbench's two command lines.
        feed = parser.parse_args(
            "serve --feed 127.0.0.1:0 --batch-size 2048 --port 0".split()
        )
        assert (feed.feed, feed.rate) == (("127.0.0.1", 0), 0.0)
        trace = parser.parse_args(
            "serve --trace x.pcap --batch-size 2048 --port 0".split()
        )
        assert (trace.trace, trace.feed) == ("x.pcap", None)
        assert parser.parse_args(["serve", "--feed", ":9"]).feed == ("127.0.0.1", 9)

    def test_serve_sizes_parse(self):
        args = build_parser().parse_args(
            ["serve", "--feed", "127.0.0.1:0", "--batch-size", "1", "--queue-depth", "3"]
        )
        assert (args.batch_size, args.queue_depth) == (1, 3)
        defaults = build_parser().parse_args(["serve", "--synthetic", "10"])
        assert (defaults.batch_size, defaults.queue_depth) == (2048, 8)
        edges = build_parser().parse_args(
            ["serve", "--synthetic", "1", "--port", "65535"]
        )
        assert (edges.synthetic, edges.port) == (1, 65535)

    def test_case_study_options(self):
        args = build_parser().parse_args(
            ["case-study", "--interval", "0.1", "--window", "10", "--seed", "3"]
        )
        assert args.interval == 0.1
        assert args.window == 10
        assert args.seed == 3
        assert not args.poisson
        zeros = build_parser().parse_args(
            ["case-study", "--window", "0", "--processing", "0"]
        )
        assert (zeros.window, zeros.processing) == (0, 0.0)


class TestCommands:
    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "1-10" in out
        assert "paper" in out

    def test_table3_small(self, capsys):
        assert main(["table3", "--repetitions", "2", "--max-n", "100"]) == 0
        out = capsys.readouterr().out
        assert "100 (packet types)" in out
        assert "65536" not in out

    def test_validate_small(self, capsys):
        assert main(["validate", "--packets", "200"]) == 0
        out = capsys.readouterr().out
        assert "mismatches=0" in out
        assert "PASSED" in out

    def test_validate_sharded_small(self, capsys):
        assert main(["validate", "--shards", "2", "--packets", "400"]) == 0
        out = capsys.readouterr().out
        assert "shards=2" in out
        assert "mismatches=0" in out
        assert "PASSED" in out

    def test_resources(self, capsys):
        assert main(["resources"]) == 0
        out = capsys.readouterr().out
        assert "longest dependency chain: 12 steps" in out

    def test_case_study_fast(self, capsys):
        code = main(
            [
                "case-study",
                "--interval", "0.01",
                "--window", "15",
                "--spike-intervals", "40",
                "--control-delay", "0.005",
                "--processing", "0.005",
                "--seed", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "identified:" in out
        assert "pinpoint:" in out
