"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import build_parser, main


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
        ],
        ids=lambda command: command.replace(" ", "_"),
    )
    def test_counts_must_be_positive(self, command, value, capsys):
        # A usage error (exit 2) before the command runs: nothing printed
        # to stdout, and argparse names the flag.
        *argv, flag = command.split()
        with pytest.raises(SystemExit) as exited:
            main([*argv, flag, value])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}" in captured.err

    def test_ci_commands_parse(self):
        parser = build_parser()
        sharded = parser.parse_args(["validate", "--shards", "4", "--packets", "3000"])
        assert (sharded.shards, sharded.packets, sharded.batched) == (4, 3000, False)
        batched = parser.parse_args(["validate", "--batched", "--packets", "3000"])
        assert (batched.shards, batched.packets, batched.batched) == (None, 3000, True)
        assert parser.parse_args(["multiswitch", "--shards", "4"]).shards == 4

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

    def test_serve_sizes_parse(self):
        args = build_parser().parse_args(
            ["serve", "--feed", "127.0.0.1:0", "--batch-size", "1", "--queue-depth", "3"]
        )
        assert (args.batch_size, args.queue_depth) == (1, 3)
        defaults = build_parser().parse_args(["serve", "--synthetic", "10"])
        assert (defaults.batch_size, defaults.queue_depth) == (2048, 8)

    def test_case_study_options(self):
        args = build_parser().parse_args(
            ["case-study", "--interval", "0.1", "--window", "10", "--seed", "3"]
        )
        assert args.interval == 0.1
        assert args.window == 10
        assert args.seed == 3
        assert not args.poisson


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
