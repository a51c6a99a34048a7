"""CLI surface: commands parse, run, and print sane output."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_report_flags(self):
        args = build_parser().parse_args(["report", "--fast", "--seed", "3"])
        assert args.fast and args.seed == 3

    def test_experiment_name(self):
        args = build_parser().parse_args(["experiment", "figure3"])
        assert args.name == "figure3"

    def test_trace_flags(self):
        args = build_parser().parse_args(
            ["trace", "figure2", "--fast", "--out-dir", "/tmp/t"]
        )
        assert args.name == "figure2"
        assert args.fast and args.out_dir == "/tmp/t"


class TestCommands:
    def test_list_prints_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_unknown_experiment_fails(self, capsys):
        assert main(["experiment", "figure99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_demo_shows_four_paths(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        for start in ("cold", "restore", "warm", "horse"):
            assert start in out

    @pytest.mark.parametrize("name", ["table1", "figure1", "figure2", "figure3"])
    def test_experiment_commands_run_fast(self, capsys, name):
        assert main(["experiment", name, "--fast"]) == 0
        out = capsys.readouterr().out
        assert EXPERIMENTS[name].split(" — ")[0] in out

    def test_overhead_command(self, capsys):
        assert main(["experiment", "overhead", "--fast"]) == 0
        assert "mem delta" in capsys.readouterr().out

    def test_trace_unknown_experiment_fails(self, capsys):
        assert main(["trace", "figure99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_trace_exports_chrome_json_and_jsonl(self, tmp_path, capsys):
        import json

        from repro.obs import read_jsonl, to_chrome_trace

        out_dir = tmp_path / "traces"
        assert main(
            ["trace", "figure2", "--fast", "--out-dir", str(out_dir)]
        ) == 0
        out = capsys.readouterr().out
        assert "== metrics" in out
        assert "resume.total_ns" in out

        chrome_path = out_dir / "figure2.trace.json"
        jsonl_path = out_dir / "figure2.trace.jsonl"
        chrome = json.loads(chrome_path.read_text())
        events = chrome["traceEvents"]
        assert any(e.get("ph") == "X" and e["name"] == "resume"
                   for e in events)
        assert any(e.get("ph") == "X" and e["name"] == "merge"
                   for e in events)
        # the JSONL form round-trips to the identical Chrome export
        assert to_chrome_trace(read_jsonl(str(jsonl_path))) == chrome

    def test_report_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.md"
        assert main(["report", "--fast", "--out", str(out_file)]) == 0
        text = out_file.read_text()
        assert "# HORSE reproduction" in text
        assert "Figure 3" in text


class TestBadInputsFailBeforeTheRun:
    @pytest.mark.parametrize(
        "name", ["cluster_sharded", "cluster_recovery", "prewarm_frontier", "figure3"]
    )
    def test_zero_shards_exits_two(self, capsys, name):
        assert main(["experiment", name, "--fast", "--shards", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "shards must be >= 1, got 0" in captured.err

    @pytest.mark.parametrize("flags", [["--shards", "1"], ["--gateways", "3"]])
    @pytest.mark.parametrize(
        "target, message",
        [("missing/x.jsonl", "does not exist"), ("", "is a directory")],
    )
    def test_bad_trace_out_exits_two_without_running(
        self, tmp_path, capsys, flags, target, message
    ):
        argv = ["chaos", "cluster", *flags, "--trace-out", str(tmp_path / target)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert list(tmp_path.iterdir()) == []
