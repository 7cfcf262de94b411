"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import _schema, build_parser, main
from repro.streams import read_trace


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig01" in out
        assert "table1" in out

    def test_bench_parser(self):
        args = build_parser().parse_args(
            ["bench", "--quick", "--repeats", "1", "throughput"]
        )
        assert args.quick and args.repeats == 1
        assert args.suites == ["throughput"]
        assert args.output_dir is None
        with pytest.raises(SystemExit):  # unknown suite name
            build_parser().parse_args(["bench", "bogus"])

    def test_bench_quick_throughput_runs(self, tmp_path, capsys):
        assert main(["bench", "--quick", "--repeats", "1",
                     "--output-dir", str(tmp_path), "throughput"]) == 0
        out = capsys.readouterr().out
        assert "UPDATE" in out and "ESTIMATE" in out
        assert (tmp_path / "BENCH_throughput.json").exists()


#: The subcommands that take ``--key-source``, and the summary kind each
#: source needs.
KEY_SOURCE_ARGV = {
    "detect": ["detect", "t.bin"],
    "serve": ["serve"],
    "agent": ["agent", "t.bin", "--site", "a"],
}
KEY_SOURCE_KINDS = {
    "twopass": "kary",
    "online": "kary",
    "invertible": "invertible",
    "grouptesting": "grouptesting",
}


class TestSchemaForKeySource:
    """Every subcommand sketches with the summary its key source reads:
    recovering sources need their own planes, or the first seal fails."""

    @pytest.mark.parametrize(
        "command, key_source",
        [
            (command, key_source)
            for command in sorted(KEY_SOURCE_ARGV)
            for key_source in sorted(KEY_SOURCE_KINDS)
            if key_source != "online" or command == "detect"
        ],
    )
    def test_kind_follows_key_source(self, command, key_source):
        args = build_parser().parse_args(
            KEY_SOURCE_ARGV[command]
            + ["--key-source", key_source, "--depth", "3", "--width", "64"]
        )
        schema = _schema(args)
        assert schema.kind == KEY_SOURCE_KINDS[key_source]
        assert (schema.depth, schema.width) == (3, 64)

    @pytest.mark.parametrize(
        "argv",
        [["checkpoint", "t.bin", "--until", "60", "--out", "s.kcp"],
         ["sketch", "t.bin", "--out-dir", "d"]],
        ids=["checkpoint", "sketch"],
    )
    def test_without_key_source_the_sketch_is_kary(self, argv):
        assert _schema(build_parser().parse_args(argv)).kind == "kary"


class TestGenerateAndDetect:
    def test_generate_writes_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.bin"
        code = main(
            ["generate", "--router", "small", "--duration", "900",
             "--out", str(out)]
        )
        assert code == 0
        records = read_trace(out)
        assert len(records) > 0
        assert "wrote" in capsys.readouterr().out

    def test_detect_runs(self, tmp_path, capsys):
        out = tmp_path / "trace.bin"
        main(["generate", "--router", "small", "--duration", "1800",
              "--out", str(out), "--seed", "3"])
        capsys.readouterr()
        code = main(
            ["detect", str(out), "--interval", "300", "--model", "ewma",
             "--alpha", "0.5", "--top-n", "2", "--width", "4096"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5  # 6 intervals - 1 warm-up
        assert "alarms=" in lines[0]
        assert "top=[" in lines[0]

    def test_detect_window_model(self, tmp_path, capsys):
        out = tmp_path / "trace.bin"
        main(["generate", "--router", "small", "--duration", "1800",
              "--out", str(out)])
        capsys.readouterr()
        code = main(
            ["detect", str(out), "--interval", "300", "--model", "ma",
             "--window", "2", "--width", "1024"]
        )
        assert code == 0
        assert "interval" in capsys.readouterr().out


class TestGridsearchCommand:
    def test_prints_parameters(self, capsys):
        code = main(["gridsearch", "--router", "small", "--model", "ewma"])
        assert code == 0
        out = capsys.readouterr().out
        assert "router=small" in out
        assert "alpha" in out


class TestRunCommand:
    def test_run_table1(self, capsys):
        # Use the real experiment but keep it light is not possible through
        # the CLI (defaults only), so just check the plumbing with table1,
        # which is fast enough at default size.
        code = main(["run", "table1"])
        assert code == 0
        assert "Table 1" in capsys.readouterr().out
