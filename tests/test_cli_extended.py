"""Tests for the sketch / combine / drilldown CLI subcommands."""

import numpy as np
import pytest

from repro.cli import main
from repro.sketch import KArySchema
from repro.sketch.serialization import load


@pytest.fixture
def trace(tmp_path):
    path = tmp_path / "trace.bin"
    main(["generate", "--router", "small", "--duration", "1800",
          "--out", str(path), "--seed", "5"])
    return path


class TestSketchCommand:
    def test_writes_one_sketch_per_interval(self, trace, tmp_path, capsys):
        out_dir = tmp_path / "sketches"
        code = main(
            ["sketch", str(trace), "--out-dir", str(out_dir),
             "--width", "1024", "--depth", "3"]
        )
        assert code == 0
        files = sorted(out_dir.glob("*.ksk"))
        assert len(files) == 6  # 1800s / 300s
        sketch = load(files[0])
        assert sketch.schema.depth == 3
        assert sketch.schema.width == 1024

    def test_sketches_carry_traffic(self, trace, tmp_path):
        out_dir = tmp_path / "sketches"
        main(["sketch", str(trace), "--out-dir", str(out_dir),
              "--width", "1024"])
        totals = [load(p).total() for p in sorted(out_dir.glob("*.ksk"))]
        assert all(t > 0 for t in totals)


class TestCombineCommand:
    def test_combines_and_checks_schema(self, trace, tmp_path, capsys):
        out_dir = tmp_path / "sketches"
        main(["sketch", str(trace), "--out-dir", str(out_dir),
              "--width", "1024"])
        files = sorted(str(p) for p in out_dir.glob("*.ksk"))
        merged_path = tmp_path / "merged.ksk"
        code = main(["combine", *files, "--out", str(merged_path)])
        assert code == 0
        merged = load(merged_path)
        assert merged.total() == pytest.approx(
            sum(load(p).total() for p in files), rel=1e-9
        )

    def test_coefficient(self, trace, tmp_path):
        out_dir = tmp_path / "sketches"
        main(["sketch", str(trace), "--out-dir", str(out_dir),
              "--width", "1024"])
        first = sorted(str(p) for p in out_dir.glob("*.ksk"))[0]
        out = tmp_path / "scaled.ksk"
        main(["combine", first, "--out", str(out), "--coefficient", "2.0"])
        assert load(out).total() == pytest.approx(2.0 * load(first).total())

    def test_incompatible_sketches_rejected(self, trace, tmp_path):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        main(["sketch", str(trace), "--out-dir", str(dir_a), "--width", "1024"])
        main(["sketch", str(trace), "--out-dir", str(dir_b), "--width", "2048"])
        file_a = sorted(str(p) for p in dir_a.glob("*.ksk"))[0]
        file_b = sorted(str(p) for p in dir_b.glob("*.ksk"))[0]
        with pytest.raises(ValueError, match="width"):
            main(["combine", file_a, file_b, "--out", str(tmp_path / "x.ksk")])


class TestDrilldownCommand:
    def test_runs_and_prints_prefixes(self, trace, capsys):
        code = main(
            ["drilldown", str(trace), "--levels", "8,24",
             "--threshold", "0.5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "interval" in out
        assert "/8" in out


class TestCheckpointResumeCommands:
    ARGS = ["--model", "ewma", "--alpha", "0.4", "--depth", "3",
            "--width", "1024", "--seed", "7", "--interval", "300",
            "--threshold", "0.02"]

    def _full_run_output(self, trace, tmp_path, capsys):
        # Checkpoint past the end of the trace, then resume (which
        # flushes the final interval) = one uninterrupted run.
        ckpt = tmp_path / "full.kcp"
        main(["checkpoint", str(trace), "--until", "1e18",
              "--out", str(ckpt), *self.ARGS])
        main(["resume", str(ckpt), str(trace)])
        out = capsys.readouterr().out
        return [line for line in out.splitlines() if line.startswith("interval")]

    def test_checkpoint_writes_file_and_reports(self, trace, tmp_path, capsys):
        ckpt = tmp_path / "sess.kcp"
        code = main(["checkpoint", str(trace), "--until", "900",
                     "--out", str(ckpt), *self.ARGS])
        assert code == 0
        assert ckpt.exists()
        out = capsys.readouterr().out
        assert "checkpointed" in out
        assert "watermark=" in out

    def test_resume_continues_identically(self, trace, tmp_path, capsys):
        reference = self._full_run_output(trace, tmp_path, capsys)

        ckpt = tmp_path / "sess.kcp"
        main(["checkpoint", str(trace), "--until", "900",
              "--out", str(ckpt), *self.ARGS])
        before = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("interval")]
        code = main(["resume", str(ckpt), str(trace)])
        assert code == 0
        after = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("interval")]
        assert before + after == reference

    def test_resume_can_rewrite_checkpoint(self, trace, tmp_path, capsys):
        ckpt = tmp_path / "sess.kcp"
        main(["checkpoint", str(trace), "--until", "600",
              "--out", str(ckpt), *self.ARGS])
        capsys.readouterr()
        ckpt2 = tmp_path / "sess2.kcp"
        code = main(["resume", str(ckpt), str(trace), "--out", str(ckpt2)])
        assert code == 0
        assert ckpt2.exists()
        assert "re-checkpointed" in capsys.readouterr().out


class TestRecordOrder:
    """NetFlow lists flows in export order, not the start-time order the
    intervals are binned on: every subcommand that cuts a trace into
    intervals prints the same on a trace and on its time-shuffle.  Before
    the slicers and ``monitor`` sorted, ``detect`` printed 1 report line
    instead of 11 on such a shuffle and ``monitor`` raised."""

    COMMANDS = {
        "detect": ["detect", "{trace}", "--interval", "300", "--top-n", "3",
                   "--width", "1024", "--threshold", "0.02"],
        "sketch": ["sketch", "{trace}", "--out-dir", "{out}", "--width", "256",
                   "--depth", "3"],
        "drilldown": ["drilldown", "{trace}", "--levels", "8,24",
                      "--threshold", "0.1", "--verbose"],
        "monitor": ["monitor", "{trace}", "--chunk-seconds", "60",
                    "--width", "1024", "--top-n", "3", "--threshold", "0.02"],
    }

    @pytest.fixture
    def shuffled(self, trace, tmp_path):
        from repro.streams import read_trace, write_trace

        records = read_trace(trace)
        order = np.random.default_rng(11).permutation(len(records))
        assert not np.all(np.diff(records["timestamp"][order]) >= 0)
        path = tmp_path / "shuffled.bin"
        write_trace(path, records[order])
        return path

    def _run(self, command, trace, out, capsys):
        argv = [a.format(trace=trace, out=out) for a in self.COMMANDS[command]]
        assert main(argv) == 0
        return capsys.readouterr().out.replace(str(out), "OUT").splitlines()

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_shuffled_trace_prints_the_same(
        self, command, trace, shuffled, tmp_path, capsys
    ):
        capsys.readouterr()
        ordered = self._run(command, trace, tmp_path / "a", capsys)
        assert self._run(command, shuffled, tmp_path / "b", capsys) == ordered
        if command == "sketch":
            files = sorted(p.name for p in (tmp_path / "a").iterdir())
            assert len(files) == 6
            assert sorted(p.name for p in (tmp_path / "b").iterdir()) == files
            for name in files:
                assert (tmp_path / "a" / name).read_bytes() == (
                    tmp_path / "b" / name
                ).read_bytes()
        else:
            assert sum(line.startswith("interval") for line in ordered) >= 5
        if command == "monitor":
            assert ordered[-1].startswith("monitored ")
            assert "30 chunks (6 intervals sealed)" in ordered[-1]


class TestLateStart:
    """Every subcommand numbers intervals on one grid and starts at the
    first record's interval.  On a trace that starts at 1,500 s,
    ``detect`` prints the interval lines ``monitor`` and ``checkpoint``
    followed by ``resume`` print, and ``sketch`` and ``drilldown`` start
    at interval 5.  When the two-pass commands sliced from t = 0,
    ``detect`` printed 10 lines against ``monitor``'s 5, the first four
    for intervals with no records."""

    MODEL = ["--interval", "300", "--width", "1024", "--top-n", "3",
             "--threshold", "0.02"]

    @pytest.fixture
    def late(self, trace, tmp_path):
        from repro.streams import read_trace, write_trace

        records = read_trace(trace)
        records["timestamp"] += 1500.0
        path = tmp_path / "late.bin"
        write_trace(path, records)
        return path

    @staticmethod
    def _intervals(argv, capsys):
        capsys.readouterr()
        assert main([str(a) for a in argv]) == 0
        return [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("interval")]

    def test_detect_prints_what_the_session_prints(self, late, tmp_path, capsys):
        detect = self._intervals(["detect", late, *self.MODEL], capsys)
        assert [int(line.split()[1]) for line in detect] == [6, 7, 8, 9, 10]
        monitor = self._intervals(
            ["monitor", late, "--chunk-seconds", "60", *self.MODEL], capsys
        )
        assert monitor == detect
        checkpoint = tmp_path / "late.kcp"
        resumed = self._intervals(
            ["checkpoint", late, "--until", "2400", "--out", checkpoint,
             *self.MODEL], capsys,
        ) + self._intervals(["resume", checkpoint, late], capsys)
        assert resumed == detect

    def test_sketch_and_drilldown_start_at_the_first_records_interval(
        self, late, tmp_path, capsys
    ):
        out = tmp_path / "sketches"
        assert main(["sketch", str(late), "--out-dir", str(out),
                     "--width", "256", "--depth", "3"]) == 0
        assert sorted(p.name for p in out.iterdir())[0] == "interval_00005.ksk"
        reports = self._intervals(
            ["drilldown", late, "--levels", "8,24", "--threshold", "0.1",
             "--verbose"], capsys,
        )
        assert reports[0].startswith("interval 6")
