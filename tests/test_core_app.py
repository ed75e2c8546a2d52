"""TipTop application: hosts, batch/live/collect modes, CLI."""

import pytest

from repro import Options, SimHost, TipTop
from repro.core.cli import main
from repro.core.formatter import render_batch, render_frame
from repro.core.recorder import Recorder
from repro.core.sampler import Snapshot
from repro.core.screen import get_screen
from repro.errors import PerfNotSupportedError
from repro.perf.syscall import kernel_supports_perf_events


@pytest.fixture
def busy_host(coarse_machine, endless_workload):
    coarse_machine.spawn("alpha", endless_workload, user="ann")
    coarse_machine.spawn("beta", endless_workload, user="bob")
    return SimHost(coarse_machine)


class TestBatchMode:
    def test_blocks_emitted(self, busy_host):
        blocks: list[str] = []
        with TipTop(busy_host, Options(delay=2.0)) as app:
            assert app.run_batch(3, write=blocks.append) == 3
        assert len(blocks) == 3
        for block in blocks:
            assert block.startswith("--- t=")
            assert "PID" in block and "IPC" in block
            assert "alpha" in block and "beta" in block

    def test_sleep_advances_virtual_clock(self, busy_host):
        with TipTop(busy_host, Options(delay=5.0)) as app:
            app.run_batch(2, write=lambda s: None)
        assert busy_host.machine.now == pytest.approx(10.0)


class TestLiveMode:
    def test_frames_have_summary_line(self, busy_host):
        frames: list[str] = []
        with TipTop(busy_host, Options(delay=1.0)) as app:
            assert app.run_live(2, paint=frames.append) == 2
        assert len(frames) == 2
        assert frames[0].startswith("tiptop - up ")
        assert "2 tasks" in frames[0]


class TestCollect:
    def test_recorder_filled(self, busy_host):
        with TipTop(busy_host, Options(delay=2.0)) as app:
            recorder = app.run_collect(4)
        assert len(recorder.pids()) == 2
        pid = recorder.pids()[0]
        times, values = recorder.series(pid, "IPC")
        assert len(times) == 4

    def test_custom_screen(self, busy_host):
        screen = get_screen("cache")
        with TipTop(busy_host, Options(delay=2.0), screen) as app:
            recorder = app.run_collect(2)
        assert "L3MIS" in recorder.frames[0].metrics


class TestFormatters:
    def test_batch_vs_frame(self, busy_host):
        with TipTop(busy_host, Options(delay=1.0)) as app:
            snaps = list(app.snapshots(1))
        screen = app.screen
        batch = render_batch(screen, snaps[1])
        frame = render_frame(screen, snaps[1])
        assert batch.splitlines()[0].startswith("---")
        assert frame.splitlines()[0].startswith("tiptop")

    def test_csv_roundtrip(self, busy_host):
        with TipTop(busy_host, Options(delay=1.0)) as app:
            snaps = list(app.snapshots(1))
        recorder = Recorder()
        recorder.record(snaps[1])
        [back] = Recorder.from_csv(recorder.to_csv()).frames
        frame = snaps[1].frame
        for name, column in frame.deltas.items():  # written in sorted order
            assert back.deltas[name].tolist() == column.tolist()
        assert render_batch(app.screen, Snapshot(back)) == render_batch(
            app.screen, snaps[1]
        )


class TestRecorder:
    def test_series_vs_instructions(self, busy_host):
        with TipTop(busy_host, Options(delay=2.0)) as app:
            rec = app.run_collect(3)
        pid = rec.pids()[0]
        xs, ys = rec.series_vs_instructions(pid, "IPC")
        assert len(xs) == 3
        assert all(b > a for a, b in zip(xs, xs[1:]))  # monotone instructions

    def test_mean_and_total(self, busy_host):
        with TipTop(busy_host, Options(delay=2.0)) as app:
            rec = app.run_collect(3)
        pid = rec.pids()[0]
        assert rec.mean(pid, "IPC") > 0
        assert rec.total_delta(pid, "instructions") > 0

    def test_frames_keep_command_names(self, busy_host):
        with TipTop(busy_host, Options(delay=2.0)) as app:
            rec = app.run_collect(2)
        assert sum(f.comms.count("alpha") for f in rec.frames) == 2

    def test_empty_mean_is_nan(self):
        import math

        assert math.isnan(Recorder().mean(1, "IPC"))


class TestRealHost:
    def test_realhost_raises_without_pmu(self):
        if kernel_supports_perf_events():
            pytest.skip("host has a PMU")
        from repro.core.app import RealHost

        with pytest.raises(PerfNotSupportedError):
            RealHost()


class TestCli:
    def test_list_screens(self, capsys):
        assert main(["--list-screens"]) == 0
        out = capsys.readouterr().out
        assert "default" in out and "fpassist" in out

    def test_sim_batch_run(self, capsys):
        assert main(["--sim", "-b", "-d", "2", "-n", "2"]) == 0
        out = capsys.readouterr().out
        assert "process1" in out
        assert out.count("--- t=") == 2

    def test_sim_live_run(self, capsys):
        assert main(["--sim", "-n", "1", "-d", "1"]) == 0
        assert "tiptop - up" in capsys.readouterr().out

    def test_real_host_error_path(self, capsys):
        if kernel_supports_perf_events():
            pytest.skip("host has a PMU")
        assert main(["-b", "-n", "1"]) == 2
        assert "--sim" in capsys.readouterr().err

    def test_screen_selection(self, capsys):
        assert main(["--sim", "-b", "-n", "1", "-S", "cache"]) == 0
        assert "L2MIS" in capsys.readouterr().out

    def test_bad_screen(self, capsys):
        assert main(["--sim", "-b", "-n", "1", "-S", "nope"]) == 1
