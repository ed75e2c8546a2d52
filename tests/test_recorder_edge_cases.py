"""Recorder edge cases: empty recordings, all-quarantined frames, and the
chaos HEALTH column's round trip."""

from __future__ import annotations

import math

from repro.core import formatter
from repro.core.columns import HEALTH_COLUMN
from repro.core.recorder import Recorder
from repro.core.sampler import Sampler
from repro.core.screen import get_screen
from repro.perf.faults import FaultPlan, FaultSpec
from repro.perf.simbackend import SimBackend
from repro.procfs.simproc import SimProcReader


class TestEmptyRecording:
    def test_empty_round_trip(self):
        recorder = Recorder()
        text = recorder.to_csv()
        back = Recorder.from_csv(text)
        assert back.frames == []
        assert back.pids() == []

    def test_empty_text_round_trip(self):
        assert Recorder.from_csv("").frames == []

    def test_series_on_empty_recording(self):
        times, values = Recorder().series(1234, "IPC")
        assert len(times) == 0
        assert len(values) == 0
        assert math.isnan(Recorder().mean(1234, "IPC"))


class TestAllTasksQuarantined:
    def make_sampler(self, machine, workload):
        machine.spawn("a", workload)
        machine.spawn("b", workload)
        faults = FaultPlan(0, [FaultSpec("read", "esrch", 1.0)])
        backend = SimBackend(machine, faults=faults)
        screen = get_screen("default").with_columns(HEALTH_COLUMN)
        return Sampler(backend, SimProcReader(machine), screen)

    def test_empty_frame_records_renders_and_round_trips(
        self, coarse_machine, endless_workload
    ):
        sampler = self.make_sampler(coarse_machine, endless_workload)
        sampler.sample()
        coarse_machine.run_for(2.0)
        snap = sampler.sample()
        assert len(snap.frame) == 0
        assert set(sampler.proclist.health_report().values()) <= {
            "quarantined",
            "reattached",
        }
        # The empty frame must render (batch header, no rows)...
        block = formatter.render_batch(sampler.screen, snap)
        assert "PID" in block
        # ...and recording it is a no-op, not a corruption.
        recorder = Recorder()
        recorder.record(snap)
        assert recorder.frames == []
        back = Recorder.from_csv(recorder.to_csv())
        assert back.frames == []
        sampler.close()

    def test_mixed_recording_skips_only_empty_frames(
        self, coarse_machine, endless_workload
    ):
        sampler = self.make_sampler(coarse_machine, endless_workload)
        recorder = Recorder()
        sampler.sample()
        for _ in range(4):
            coarse_machine.run_for(2.0)
            recorder.record(sampler.sample())
        # esrch fires on every read: only reattached-then-benched cycles,
        # so some frames are empty; the recorder keeps the others intact.
        assert all(len(f) > 0 for f in recorder.frames)
        back = Recorder.from_csv(recorder.to_csv())
        assert len(back.frames) == len(recorder.frames)
        sampler.close()


class TestHealthColumnRoundTrip:
    def test_health_labels_survive_csv(self, coarse_machine, endless_workload):
        coarse_machine.spawn("a", endless_workload)
        backend = SimBackend(coarse_machine, faults=FaultPlan(3))
        screen = get_screen("default").with_columns(HEALTH_COLUMN)
        sampler = Sampler(backend, SimProcReader(coarse_machine), screen)
        recorder = Recorder()
        sampler.sample()
        coarse_machine.run_for(2.0)
        recorder.record(sampler.sample())
        sampler.close()
        [frame] = recorder.frames
        assert frame.labels["HEALTH"] == ("ok",)
        back = Recorder.from_csv(recorder.to_csv())
        [rebuilt] = back.frames
        assert rebuilt.labels["HEALTH"] == ("ok",)
        assert ("HEALTH", "health") in rebuilt.columns
