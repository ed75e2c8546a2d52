"""End-to-end integration: the tool pipeline over paper scenarios.

These run scaled-down versions of the experiments through the *full* stack
(workload model -> machine -> sim kernel -> perf backend -> sampler ->
screens -> recorder -> analysis), asserting the paper's qualitative claims.
The benchmarks/ directory runs the full-size versions.
"""

import math

import pytest

from repro import Options, SimHost, TipTop
from repro.analysis.phase_detect import transition_points
from repro.core.phases import detect_pid_phases, pid_metric_series
from repro.core.screen import get_screen
from repro.sim import NEHALEM, SimMachine
from repro.sim.workload import Workload
from repro.sim.workloads import datacenter, microbench, revolve, spec


class TestRevolvePipeline:
    def test_ipc_collapse_detected_through_full_stack(self):
        """A scaled Fig. 3a: phase change visible and detectable."""
        # Shrink the workload ~100x so the test runs in ~2 s.
        full = revolve.original()
        phases = tuple(p.with_budget(p.instructions / 100) for p in full.phases)
        machine = SimMachine(NEHALEM, tick=0.5, seed=2)
        proc = machine.spawn("R", Workload("revolve-small", phases), user="biologist")
        app = TipTop(
            SimHost(machine),
            Options(delay=2.0),
            get_screen("fpassist"),
        )
        with app:
            recorder = app.run_collect(90)
        series = pid_metric_series(recorder, proc.pid, "IPC")
        assert series.y[:10].mean() == pytest.approx(1.0, abs=0.15)
        assert min(series.y) < 0.1
        cuts = transition_points(series, window=5)
        assert cuts, "the collapse must be detectable"
        # FP assists appear exactly when IPC collapses (Fig. 3c).
        assists = pid_metric_series(recorder, proc.pid, "ASSIST")
        low_ipc = series.y < 0.5
        assert assists.y[low_ipc].mean() > 5.0
        assert assists.y[~low_ipc].mean() < 1.0


class TestMicrobenchPipeline:
    @pytest.mark.parametrize(
        "isa,operands,expect_ipc,expect_assist",
        [
            ("x87", "finite", 1.33, 0.0),
            ("x87", "inf", 0.015, 25.0),
            ("sse", "inf", 1.33, 0.0),
        ],
    )
    def test_table1_through_tool(self, isa, operands, expect_ipc, expect_assist):
        machine = SimMachine(NEHALEM, tick=0.5, seed=4)
        w = microbench.fp_microbench(isa, operands, iterations=math.inf)
        proc = machine.spawn(f"fp-{isa}", w)
        app = TipTop(SimHost(machine), Options(delay=2.0), get_screen("fpassist"))
        with app:
            recorder = app.run_collect(3)
        ipc = recorder.mean(proc.pid, "IPC")
        assist = recorder.mean(proc.pid, "ASSIST")
        assert ipc == pytest.approx(expect_ipc, rel=0.05)
        assert assist == pytest.approx(expect_assist, abs=0.5)


class TestDatacenterPipeline:
    def test_fig1_snapshot_renders(self):
        machine = datacenter.make_node(tick=0.5)
        datacenter.populate_fig1(machine)
        app = TipTop(SimHost(machine), Options(delay=5.0))
        blocks: list[str] = []
        with app:
            app.run_batch(2, write=blocks.append)
        last = blocks[-1]
        assert last.count("process") == 11
        assert "user1" in last and "user2" in last and "user3" in last

    def test_fig10_slowdown_through_tool(self):
        machine = datacenter.make_node(tick=1.0)
        jobs = datacenter.populate_fig10(
            machine, burst_start=120.0, burst_duration=600.0
        )
        victim = jobs["user1"][0]
        app = TipTop(SimHost(machine), Options(delay=10.0))
        with app:
            recorder = app.run_collect(40)
        series = pid_metric_series(recorder, victim.pid, "IPC")
        solo = series.window(0, 115).mean()
        corun = series.window(200, 400).mean()
        assert 0.05 < 1 - corun / solo < 0.4
        # %CPU stays pegged throughout (the paper's headline contrast).
        _, cpu = recorder.series(victim.pid, "%CPU", drop_nan=False)
        assert len(cpu) and (cpu > 99.0).all()


class TestSpecPipeline:
    def test_mcf_phases_detected(self):
        w = spec.workload("429.mcf")
        small = Workload(
            "mcf-small", tuple(p.with_budget(p.instructions / 20) for p in w.phases)
        )
        machine = SimMachine(NEHALEM, tick=0.5, seed=6)
        proc = machine.spawn("mcf", small)
        app = TipTop(SimHost(machine), Options(delay=1.0))
        with app:
            recorder = app.run_collect(25)
        segments = detect_pid_phases(recorder, proc.pid, window=3, threshold=0.2)
        assert len(segments) >= 2

    def test_counter_leak_free_over_many_process_generations(self):
        """Attach/detach across many short-lived processes leaks nothing."""
        machine = SimMachine(NEHALEM, tick=0.25, seed=7)
        w = spec.workload("456.hmmer")
        tiny = Workload("tiny", (w.phases[0].with_budget(2e9),))
        app = TipTop(SimHost(machine), Options(delay=0.5))
        respawn = []

        def keep_populated():
            if len(machine.live_processes()) < 3:
                respawn.append(machine.spawn("gen", tiny))
            machine.at(machine.now + 0.25, keep_populated)

        machine.at(0.0, keep_populated)
        with app:
            app.run_collect(30)
        assert machine.counters.open_count() == 0
        assert len(respawn) > 5
