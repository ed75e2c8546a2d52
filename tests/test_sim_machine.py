"""SimMachine integration: time, processes, timers, counters, SMT."""

import math

import pytest

from repro.errors import SimulationError
from repro.sim import NEHALEM, SimMachine
from repro.sim.columns import ColumnKernel
from repro.sim.events import Event
from repro.sim.smt import issue_share
from repro.sim.workload import Workload


class TestLifecycle:
    def test_spawn_assigns_pids(self, nehalem_machine, endless_workload):
        a = nehalem_machine.spawn("a", endless_workload)
        b = nehalem_machine.spawn("b", endless_workload)
        assert b.pid == a.pid + 1
        assert nehalem_machine.process(a.pid) is a

    def test_unknown_pid_raises(self, nehalem_machine):
        with pytest.raises(SimulationError):
            nehalem_machine.process(1)

    def test_process_exits_at_budget(self, coarse_machine, basic_workload):
        p = coarse_machine.spawn("job", basic_workload)
        # ~10 s of work at IPC 1.5: run long enough to finish.
        coarse_machine.run_for(30.0)
        assert not p.alive
        assert p.retired == pytest.approx(basic_workload.total_instructions)

    def test_kill_stops_thread(self, nehalem_machine, endless_workload):
        p = nehalem_machine.spawn("victim", endless_workload)
        nehalem_machine.run_for(1.0)
        nehalem_machine.kill(p.pid)
        t0 = p.cpu_time
        nehalem_machine.run_for(1.0)
        assert p.cpu_time == t0
        assert not p.alive

    def test_live_processes_excludes_dead(self, nehalem_machine, endless_workload):
        p = nehalem_machine.spawn("a", endless_workload)
        nehalem_machine.kill(p.pid)
        assert p not in nehalem_machine.live_processes()

    def test_multithreaded_spawn(self, nehalem_machine, endless_workload):
        p = nehalem_machine.spawn("mt", endless_workload, nthreads=3)
        assert len(p.threads) == 3
        assert p.threads[0].tid == p.pid

    def test_bad_affinity_rejected(self, nehalem_machine, endless_workload):
        with pytest.raises(SimulationError):
            nehalem_machine.spawn("x", endless_workload, affinity={99})

    @pytest.mark.parametrize("empty", [set(), frozenset()])
    def test_empty_affinity_rejected(self, nehalem_machine, endless_workload,
                                     empty):
        """Like sched_setaffinity(2)'s EINVAL: a task pinned to no PU
        would never run and never exit."""
        with pytest.raises(SimulationError, match="at least one PU"):
            nehalem_machine.spawn("x", endless_workload, affinity=empty)

    def test_refused_spawn_takes_no_pid(self, nehalem_machine, endless_workload):
        """A pid seeds its process's noise stream, so a refused spawn must
        leave the next process the pid (and stream) it would have had."""
        assert nehalem_machine.spawn("a", endless_workload).pid == 1000
        for bad in ({"affinity": set()}, {"affinity": {99}},
                    {"duty_cycle": 0.0}, {"nthreads": 0}):
            with pytest.raises(SimulationError):
                nehalem_machine.spawn("x", endless_workload, **bad)
        assert nehalem_machine.spawn("b", endless_workload).pid == 1001


class TestClockAndTimers:
    def test_run_until_exact(self, nehalem_machine):
        nehalem_machine.run_until(1.05)
        assert nehalem_machine.now == pytest.approx(1.05)

    @staticmethod
    def _record_kernel_calls(monkeypatch) -> list[tuple[int, float]]:
        """Replace the kernel's tick loop with a clock-only stand-in that
        records each ``(ticks, step)`` call: the property under test is
        pure tick bookkeeping."""
        calls: list[tuple[int, float]] = []

        def fake_run(kernel, machine, n, dt):
            calls.append((n, dt))
            for _ in range(n):
                machine.now += dt

        monkeypatch.setattr(ColumnKernel, "run", fake_run)
        return calls

    def test_run_until_counts_whole_ticks_without_drift(
        self, nehalem_machine, monkeypatch
    ):
        """10^6 ticks at tick=0.1 must be one run of exactly 10^6 full
        ticks, with no fractional remainder.

        The old epsilon loop (``while now < deadline - 1e-12``) compared an
        absolute epsilon against a clock whose ulp grows past it (ulp of
        1e5 is ~1.5e-11), so long runs shed ticks and finished with ragged
        fractional steps. Integer tick accounting cannot drift.
        """
        calls = self._record_kernel_calls(monkeypatch)
        nehalem_machine.run_until(100_000.0)
        assert calls == [(1_000_000, 0.1)]

    def test_run_until_fractional_remainder_still_steps(
        self, nehalem_machine, monkeypatch
    ):
        calls = self._record_kernel_calls(monkeypatch)
        nehalem_machine.run_until(0.25)
        assert len(calls) == 2
        assert calls[0] == (2, 0.1)
        assert calls[1][0] == 1
        assert calls[1][1] == pytest.approx(0.05)
        nehalem_machine.run_until(0.25)  # already there: no extra steps
        assert len(calls) == 2

    def test_timer_fires_in_order(self, nehalem_machine):
        fired = []
        nehalem_machine.at(0.5, lambda: fired.append("b"))
        nehalem_machine.at(0.2, lambda: fired.append("a"))
        nehalem_machine.run_for(1.0)
        assert fired == ["a", "b"]

    def test_timer_in_past_rejected(self, nehalem_machine):
        nehalem_machine.run_for(1.0)
        with pytest.raises(SimulationError):
            nehalem_machine.at(0.5, lambda: None)

    def test_timer_spawn_pattern(self, nehalem_machine, endless_workload):
        """Fig. 10's arrival script: spawn from a timer callback."""
        spawned = []
        nehalem_machine.at(
            0.5, lambda: spawned.append(nehalem_machine.spawn("late", endless_workload))
        )
        nehalem_machine.run_for(1.0)
        assert spawned and spawned[0].alive
        assert spawned[0].start_time == pytest.approx(0.5, abs=0.11)


class TestCounting:
    def test_ipc_matches_calibration(self, coarse_machine, endless_workload):
        p = coarse_machine.spawn("j", endless_workload)
        ci = coarse_machine.counters.open(Event.INSTRUCTIONS, p.pid, p.uid)
        cc = coarse_machine.counters.open(Event.CYCLES, p.pid, p.uid)
        coarse_machine.run_for(20.0)
        ipc = ci.value / cc.value
        # basic_phase is calibrated at exec_cpi 0.5 -> solo IPC from model.
        from repro.sim.core import solo_rates

        expected = solo_rates(NEHALEM, endless_workload.phases[0]).ipc
        assert ipc == pytest.approx(expected, rel=0.05)

    def test_cycles_track_wall_clock(self, coarse_machine, endless_workload):
        p = coarse_machine.spawn("j", endless_workload)
        cc = coarse_machine.counters.open(Event.CYCLES, p.pid, p.uid)
        coarse_machine.run_for(10.0)
        assert cc.value == pytest.approx(NEHALEM.freq_hz * 10.0, rel=0.01)

    def test_noise_preserves_mean_ipc(self, basic_phase):
        """Per-tick jitter must not bias the long-run average much."""
        from dataclasses import replace

        noisy = replace(basic_phase, noise=0.08, instructions=math.inf)
        m = SimMachine(NEHALEM, tick=0.25, seed=1)
        p = m.spawn("noisy", Workload("w", (noisy,)))
        ci = m.counters.open(Event.INSTRUCTIONS, p.pid, p.uid)
        cc = m.counters.open(Event.CYCLES, p.pid, p.uid)
        m.run_for(120.0)
        from repro.sim.core import solo_rates

        expected = solo_rates(NEHALEM, basic_phase).ipc
        assert ci.value / cc.value == pytest.approx(expected, rel=0.05)

    def test_determinism(self, basic_workload):
        def run():
            m = SimMachine(NEHALEM, tick=0.25, seed=99)
            p = m.spawn("d", basic_workload)
            c = m.counters.open(Event.INSTRUCTIONS, p.pid, p.uid)
            m.run_for(5.0)
            return c.value

        assert run() == run()

    def test_phase_boundary_preserves_total(self, basic_phase):
        """Instruction totals are exact across phase boundaries."""
        w = Workload(
            "two", (basic_phase.with_budget(1e9), basic_phase.with_budget(2e9))
        )
        m = SimMachine(NEHALEM, tick=0.25, seed=1)
        p = m.spawn("j", w)
        m.run_for(10.0)
        assert not p.alive
        assert p.retired == pytest.approx(3e9)


class TestSmt:
    def test_issue_share_solo(self):
        assert issue_share(NEHALEM, 1) == 1.0

    def test_issue_share_pair(self):
        assert issue_share(NEHALEM, 2) == pytest.approx(NEHALEM.smt_efficiency / 2)

    def test_issue_share_bounds(self):
        with pytest.raises(SimulationError):
            issue_share(NEHALEM, 0)
        with pytest.raises(SimulationError):
            issue_share(NEHALEM, 3)

    def test_same_core_throughput_penalty(self, endless_workload):
        """Two pinned SMT siblings each run slower than solo."""
        solo = SimMachine(NEHALEM, tick=0.25, seed=1)
        sp = solo.spawn("s", endless_workload, affinity={0})
        sc = solo.counters.open(Event.INSTRUCTIONS, sp.pid, sp.uid)
        solo.run_for(10.0)

        pair = SimMachine(NEHALEM, tick=0.25, seed=1)
        a = pair.spawn("a", endless_workload, affinity={0})
        b = pair.spawn("b", endless_workload, affinity={4})
        ca = pair.counters.open(Event.INSTRUCTIONS, a.pid, a.uid)
        cb = pair.counters.open(Event.INSTRUCTIONS, b.pid, b.uid)
        pair.run_for(10.0)
        assert ca.value < sc.value
        # But combined throughput beats one thread (SMT efficiency > 1).
        assert ca.value + cb.value > sc.value
