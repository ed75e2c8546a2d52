"""Property tests: the columnar kernel is bitwise-identical to the
scalar reference tick.

Every machine advance runs on :class:`~repro.sim.columns.ColumnKernel`;
:mod:`repro.verify.reference` keeps the per-object tick it replaced.
These tests drive two identically-built machines, one through the
reference and one through the kernel, and require the *entire*
observable state to match exactly: thread progress, scheduler
bookkeeping, every counter's value and both kernel clocks, multiplexing
rotation, and the virtual clock. Every case runs twice: memo-free, as the
monitor's host does, and with a :class:`~repro.sim.core.RateCache`
handed in, as a grid shard does, so both memos keep a bitwise check.

Scenarios cover the regimes the kernel special-cases: seeds, tick sizes,
oversubscription, SMT co-runs pinned to sibling hardware threads,
duty-cycled tasks (per-tick RNG draws, past several gate blocks),
multi-threaded processes with nice levels, sampling-mode counters,
multiplexed and partly disabled counter sets, tasks no counter reads
(whose slices skip the event lanes) next to counted ones, timers that
spawn, kill, open, close and toggle counters mid-run, a death wave that
compacts the columns, state carried across calls, and fractional steps.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.arch import NEHALEM
from repro.sim.columns import COMPACT_SHARE, DUTY_BLOCK
from repro.sim.core import RateCache
from repro.sim.events import Event
from repro.sim.machine import SimMachine
from repro.sim.workloads import synthetic
from repro.verify import reference

EVENTS = (Event.INSTRUCTIONS, Event.CYCLES, Event.CACHE_MISSES)


def make_machine(arch=NEHALEM, *, cache: bool = False, **kwargs) -> SimMachine:
    kwargs.setdefault("sockets", 1)
    kwargs.setdefault("cores_per_socket", 2)
    return SimMachine(
        arch, rate_cache=RateCache() if cache else None, **kwargs
    )


def machine_state(machine: SimMachine) -> dict:
    """Every observable the two paths must agree on, exactly."""
    state: dict = {"now": machine.now}
    for tid, thread in machine._threads.items():
        state[("thread", tid)] = (
            thread.retired,
            thread.cycles,
            thread.cpu_time,
            thread.vruntime,
            thread.context_switches,
            thread.state,
            thread.alive,
            thread.last_pu,
        )
    for cid, counter in machine.counters._by_id.items():
        state[("counter", cid)] = (
            counter.value,
            counter.time_enabled,
            counter.time_running,
            counter.samples,
            counter._carry,
            counter.enabled,
        )
    state["rotation"] = dict(machine.counters._rotation)
    state["last_assignment"] = {
        pu: t.tid for pu, t in machine.scheduler._last_assignment.items()
    }
    state["alive_pids"] = sorted(p.pid for p in machine.live_processes())
    state["deaths"] = dict(machine.death_observed)
    return state


def assert_same_state(ref: SimMachine, kernel: SimMachine, label: str) -> None:
    a, b = machine_state(ref), machine_state(kernel)
    assert a.keys() == b.keys()
    mismatched = [key for key in a if a[key] != b[key]]
    assert not mismatched, (
        f"{len(mismatched)} state entries diverge {label}, "
        f"first: {mismatched[0]!r} -> {a[mismatched[0]]} != {b[mismatched[0]]}"
    )


def assert_paths_equal(build, n: int) -> None:
    """``build(cache)`` makes a machine, with a RateCache when ``cache``;
    the reference run is memo-free, the kernel runs both ways."""
    ref = build(False)
    reference.run_ticks(ref, n)
    for cache in (False, True):
        kernel = build(cache)
        kernel.run_ticks(n)
        label = f"after {n} ticks ({'rate cache' if cache else 'memo-free'})"
        assert_same_state(ref, kernel, label)


def populate(machine: SimMachine, count: int, *, spec_seed: int,
             events=EVENTS, **spawn_kwargs) -> None:
    for spec in synthetic.generate_specs(count, seed=spec_seed):
        proc = machine.spawn(spec.name, synthetic.build(spec, machine.arch, seed=11),
                             **spawn_kwargs)
        for event in events:
            machine.counters.open(event, proc.pid, 0)


class TestOversubscribed:
    """More runnable tasks than PUs: the memo caches' bread and butter."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", [1, 17, 60])
    def test_seeds_and_lengths(self, seed, n):
        def build(cache):
            machine = make_machine(cache=cache, tick=0.1, seed=seed)
            populate(machine, 12, spec_seed=seed + 10)
            return machine

        assert_paths_equal(build, n)

    @pytest.mark.parametrize("tick", [0.05, 0.25, 1.0])
    def test_tick_sizes(self, tick):
        def build(cache):
            machine = make_machine(cache=cache, tick=tick, seed=5)
            populate(machine, 10, spec_seed=2)
            return machine

        assert_paths_equal(build, 40)


class TestSchedulingShapes:
    def test_smt_corun_pinned_to_sibling_threads(self):
        """Two tasks forced onto one physical core's hardware threads
        (the paper's §3.4 taskset scenario) plus unpinned neighbours."""

        def build(cache):
            machine = make_machine(cache=cache, tick=0.1, seed=9)
            specs = synthetic.generate_specs(6, seed=4)
            for i, spec in enumerate(specs):
                affinity = frozenset({0, 1}) if i < 2 else None
                proc = machine.spawn(
                    spec.name,
                    synthetic.build(spec, NEHALEM, seed=11),
                    affinity=affinity,
                )
                for event in EVENTS:
                    machine.counters.open(event, proc.pid, 0)
            return machine

        assert_paths_equal(build, 50)

    def test_duty_cycles_draw_identical_rng_streams(self):
        def build(cache):
            machine = make_machine(cache=cache, tick=0.1, seed=3)
            populate(machine, 8, spec_seed=6, duty_cycle=0.6)
            return machine

        assert_paths_equal(build, 50)

    def test_multithreaded_and_nice(self):
        def build(cache):
            machine = make_machine(cache=cache, tick=0.1, seed=13)
            specs = synthetic.generate_specs(5, seed=8)
            for i, spec in enumerate(specs):
                proc = machine.spawn(
                    spec.name,
                    synthetic.build(spec, NEHALEM, seed=11),
                    nthreads=1 + i % 3,
                    nice=(i % 3) - 1,
                )
                for event in EVENTS:
                    machine.counters.open(event, proc.pid, 0)
            return machine

        assert_paths_equal(build, 45)


class TestCounterModes:
    def test_sampling_mode_counters(self):
        """Sampling counters draw from the table RNG; draw order and
        carry arithmetic must survive batching."""

        def build(cache):
            machine = make_machine(cache=cache, tick=0.1, seed=21)
            specs = synthetic.generate_specs(6, seed=5)
            for spec in specs:
                proc = machine.spawn(
                    spec.name, synthetic.build(spec, NEHALEM, seed=11)
                )
                machine.counters.open(
                    Event.INSTRUCTIONS, proc.pid, 0, sample_period=100_000
                )
                machine.counters.open(Event.CYCLES, proc.pid, 0)
            return machine

        assert_paths_equal(build, 50)

    def test_multiplexing_beyond_pmu_width(self):
        """With pmu_width=2 and three counters per task the rotation
        window moves every tick — including the batched idle bump."""
        narrow = replace(NEHALEM, pmu_width=2)

        def build(cache):
            machine = make_machine(narrow, cache=cache, tick=0.1, seed=17)
            populate(machine, 9, spec_seed=7)
            return machine

        assert_paths_equal(build, 50)

    def test_partly_disabled_counter_set(self):
        """Some tasks carry a disabled counter among enabled ones: their
        sets are not simple, so slices land through ``accrue`` and the
        idle clock must skip the disabled counter."""

        def build(cache):
            machine = make_machine(cache=cache, tick=0.1, seed=41)
            populate(machine, 7, spec_seed=15)
            for pid in list(machine.processes)[::2]:
                machine.counters.counters_for(pid)[1].enabled = False
            return machine

        assert_paths_equal(build, 50)

    def test_enabled_toggled_from_timer_mid_batch(self):
        def build(cache):
            machine = make_machine(cache=cache, tick=0.1, seed=43)
            populate(machine, 6, spec_seed=16)
            victims = [
                machine.counters.counters_for(pid)[0]
                for pid in list(machine.processes)[1::2]
            ]

            def toggle(on: bool) -> None:
                for counter in victims:
                    counter.enabled = on

            machine.at(1.3, lambda: toggle(False))
            machine.at(2.7, lambda: toggle(True))
            return machine

        assert_paths_equal(build, 45)

    def test_sampling_and_over_width_on_one_task(self):
        """One task both samples and multiplexes: the window, the sample
        quantisation and its loss draws all come from ``accrue``."""
        narrow = replace(NEHALEM, pmu_width=2)

        def build(cache):
            machine = make_machine(narrow, cache=cache, tick=0.1, seed=47)
            populate(machine, 5, spec_seed=17)
            pid = next(iter(machine.processes))
            machine.counters.open(
                Event.BRANCH_MISSES, pid, 0, sample_period=10_000
            )
            return machine

        assert_paths_equal(build, 50)


class TestUncountedSlices:
    """A thread no counter reads skips its event lanes; the counted slices
    around it must still land exactly what the reference lands."""

    def test_only_some_tasks_counted(self):
        def build(cache):
            machine = make_machine(cache=cache, tick=0.1, seed=79)
            populate(machine, 5, spec_seed=48)
            populate(machine, 5, spec_seed=49, events=(), duty_cycle=0.8)
            return machine

        assert_paths_equal(build, 50)

    def test_counters_open_and_close_on_a_running_task(self):
        """One task runs uncounted, gets a simple set from a timer, then a
        multiplexed set, then loses every counter mid-batch. Its slices
        and its counted neighbours' share the kernel's lane vector, so a
        lane left from an uncounted slice would show in some reading."""
        narrow = replace(NEHALEM, pmu_width=4)
        more = (Event.BRANCH_INSTRUCTIONS, Event.BRANCH_MISSES,
                Event.CACHE_REFERENCES)
        kept = []

        def build(cache):
            machine = make_machine(narrow, cache=cache, tick=0.1, seed=83)
            populate(machine, 3, spec_seed=50, events=())
            populate(machine, 3, spec_seed=51)
            target = next(iter(machine.processes))
            opened = []

            def open_events(events):
                for event in events:
                    opened.append(machine.counters.open(event, target, 0))

            def close_all():
                for counter in machine.counters.counters_for(target):
                    machine.counters.close(counter.counter_id)

            machine.at(0.75, lambda: open_events(EVENTS[:2]))
            machine.at(1.55, lambda: open_events(more))
            machine.at(2.65, close_all)
            kept.append(opened)
            return machine

        assert_paths_equal(build, 40)
        # Closed counters leave the table; their final readings must agree.
        readings = [
            [(c.value, c.time_enabled, c.time_running) for c in opened]
            for opened in kept
        ]
        assert len(readings[0]) == len(EVENTS[:2]) + len(more)
        assert readings[1] == readings[0] and readings[2] == readings[0]
        assert all(value > 0 for value, _, _ in readings[0])


class TestTimersAndLifecycles:
    def test_timers_spawn_and_kill_mid_run(self):
        def build(cache):
            machine = make_machine(cache=cache, tick=0.1, seed=29)
            populate(machine, 6, spec_seed=9)
            victim = next(iter(machine.processes))
            extra = synthetic.generate_specs(8, seed=12)[-1]

            def arrive():
                proc = machine.spawn(
                    "latecomer", synthetic.build(extra, NEHALEM, seed=11)
                )
                for event in EVENTS:
                    machine.counters.open(event, proc.pid, 0)

            machine.at(1.05, arrive)
            machine.at(2.35, lambda: machine.kill(victim))
            return machine

        assert_paths_equal(build, 40)

    def test_timer_kills_and_respawns_at_same_boundary(self):
        """One timer instant kills a task and spawns its replacement.

        The kernel's columns change mid-batch here: the dead task's
        counters must freeze at the kill, and the replacement joins the
        dispatch columns and the idle clock from the current tick on.
        """

        def build(cache):
            machine = make_machine(cache=cache, tick=0.1, seed=53)
            populate(machine, 5, spec_seed=21)
            victim = next(iter(machine.processes))
            spec = synthetic.generate_specs(9, seed=33)[-1]

            def churn():
                machine.kill(victim)
                proc = machine.spawn(
                    "respawn", synthetic.build(spec, NEHALEM, seed=11)
                )
                for event in EVENTS:
                    machine.counters.open(event, proc.pid, 0)

            machine.at(1.5, churn)
            # A second churn deeper into the batch: arrears are larger and
            # the replacement's tid reuses nothing (tids are monotonic).
            machine.at(3.1, lambda: machine.kill(1001))
            return machine

        assert_paths_equal(build, 60)

    def test_workloads_complete_and_reap(self):
        """Short-budget workloads finish mid-batch; dead tasks must
        freeze their counters at the same instant on both paths."""

        def build(cache):
            machine = make_machine(cache=cache, tick=0.25, seed=31)
            populate(machine, 8, spec_seed=14)
            return machine

        # Long enough that some synthetic workloads run to completion.
        assert_paths_equal(build, 200)


class _ReferenceClock:
    """The reference's advance entry points, shaped like the machine's."""

    def __init__(self, machine: SimMachine) -> None:
        self.machine = machine

    def run_ticks(self, n: int) -> None:
        reference.run_ticks(self.machine, n)

    def run_for(self, seconds: float) -> None:
        reference.run_for(self.machine, seconds)

    def run_until(self, deadline: float) -> None:
        reference.run_until(self.machine, deadline)


def assert_drives_equal(build, drive) -> None:
    """``drive(machine, clock)`` runs one multi-call schedule, advancing
    through ``clock``: the reference for one machine, the kernel (the
    machine itself) for the others."""
    ref = build(False)
    drive(ref, _ReferenceClock(ref))
    for cache in (False, True):
        kernel = build(cache)
        drive(kernel, kernel)
        label = f"after the schedule ({'rate cache' if cache else 'memo-free'})"
        assert_same_state(ref, kernel, label)


class TestAcrossCalls:
    """The kernel keeps its columns between calls: what happens between
    two calls must reach them."""

    @staticmethod
    def build(cache):
        machine = make_machine(cache=cache, tick=0.1, seed=59)
        populate(machine, 7, spec_seed=23, events=(Event.INSTRUCTIONS,))
        return machine

    def test_run_until_ends_on_fractional_remainder(self):
        def drive(machine, clock):
            clock.run_until(2.35)
            clock.run_until(4.0)
            clock.run_for(0.07)

        assert_drives_equal(self.build, drive)

    def test_counters_opened_between_calls_on_a_running_clock(self):
        """New counters start at ``time_enabled`` 0 next to siblings that
        already ran: the idle clock must advance both, each from its own
        value."""

        def drive(machine, clock):
            clock.run_ticks(7)
            for pid in list(machine.processes)[:4]:
                machine.counters.open(Event.CYCLES, pid, 0)
                machine.counters.open(Event.CACHE_MISSES, pid, 0)
            clock.run_ticks(9)

        assert_drives_equal(self.build, drive)

    def test_counters_opened_before_their_task_spawns(self):
        """A churn script knows its pids in advance: a counter may target
        a tid that a timer spawns later in the call. It starts counting
        at the spawn."""
        spec = synthetic.generate_specs(3, seed=31)[-1]

        def drive(machine, clock):
            clock.run_ticks(5)
            late = 1000 + len(machine.processes)  # the next pid handed out
            machine.counters.open(Event.CYCLES, late, 0)
            machine.spawn_at(
                machine.now + 0.3, "late",
                synthetic.build(spec, machine.arch, seed=11), duty_cycle=0.5,
            )
            clock.run_ticks(10)
            assert machine.process(late).alive

        assert_drives_equal(self.build, drive)

    def test_kill_between_calls(self):
        def drive(machine, clock):
            clock.run_ticks(10)
            machine.kill(list(machine.processes)[2])
            clock.run_ticks(10)

        assert_drives_equal(self.build, drive)


def live_threads(machine: SimMachine) -> int:
    return sum(t.alive for t in machine._threads.values())


def short_lived(spec, seconds: float):
    """``spec`` cut to ``seconds`` of solo run time, so it reaps mid-run."""
    return synthetic.build(replace(spec, duration=seconds), NEHALEM, seed=11)


class TestKernelBoundaries:
    """Where the kernel's layout moves: gate blocks refill, spawns append,
    deaths clear live bits and the columns compact."""

    def test_duty_gates_past_three_blocks_with_churn(self):
        """Duty-cycled threads run past three gate blocks while timers
        spawn and kill and short workloads reap, each landing mid-block."""
        ticks = 3 * DUTY_BLOCK + 29
        specs = synthetic.generate_specs(6, seed=41)

        def build(cache):
            machine = make_machine(cache=cache, tick=0.05, seed=61)
            populate(machine, 6, spec_seed=42, duty_cycle=0.55,
                     nthreads=2)
            for i, spec in enumerate(specs):
                proc = machine.spawn(
                    f"short{i}", short_lived(spec, 0.3 + 0.25 * i),
                    duty_cycle=0.35 + 0.1 * i,
                )
                for event in EVENTS:
                    machine.counters.open(event, proc.pid, 0)
            for k, when in enumerate((0.85, 3.2, 5.05, 7.7, 9.95)):
                machine.spawn_at(
                    when, f"late{k}", short_lived(specs[k], 1.5 + k),
                    duty_cycle=0.45, nthreads=1 + k % 2,
                )
            for when, pid in ((2.15, 1002), (4.4, 1006), (8.3, 1004)):
                machine.kill_at(when, pid)
            return machine

        ref = build(False)
        reference.run_ticks(ref, ticks)
        assert len(ref.death_observed) >= 6  # kills and reaps both landed
        for cache in (False, True):
            kernel = build(cache)
            kernel.run_ticks(ticks)
            assert_same_state(
                ref, kernel, f"after {ticks} ticks (cache={cache})"
            )
            assert kernel.kernel_stats()["tracked_tasks"] == live_threads(kernel)

    def test_death_wave_crosses_the_compaction_share(self):
        """Killing a third of the threads between calls leaves dead slots
        past the share; the next call compacts, keeping tid order."""

        def build(cache):
            machine = make_machine(cache=cache, tick=0.1, seed=67)
            populate(machine, 12, spec_seed=44, duty_cycle=0.7)
            populate(machine, 6, spec_seed=45)
            return machine

        def drive(machine, clock):
            clock.run_ticks(DUTY_BLOCK - 3)
            pids = list(machine.processes)
            for pid in pids[1::3]:
                machine.kill(pid)
            if clock is not machine:
                clock.run_ticks(DUTY_BLOCK)
                return
            kernel = machine._kernel
            slots = len(kernel.threads)
            assert kernel._dead > COMPACT_SHARE * slots
            assert machine.kernel_stats()["tracked_tasks"] == live_threads(machine)
            clock.run_ticks(DUTY_BLOCK)
            assert kernel._dead == 0 and len(kernel.threads) < slots
            assert np.all(np.diff(kernel.tids) > 0)
            assert kernel.tids.tolist() == [t.tid for t in kernel.threads]
            assert machine.kernel_stats()["tracked_tasks"] == live_threads(machine)

        assert_drives_equal(build, drive)

    def test_fractional_run_until_with_duty_gates(self):
        """A fractional step draws a gate like a whole tick does."""

        def build(cache):
            machine = make_machine(cache=cache, tick=0.1, seed=71)
            populate(machine, 9, spec_seed=46, duty_cycle=0.5)
            return machine

        def drive(machine, clock):
            clock.run_until(DUTY_BLOCK * 0.1 - 0.037)
            clock.run_until(2 * DUTY_BLOCK * 0.1 + 0.061)
            clock.run_for(0.013)

        assert_drives_equal(build, drive)

    def test_reference_refuses_a_machine_the_kernel_advanced(self):
        """One engine per machine: after a kernel tick the reference
        would draw gates the kernel already drew, so it raises."""
        machine = make_machine(tick=0.1, seed=73)
        populate(machine, 4, spec_seed=47, duty_cycle=0.5)
        reference.run_ticks(machine, 0)
        machine.run_ticks(1)
        for advance in (
            lambda: reference.step(machine, 0.1),
            lambda: reference.run_ticks(machine, 1),
            lambda: reference.run_for(machine, 0.25),
        ):
            with pytest.raises(SimulationError, match="one engine"):
                advance()


class TestInterleaving:
    def test_batched_and_scalar_interleave(self):
        """``run_ticks``, ``run_for`` and ``run_until`` interleave on one
        kernel and must match one reference run."""

        def build(cache):
            machine = make_machine(cache=cache, tick=0.1, seed=37)
            populate(machine, 10, spec_seed=3)
            return machine

        def drive(machine, clock):
            clock.run_ticks(11)
            clock.run_for(0.5)
            clock.run_until(machine.now + 1.4)

        assert_drives_equal(build, drive)

    def test_zero_and_negative(self):
        machine = SimMachine(NEHALEM, tick=0.1, seed=1)
        before = machine_state(machine)
        machine.run_ticks(0)
        assert machine_state(machine) == before
        with pytest.raises(Exception):
            machine.run_ticks(-1)
