"""The scalar tick: the reference the columnar kernel is checked against.

A :class:`~repro.sim.machine.SimMachine` moves its clock only on the
:class:`~repro.sim.columns.ColumnKernel`. This module keeps the
per-object tick the kernel replaced — a runnable list comprehension, a
sorted dispatch, a per-lane walk over each segment's event rates, one
``accrue`` per live task per tick — as the specification the kernel must
match bit for bit. It shares the machine's timers, contention model,
reaper and ``accrue``, never memoises, and only the oracles, tests and
benchmarks use it. A machine is driven by one engine for its whole life: the kernel
mirrors scheduling state into columns that reference steps do not
update.
"""

from __future__ import annotations

import math

import numpy as np

from repro.sim.core import SliceRates, compute_rates
from repro.sim.events import EVENT_CODE, N_EVENT_CODES, Event
from repro.sim.machine import SimMachine
from repro.sim.process import SimThread, TaskState
from repro.sim.scheduler import Scheduler

_CYCLES_CODE = EVENT_CODE[Event.CYCLES]


def dispatch(
    scheduler: Scheduler, runnable: list[SimThread], dt: float
) -> dict[int, SimThread]:
    """Assign runnable threads to PUs for one tick of length ``dt``; the
    ``{pu: thread}`` assignment.

    Threads are considered in ``(vruntime, tid)`` order and placed by the
    scheduler's shared walk (:meth:`Scheduler._place`).
    """
    runnable = [t for t in runnable if t.state is TaskState.RUNNABLE]
    order = sorted(runnable, key=lambda t: (t.vruntime, t.tid))
    return scheduler._place(order, dt)


def run_ticks(machine: SimMachine, n: int) -> None:
    """``n`` whole ticks, one :func:`step` each."""
    for _ in range(n):
        step(machine, machine.tick)


def run_until(machine: SimMachine, deadline: float) -> None:
    """:meth:`SimMachine.run_until`'s tick accounting over :func:`step`."""
    run_ticks(machine, machine._whole_ticks(deadline))
    remainder = deadline - machine.now
    if remainder > machine.tick * 1e-9:
        step(machine, remainder)


def run_for(machine: SimMachine, seconds: float) -> None:
    """Advance ``machine`` by ``seconds`` (see :func:`run_until`)."""
    run_until(machine, machine.now + seconds)


def step(machine: SimMachine, dt: float) -> None:
    """One tick of length ``dt``: timers, dispatch, slices, idle clocks."""
    machine._fire_timers()
    runnable = [
        t
        for t in machine._threads.values()
        if t.state is TaskState.RUNNABLE
        and (
            t.duty_rng is None
            or t.duty_rng.random() < t.process.duty_cycle
        )
    ]
    assignment = dispatch(machine.scheduler, runnable, dt)

    rates = machine._resolve_contention(assignment)

    scheduled_tids: set[int] = set()
    for pu_id, thread in assignment.items():
        run_slice(machine, thread, pu_id, rates.get(thread.tid), dt)
        scheduled_tids.add(thread.tid)

    # Counter bookkeeping for unscheduled-but-alive threads: enabled
    # time advances, running time does not.
    for tid, thread in machine._threads.items():
        if tid not in scheduled_tids and thread.alive:
            machine.counters.accrue(
                tid, None, wall_dt=dt, scheduled_dt=0.0, alive=True
            )

    machine.now += dt
    machine._fire_timers()


def run_slice(
    machine: SimMachine,
    thread: SimThread,
    pu_id: int,
    contended: SliceRates | None,
    dt: float,
) -> None:
    """Retire instructions on ``thread`` for one tick on ``pu_id``.

    ``current_phase()`` is pure between mutations of ``thread.retired``,
    so each phase position is located exactly once per retirement step
    and the result reused for the loop/termination checks.
    """
    located = thread.current_phase()
    if located is None:
        machine._reap(thread, dt)
        return

    arch = machine.arch
    cycle_budget = arch.freq_hz * dt
    consumed_cycles = 0.0
    deltas = [0.0] * N_EVENT_CODES
    noise = math.exp(
        thread.process.rng.normal(0.0, located[0].noise)
    ) if located[0].noise > 0 else 1.0

    base = contended
    while cycle_budget > 1e-6 and located is not None:
        phase, remaining = located
        if base is not None and base.miss_profile.accesses:
            rates = base
        else:
            caps = [(s, float(s.size)) for s in arch.cache_levels]
            rates = compute_rates(arch, phase, caps)
        # Jitter only the execution component; penalty cycles are
        # physical latencies and stay put.
        cpi = rates.cpi_exec * noise + (rates.cpi - rates.cpi_exec)
        instructions = min(cycle_budget / cpi, remaining)
        cycles = instructions * cpi
        for code, per_instr in enumerate(rates.events.tolist()):
            if code == _CYCLES_CODE:
                deltas[code] += cycles
            else:
                deltas[code] += per_instr * instructions
        thread.retired += instructions
        thread.cycles += cycles
        consumed_cycles += cycles
        cycle_budget -= cycles
        located = thread.current_phase()
        if located is None:
            break
        # Crossing into a new phase invalidates the contended rates;
        # recompute solo for the remainder of this tick (one tick of
        # slight inaccuracy at each boundary).
        if remaining <= instructions + 1e-9:
            base = None

    scheduled_dt = dt * min(1.0, consumed_cycles / (arch.freq_hz * dt))
    thread.cpu_time += scheduled_dt
    done = located is None
    # A thread that finishes mid-tick stops its counters' enabled clock
    # at death; otherwise user-space scaling (enabled/running) would
    # extrapolate the dead fraction of the tick as multiplexed time.
    machine.counters.accrue(
        thread.tid,
        np.array(deltas),
        wall_dt=scheduled_dt if done else dt,
        scheduled_dt=scheduled_dt,
        alive=True,
    )
    if contended is not None:
        machine._last_rates[thread.tid] = contended
    if done:
        machine._reap(thread, dt)
