"""Columnar (structure-of-arrays) storage and tick kernel for the machine.

Two pieces live here:

* :class:`CounterColumns` — the authoritative storage for every open
  kernel counter's hot state (accumulated value, ``time_enabled``,
  ``time_running``, enabled bit, owning tid) as preallocated numpy
  columns. A :class:`~repro.sim.counters.KernelCounter` is a thin handle
  into one slot; ``read()`` paths serve straight from the accumulator
  columns.
* :class:`ColumnKernel` — the tick engine, the only way a
  :class:`~repro.sim.machine.SimMachine` moves its clock. It keeps the
  threads' scheduling state (tid, vruntime, live bit, duty gate) in
  parallel arrays across calls, so one pass per tick replaces per-object
  loops over the population.

Bitwise-equivalence contract: the kernel must reproduce the scalar tick
kept in :mod:`repro.verify.reference` exactly, float by float and RNG
draw by RNG draw. The vector code therefore only uses elementwise float64
operations (IEEE-754 correctly rounded, hence identical to the scalar
Python arithmetic they replace), never reductions (which reassociate),
and keeps every RNG draw — per-process CPI noise, duty-cycle gates,
sampling loss — in the reference's order on each generator.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import SimulationError
from repro.sim.core import compute_rates
from repro.sim.events import EVENT_CODE, N_EVENT_CODES, Event
from repro.sim.process import TaskState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (machine -> columns)
    from repro.sim.counters import CounterTable
    from repro.sim.machine import SimMachine
    from repro.sim.process import SimThread


class CounterColumns:
    """Structure-of-arrays storage for kernel counter hot state.

    Slots are allocated/freed as counters open and close; the arrays grow
    geometrically and never shrink. ``version`` increments on any change
    to the slot population or enabled bits, invalidating the per-tid slot
    caches kept by :class:`~repro.sim.counters.CounterTable` and the
    kernel's idle-clock mask.
    """

    __slots__ = (
        "capacity",
        "value",
        "time_enabled",
        "time_running",
        "enabled",
        "in_use",
        "owner",
        "version",
        "_free",
    )

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.value = np.zeros(capacity)
        self.time_enabled = np.zeros(capacity)
        self.time_running = np.zeros(capacity)
        self.enabled = np.zeros(capacity, dtype=bool)
        self.in_use = np.zeros(capacity, dtype=bool)
        self.owner = np.full(capacity, -1, dtype=np.int64)
        self.version = 0
        # Stack of free slots; popping yields ascending slot numbers.
        self._free = list(range(capacity - 1, -1, -1))

    def _grow(self) -> None:
        old = self.capacity
        new = old * 2
        for name in ("value", "time_enabled", "time_running"):
            arr = np.zeros(new)
            arr[:old] = getattr(self, name)
            setattr(self, name, arr)
        for name in ("enabled", "in_use"):
            arr = np.zeros(new, dtype=bool)
            arr[:old] = getattr(self, name)
            setattr(self, name, arr)
        owner = np.full(new, -1, dtype=np.int64)
        owner[:old] = self.owner
        self.owner = owner
        self._free.extend(range(new - 1, old - 1, -1))
        self.capacity = new

    def alloc(self, owner: int = -1) -> int:
        """Claim a zeroed slot for a counter on tid ``owner`` (enabled, as
        freshly opened counters are)."""
        if not self._free:
            self._grow()
        slot = self._free.pop()
        self.value[slot] = 0.0
        self.time_enabled[slot] = 0.0
        self.time_running[slot] = 0.0
        self.enabled[slot] = True
        self.in_use[slot] = True
        self.owner[slot] = owner
        self.version += 1
        return slot

    def free(self, slot: int) -> None:
        """Release a slot for reuse."""
        if not self.in_use[slot]:
            raise SimulationError(f"slot {slot} is not allocated")
        self.in_use[slot] = False
        self.enabled[slot] = False
        self.owner[slot] = -1
        self._free.append(slot)
        self.version += 1

    def live_slots(self) -> int:
        """Number of allocated slots (for stats and leak tests)."""
        return int(self.in_use.sum())


#: Dense code of ``Event.CYCLES`` — the one delta the reference computes
#: with the per-tick noised CPI rather than the published per-instruction
#: rate, so the kernel overwrites this vector lane after accumulating.
_CYCLES_CODE = EVENT_CODE[Event.CYCLES]

#: Gate uniforms drawn at once from a duty-cycled thread's generator.
#: ``Generator.random(k)`` yields the doubles of ``k`` ``random()`` calls
#: and leaves the same state, so blocks keep every stream bit for bit.
DUTY_BLOCK = 64

#: Share of dead slots past which :meth:`ColumnKernel._settle` compacts.
COMPACT_SHARE = 0.25


class ColumnKernel:
    """The tick engine: one pass per tick advances every live task.

    Columns persist across calls. :meth:`add` (from ``spawn``) queues new
    threads, which :meth:`_settle` appends at the start of every call and
    after timers fire; :meth:`drop` (from ``kill`` and reaping) only
    clears a dead thread's live bit. Slots stay in spawn order, which is
    tid order, so a tid's slot is one ``np.searchsorted`` on ``tids``; the
    columns compact, keeping that order, once dead slots pass
    :data:`COMPACT_SHARE`. Per-call cost thus follows the live
    population, not every thread the machine ever ran. The kernel keeps
    no reference to its machine (:meth:`run` takes it), so a finished
    machine is freed by reference counting, columns and all.

    Per tick: :meth:`_gate` opens each live duty-cycled thread with one
    fancy-index into a matrix of its pre-drawn uniforms, :data:`DUTY_BLOCK`
    per row from the thread's own generator, refilled only when spent;
    :meth:`Scheduler.dispatch_columns` ranks the open slots with one
    ``np.lexsort`` over (vruntime, tid); :meth:`_idle_step` advances every
    unscheduled live task's enabled clock with one masked add; and
    :meth:`_slice` retires each scheduled task, summing a counted task's
    event deltas in a dense vector. A *simple* counter set (all enabled,
    none sampling, within the PMU) lands with one fancy-indexed add; any
    other set lands through :meth:`CounterTable.accrue`, at the same point
    in slice order as in the reference, so its multiplex window, sampling
    draws and enabled bits follow the one shared rule.
    """

    __slots__ = (
        "threads",
        "tids",
        "vruntime",
        "live",
        "gated",
        "duty",
        "draws",
        "cursor",
        "slices",
        "ticks",
        "_counters",
        "_pending",
        "_dead",
        "_idle",
        "_idle_any",
        "_wide",
        "_version",
        "_dvec",
        "_seg",
    )

    def __init__(self, counters: CounterTable) -> None:
        self._counters = counters
        self.threads: list[SimThread] = []
        self.tids = np.empty(0, dtype=np.int64)
        self.vruntime = np.empty(0)
        self.live = np.empty(0, dtype=bool)
        # One gate row per duty-cycled slot, in slot order: the slot, its
        # duty cycle, DUTY_BLOCK pre-drawn uniforms and the next one's
        # column (DUTY_BLOCK when spent, as a joining row starts). The
        # ``draws`` matrix keeps spare rows past the last gate row.
        self.gated = np.empty(0, dtype=np.int64)
        self.duty = np.empty(0)
        self.draws = np.empty((0, DUTY_BLOCK))
        self.cursor = np.empty(0, dtype=np.int64)
        self.slices = 0
        self.ticks = 0
        self._pending: list[SimThread] = []
        self._dead = 0
        # Idle-clock mask over counter slots: enabled counters whose owner
        # is a live thread; ``_wide`` holds the live tids whose enabled
        # counters outnumber the PMU. Both are rebuilt whenever
        # ``columns.version`` moves or the population changes
        # (``_version = -1`` forces it).
        self._idle = np.zeros(0, dtype=bool)
        self._idle_any = False
        self._wide: set[int] = set()
        self._version = -1
        self._dvec = np.zeros(N_EVENT_CODES)
        self._seg = np.empty(N_EVENT_CODES)

    # -- population -----------------------------------------------------------
    def add(self, threads: Iterable[SimThread]) -> None:
        """Queue freshly spawned threads for the next settle."""
        self._pending.extend(threads)

    def drop(self, thread: SimThread) -> None:
        """Take a dead thread out of dispatch and the idle clock."""
        slot = self.tids.searchsorted(thread.tid)
        if slot == len(self.threads) or self.tids[slot] != thread.tid:
            return  # still queued: settle filters it
        if self.live[slot]:
            self.live[slot] = False
            self._dead += 1
            self._version = -1

    def _settle(self) -> None:
        """Compact past the dead share, then append queued spawns."""
        if self._dead > COMPACT_SHARE * len(self.threads):
            self._compact()
        if self._pending:
            new = [t for t in self._pending if t.state is not TaskState.DEAD]
            self._pending = []
            if new:
                self._append(new)

    def _append(self, new: list[SimThread]) -> None:
        first = len(self.threads)
        self.threads.extend(new)
        self.tids = np.append(self.tids, [t.tid for t in new])
        self.vruntime = np.append(self.vruntime, [t.vruntime for t in new])
        self.live = np.append(self.live, np.ones(len(new), dtype=bool))
        gated = [
            (first + i, t.process.duty_cycle)
            for i, t in enumerate(new)
            if t.duty_rng is not None
        ]
        if gated:
            slots, duty = zip(*gated)
            rows = len(self.gated)
            self.gated = np.append(self.gated, slots)
            self.duty = np.append(self.duty, duty)
            self.cursor = np.append(self.cursor, [DUTY_BLOCK] * len(slots))
            if len(self.gated) > len(self.draws):
                # Rows double, so a spawn does not copy the whole matrix.
                draws = np.empty((2 * len(self.gated), DUTY_BLOCK))
                draws[:rows] = self.draws[:rows]
                self.draws = draws
        self._version = -1  # new owners may already hold counters

    def _compact(self) -> None:
        keep = self.live
        self.threads = list(itertools.compress(self.threads, keep.tolist()))
        self.tids = self.tids[keep]
        self.vruntime = self.vruntime[keep]
        self.live = np.ones(len(self.threads), dtype=bool)
        rows = np.flatnonzero(keep[self.gated])
        self.gated = (np.cumsum(keep) - 1)[self.gated[rows]]
        self.duty = self.duty[rows]
        self.cursor = self.cursor[rows]
        self.draws[: len(rows)] = self.draws[rows]
        self._dead = 0

    def _gate(self) -> np.ndarray:
        """The tick's run mask: live slots whose duty gate opens.

        Draws one uniform per live duty-cycled thread, as the reference
        does with one ``random()`` call on the thread's generator.
        """
        live = self.live
        if not self.gated.size:
            return live
        rows = np.flatnonzero(live[self.gated])
        at = self.cursor[rows]
        spent = at == DUTY_BLOCK
        if spent.any():
            for row in rows[spent].tolist():
                thread = self.threads[self.gated[row]]
                self.draws[row] = thread.duty_rng.random(DUTY_BLOCK)
            at[spent] = 0
        self.cursor[rows] = at + 1
        shut = rows[~(self.draws[rows, at] < self.duty[rows])]
        run_mask = live.copy()
        run_mask[self.gated[shut]] = False
        return run_mask

    def _refresh_idle(self) -> None:
        counters = self._counters
        cols = counters.columns
        self._version = cols.version
        # Slots are in tid order, so the live tids are sorted.
        live = self.tids[self.live]
        owner = cols.owner
        if live.size:
            pos = np.minimum(np.searchsorted(live, owner), live.size - 1)
            idle = cols.enabled & (live[pos] == owner)
            per_task = np.bincount(pos[idle], minlength=live.size)
            wide = live[per_task > counters.pmu_width].tolist()
        else:
            idle, wide = np.zeros(cols.capacity, dtype=bool), []
        self._idle, self._idle_any, self._wide = idle, bool(idle.any()), set(wide)

    # -- the tick loop --------------------------------------------------------
    def run(self, m: SimMachine, n: int, dt: float) -> None:
        """Advance ``m`` by ``n`` steps of ``dt`` seconds each."""
        counters = self._counters
        scheduler = m.scheduler
        timers = m._timers
        rate_cache = m._rate_cache
        self.ticks += n
        self._settle()
        for _ in range(n):
            if timers and timers[0][0] <= m.now + 1e-12:
                m._fire_timers()
                self._settle()
            assignment = scheduler.dispatch_columns(
                self.threads, self.tids, self.vruntime,
                self._gate().nonzero()[0], dt,
            )
            work = []
            if assignment:
                located = {
                    thread.tid: thread.current_phase()
                    for thread in assignment.values()
                }
                if rate_cache is None:
                    rates = m._resolve_contention(assignment, located)
                else:
                    rates = m._cached_contention(assignment, located)
                for thread in assignment.values():
                    tid = thread.tid
                    work.append((thread, counters.tid_slots(tid), rates.get(tid)))
            self._idle_step(work, dt)
            for thread, entry, contended in work:
                self._slice(m, thread, entry, contended, dt)
            m.now += dt
            if timers and timers[0][0] <= m.now + 1e-12:
                m._fire_timers()
                self._settle()

    def _idle_step(self, work: list, dt: float) -> None:
        """Advance the idle clock of every live task not in ``work`` (the
        tick's ``(thread, tid_slots, rates)`` triples).

        Bitwise the reference's ``accrue(tid, None, wall_dt=dt,
        scheduled_dt=0.0)`` per idle task: ``time_enabled += dt`` on each
        enabled counter, and one multiplex rotation step when the enabled
        set is wider than the PMU.
        """
        if self._version != self._counters.columns.version:
            self._refresh_idle()
        if self._idle_any:
            idle = self._idle
            te = self._counters.columns.time_enabled
            busy = [entry[0] for _, entry, _ in work if entry[0].size]
            if busy:
                busy = np.concatenate(busy)
                kept = idle[busy]
                idle[busy] = False
                np.add(te, dt, out=te, where=idle)
                idle[busy] = kept
            else:
                np.add(te, dt, out=te, where=idle)
        if self._wide:
            scheduled = {thread.tid for thread, _, _ in work}
            rotation = self._counters._rotation
            for tid in self._wide:
                if tid not in scheduled:
                    rotation[tid] += 1

    def _slice(
        self, m: SimMachine, thread: SimThread, entry, contended, dt: float
    ) -> None:
        """Retire one scheduled slice and land its counter deltas.

        Replicates the reference's ``run_slice`` float for float: same
        segment loop, same noise draw, same phase-boundary rules; only the
        event accumulation differs mechanically — one vector multiply-add
        per segment instead of the reference's walk over the lanes.
        ``entry`` is the thread's ``tid_slots`` answer. A thread with no
        open counter (every grid job) skips the event lanes, as
        ``accrue`` returns at once for it in the reference.
        """
        located = thread.current_phase()
        if located is None:
            m._reap(thread, dt)
            return
        self.slices += 1
        cslots, codes, simple = entry
        counted = cslots.size > 0
        arch = m.arch
        rate_cache = m._rate_cache
        cycle_budget = arch.freq_hz * dt
        consumed_cycles = 0.0
        dvec = self._dvec
        if counted:
            dvec.fill(0.0)
        seg = self._seg
        noise = (
            math.exp(thread.process.rng.normal(0.0, located[0].noise))
            if located[0].noise > 0
            else 1.0
        )
        base = contended
        while cycle_budget > 1e-6 and located is not None:
            phase, remaining = located
            if base is not None and base.miss_profile.accesses:
                rates = base
            else:
                caps = [(s, float(s.size)) for s in arch.cache_levels]
                if rate_cache is None:
                    rates = compute_rates(arch, phase, caps)
                else:
                    rates = rate_cache.rates(arch, phase, caps)
            # Jitter only the execution component; penalty cycles are
            # physical latencies and stay put.
            cpi = rates.cpi_exec * noise + (rates.cpi - rates.cpi_exec)
            instructions = min(cycle_budget / cpi, remaining)
            cycles = instructions * cpi
            if counted:
                np.multiply(rates.events, instructions, out=seg)
                dvec += seg
            thread.retired += instructions
            thread.cycles += cycles
            consumed_cycles += cycles
            cycle_budget -= cycles
            located = thread.current_phase()
            if located is None:
                break
            # Crossing into a new phase invalidates the contended rates;
            # recompute solo for the remainder of this tick.
            if remaining <= instructions + 1e-9:
                base = None
        scheduled_dt = dt * min(1.0, consumed_cycles / (arch.freq_hz * dt))
        thread.cpu_time += scheduled_dt
        done = located is None
        if counted:
            # A thread that finishes mid-tick stops its enabled clock at
            # death; otherwise user-space scaling (enabled/running) would
            # extrapolate the dead fraction of the tick as multiplexed time.
            wall_dt = scheduled_dt if done else dt
            # CYCLES comes from the noised CPI, not the published rate.
            dvec[_CYCLES_CODE] = consumed_cycles
            if not simple:
                self._counters.accrue(
                    thread.tid,
                    dvec,
                    wall_dt=wall_dt,
                    scheduled_dt=scheduled_dt,
                    alive=True,
                )
            else:
                cols = self._counters.columns
                cols.time_enabled[cslots] += wall_dt
                if scheduled_dt > 0:
                    cols.time_running[cslots] += scheduled_dt
                    cols.value[cslots] += dvec[codes]
        if contended is not None:
            m._last_rates[thread.tid] = contended
        if done:
            m._reap(thread, dt)
