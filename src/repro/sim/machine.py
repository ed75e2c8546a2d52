"""The simulated machine: topology + caches + memory + scheduler + clock.

:class:`SimMachine` advances a virtual clock in fixed ticks, all of them
on the columnar :class:`~repro.sim.columns.ColumnKernel`. Each tick it

1. fires any due timed events (job arrivals/kills from experiment scripts),
2. dispatches runnable threads to PUs (CFS-like, affinity-aware),
3. resolves cache-capacity contention between co-scheduled tasks by a
   short fixed-point iteration on access pressures,
4. inflates DRAM latency with aggregate LLC-miss bandwidth,
5. retires instructions per scheduled thread through its workload phases,
   accruing hardware events into the kernel counter table, and
6. reaps threads whose workloads completed.

Everything is deterministic: the only randomness is per-process Generators
seeded from the machine seed, used for the per-tick execution-CPI jitter
that gives the paper's plots their characteristic noise.
"""

from __future__ import annotations

import heapq
import itertools
import zlib
from collections.abc import Callable

import numpy as np

from repro.errors import SimulationError
from repro.sim.arch import ArchModel
from repro.sim.cache import CacheHierarchy, CacheInstance
from repro.sim.columns import ColumnKernel
from repro.sim.core import RateCache, SliceRates, compute_rates
from repro.sim.counters import CounterTable
from repro.sim.cpu_topology import Topology
from repro.sim.process import SimProcess, SimThread, TaskState
from repro.sim.scheduler import Scheduler
from repro.sim.smt import issue_share
from repro.sim.workload import Workload

#: Fixed-point iterations for contention resolution per tick. Two passes
#: are enough because capacities move pressure by at most the smoothing of
#: the power-law curves.
CONTENTION_ITERATIONS = 2


class SimMachine:
    """A complete simulated node.

    Args:
        arch: micro-architecture of every core.
        sockets: socket count.
        cores_per_socket: physical cores per socket.
        memory_bytes: installed DRAM (bounds nothing yet; reported by
            topology rendering).
        tick: scheduler tick in virtual seconds. Coarser ticks run faster;
            tiptop samples every few seconds, so 0.1–1 s ticks lose nothing.
        seed: master seed for all per-process noise.
        memory_bandwidth: peak DRAM bandwidth in bytes/s.
        rate_cache: optional :class:`RateCache`. With one, the machine
            memoises rate computations and whole co-schedules; both memos
            are exact, so they never change results. Machines in one grid
            shard pass a common cache, which hits on nearly every tick.
            Without one (the default) the machine computes rates directly
            and keeps no memo: on a monitored node the co-schedules almost
            never repeat, so a memo would only cost memory.
    """

    def __init__(
        self,
        arch: ArchModel,
        *,
        sockets: int = 1,
        cores_per_socket: int = 4,
        memory_bytes: int = 6 * 1024**3,
        tick: float = 0.1,
        seed: int = 42,
        memory_bandwidth: float = 25e9,
        rate_cache: RateCache | None = None,
    ) -> None:
        if tick <= 0:
            raise SimulationError(f"tick must be positive, got {tick}")
        from repro.sim.memory import MemorySystem

        self.arch = arch
        self.topology = Topology(arch, sockets, cores_per_socket)
        self.caches = CacheHierarchy(
            arch, self.topology.pu_to_core(), self.topology.core_to_socket()
        )
        self.memory = MemorySystem(
            bandwidth_bytes_per_sec=memory_bandwidth,
            base_latency_cycles=arch.mem_latency,
        )
        self.memory_bytes = memory_bytes
        self.scheduler = Scheduler(self.topology)
        self.counters = CounterTable(arch.pmu_width, seed=seed)
        self.tick = tick
        self.seed = seed
        self.now = 0.0
        self.processes: dict[int, SimProcess] = {}
        # The live processes by pid. Pids only grow, so insertion order
        # is pid order; spawn adds, and kill and the reaper remove.
        self._live: dict[int, SimProcess] = {}
        self._threads: dict[int, SimThread] = {}
        self._next_pid = itertools.count(1000)
        self._timers: list[tuple[float, int, Callable[[], None]]] = []
        self._timer_seq = itertools.count()
        self._last_rates: dict[int, SliceRates] = {}
        # Memos, only with a rate cache. Both are exact: the rate cache
        # keys pure-function inputs by identity, and the contention cache
        # keys whole co-schedules by (pu, phase, previous-rates) identity.
        # Entries pin the objects behind the ids they key on, so eviction
        # is the only way an id leaves the cache.
        self._rate_cache = rate_cache
        self._contention_cache: dict[tuple, tuple] = {}
        self._kernel = ColumnKernel(self.counters)
        #: pid -> first tick boundary at/after which the process was seen
        #: dead. This is exactly when an external per-tick reaper (the
        #: grid's) would observe the death, recorded here so epoch-batched
        #: engines can reconstruct finish times without stepping per tick.
        self.death_observed: dict[int, float] = {}

    # ------------------------------------------------------------------
    # Process management
    # ------------------------------------------------------------------
    def spawn(
        self,
        command: str,
        workload: Workload,
        *,
        user: str = "user",
        uid: int | None = None,
        nthreads: int = 1,
        affinity: frozenset[int] | set[int] | None = None,
        nice: int = 0,
        duty_cycle: float = 1.0,
    ) -> SimProcess:
        """Create a process and make its threads runnable immediately.

        Returns the new :class:`SimProcess` (its pid is the handle for
        everything else).

        Raises:
            SimulationError: no thread, an empty affinity or one naming an
                unknown PU, or a duty cycle outside (0, 1]. A refused spawn
                takes no pid, so it moves no later process's noise stream.
        """
        if nthreads < 1:
            raise SimulationError(f"a process needs >= 1 thread, got {nthreads}")
        if affinity is not None:
            if not affinity:
                # sched_setaffinity(2) refuses an empty mask (EINVAL): a
                # task pinned to no PU would never run and never exit.
                raise SimulationError("affinity must name at least one PU")
            bad = set(affinity) - {p.pu_id for p in self.topology.pus}
            if bad:
                raise SimulationError(f"affinity references unknown PUs {sorted(bad)}")
            affinity = frozenset(affinity)
        if not 0 < duty_cycle <= 1:
            raise SimulationError(f"duty_cycle must be in (0, 1], got {duty_cycle}")
        pid = next(self._next_pid)
        if uid is None:
            uid = 1000 + (zlib.crc32(user.encode()) % 1000)
        proc = SimProcess(
            pid=pid,
            uid=uid,
            user=user,
            command=command,
            workload=workload,
            affinity=affinity,
            nice=nice,
            duty_cycle=duty_cycle,
            start_time=self.now,
            rng=np.random.default_rng((self.seed, pid)),
        )
        proc.spawn_threads(nthreads, first_tid=pid)
        # Extra threads consume ids from the same space as pids, so a
        # 4-thread process at pid P owns tids P..P+3 and the next process
        # gets pid P+4 — tids and pids never collide (as on Linux).
        for _ in range(nthreads - 1):
            next(self._next_pid)
        self.processes[pid] = proc
        self._live[pid] = proc
        for t in proc.threads:
            self._threads[t.tid] = t
            if duty_cycle < 1.0:
                t.duty_rng = np.random.default_rng((self.seed, pid, t.tid, 7))
        self._kernel.add(proc.threads)
        return proc

    def kill(self, pid: int) -> None:
        """Terminate every thread of ``pid``.

        Raises:
            SimulationError: for an unknown pid.
        """
        proc = self.process(pid)
        for t in proc.threads:
            t.mark_dead()
            self.scheduler.forget(t)
            self._kernel.drop(t)
        self._live.pop(pid, None)
        self.scheduler.placed.discard(proc)
        # Kills land at timer boundaries (or between runs), where ``now``
        # already is a tick boundary — that is when a reaper first sees it.
        self.death_observed.setdefault(pid, self.now)

    def process(self, pid: int) -> SimProcess:
        """Look up a process by pid.

        Raises:
            SimulationError: for an unknown pid.
        """
        try:
            return self.processes[pid]
        except KeyError as exc:
            raise SimulationError(f"no such pid {pid}") from exc

    def thread(self, tid: int) -> SimThread:
        """Look up a thread by tid.

        Raises:
            SimulationError: for an unknown tid.
        """
        try:
            return self._threads[tid]
        except KeyError as exc:
            raise SimulationError(f"no such tid {tid}") from exc

    def live_processes(self) -> list[SimProcess]:
        """Processes with at least one live thread, by pid."""
        return list(self._live.values())

    def listing(self) -> list[SimProcess]:
        """:meth:`live_processes`, each with its ``listed_cpu`` and
        ``listed_pu`` current.

        Only processes the scheduler placed since the last listing are
        tallied again: a thread's CPU time and processor change on no
        other tick, so the cost follows the processes that ran, not the
        processes alive.
        """
        placed = self.scheduler.placed
        for proc in placed:
            proc.tally()
        placed.clear()
        return list(self._live.values())

    def at(self, when: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to fire at virtual time ``when``.

        Used by experiment scripts for job arrivals (Fig. 10's user2 burst).

        Raises:
            SimulationError: when ``when`` is in the virtual past.
        """
        if when < self.now:
            raise SimulationError(f"cannot schedule at {when} < now {self.now}")
        heapq.heappush(self._timers, (when, next(self._timer_seq), callback))

    def spawn_at(
        self, when: float, command: str, workload: Workload, **kwargs
    ) -> None:
        """Schedule a :meth:`spawn` at virtual time ``when``.

        Convenience for churn scripts (chaos sweeps, Fig. 10-style job
        arrivals): the spawn happens inside the tick loop, exactly like a
        user starting a job mid-run.
        """
        self.at(when, lambda: self.spawn(command, workload, **kwargs))

    def kill_at(self, when: float, pid: int) -> None:
        """Schedule a :meth:`kill` of ``pid`` at virtual time ``when``.

        A pid that is already gone by then is ignored — the churn script's
        victim may have exited on its own, as on a real machine.
        """

        def _kill() -> None:
            proc = self.processes.get(pid)
            if proc is not None and proc.alive:
                self.kill(pid)

        self.at(when, _kill)

    # ------------------------------------------------------------------
    # Time advance
    # ------------------------------------------------------------------
    def run_for(self, seconds: float) -> None:
        """Advance the virtual clock by ``seconds``."""
        self.run_until(self.now + seconds)

    def run_until(self, deadline: float) -> None:
        """Advance the virtual clock to ``deadline`` in whole ticks.

        Tick accounting is integral: the span is converted to a whole tick
        count once, every full tick steps by exactly ``self.tick``, and at
        most one fractional step covers the remainder. The old form — loop
        while ``now < deadline - 1e-12``, stepping ``min(tick, rest)`` —
        compared an *absolute* epsilon against a clock whose ulp outgrows
        it (ulp(3.6e5) is already ~6e-11), so long runs drifted by whole
        ticks. Counting ticks as integers keeps the step sequence identical
        to :meth:`run_ticks` at any clock magnitude. Both the whole ticks
        and the fractional step run on the kernel.
        """
        whole = self._whole_ticks(deadline)
        if whole:
            self._kernel.run(self, whole, self.tick)
        remainder = deadline - self.now
        if remainder > self.tick * 1e-9:
            self._kernel.run(self, 1, remainder)

    def _whole_ticks(self, deadline: float) -> int:
        """Whole ticks from ``now`` to ``deadline`` (0 when not ahead)."""
        span = deadline - self.now
        if span <= 0:
            return 0
        quotient = span / self.tick
        # Absolute + relative slack: a quotient that is integral up to
        # accumulated float error (a few ulps) must not lose its last tick
        # to truncation.
        return int(quotient + max(1e-9, quotient * 1e-12))

    def run_ticks(self, n: int) -> None:
        """Advance exactly ``n`` whole ticks on the columnar kernel.

        The same path as :meth:`run_until` over whole ticks; grid shards
        and :mod:`repro.verify` count in ticks and call it directly.
        """
        if n < 0:
            raise SimulationError(f"cannot run a negative tick count {n}")
        self._kernel.run(self, n, self.tick)

    def kernel_stats(self) -> dict[str, int]:
        """Columnar-kernel health: slot occupancy and slice coverage.

        Observability only — never part of conformance digests. Every
        slice runs on the kernel, so ``fallback_slices`` is always 0; the
        key stays for readers of older reports.
        """
        kernel = self._kernel
        columns = self.counters.columns
        return {
            "counter_slots_live": columns.live_slots(),
            "counter_slot_capacity": columns.capacity,
            "tracked_tasks": int(np.count_nonzero(kernel.live)),
            "fast_slices": kernel.slices,
            "fallback_slices": 0,
        }

    def _fire_timers(self) -> None:
        while self._timers and self._timers[0][0] <= self.now + 1e-12:
            _, _, callback = heapq.heappop(self._timers)
            callback()

    # ------------------------------------------------------------------
    # Contention resolution
    # ------------------------------------------------------------------
    def _active_per_core(self, assignment: dict[int, SimThread]) -> dict[int, int]:
        per_core: dict[int, int] = {}
        for pu_id in assignment:
            core = self.topology.pu(pu_id).core_id
            per_core[core] = per_core.get(core, 0) + 1
        return per_core

    def _resolve_contention(
        self,
        assignment: dict[int, SimThread],
        located: dict[int, tuple] | None = None,
        rate_cache: RateCache | None = None,
    ) -> dict[int, SliceRates]:
        """Fixed-point on access pressures -> capacities -> rates.

        ``located`` optionally pre-resolves ``thread.current_phase()`` per
        tid (the lookup is pure within a tick, so hoisting it is exact);
        ``rate_cache`` optionally memoises the inner ``compute_rates``
        calls. Without either, every rate is computed afresh.
        """
        if not assignment:
            return {}
        if located is None:
            located = {
                thread.tid: thread.current_phase()
                for thread in assignment.values()
            }
        per_core = self._active_per_core(assignment)
        shares = {
            pu: issue_share(self.arch, per_core[self.topology.pu(pu).core_id])
            for pu in assignment
        }
        # Initial instruction-rate guess: previous tick's rates, else solo.
        inst_rate: dict[int, float] = {}
        rates: dict[int, SliceRates] = {}
        for pu, thread in assignment.items():
            if located[thread.tid] is None:
                continue
            prev = self._last_rates.get(thread.tid)
            guess_cpi = prev.cpi if prev else 1.0
            inst_rate[thread.tid] = self.arch.freq_hz / guess_cpi

        mem_latency = self.arch.mem_latency
        for _ in range(CONTENTION_ITERATIONS):
            pressures: dict[CacheInstance, dict[int, float]] = {}
            demand = 0.0
            for pu, thread in assignment.items():
                loc = located[thread.tid]
                if loc is None:
                    continue
                phase, _ = loc
                path = self.caches.path_for_pu(pu)
                prev = rates.get(thread.tid)
                if prev is not None:
                    profile = prev.miss_profile
                    accesses = profile.accesses
                    demand += (
                        profile.misses[-1]
                        * inst_rate[thread.tid]
                        * path[-1].spec.line
                    )
                else:
                    accesses = [phase.mix.mem_refs] * len(path)
                for inst, acc in zip(path, accesses):
                    pressures.setdefault(inst, {})[thread.tid] = (
                        acc * inst_rate.get(thread.tid, 0.0)
                    )
            mem_latency = self.memory.effective_latency(demand)
            for pu, thread in assignment.items():
                loc = located[thread.tid]
                if loc is None:
                    continue
                phase, _ = loc
                caps = self.caches.levels_with_capacity(pu, pressures, thread.tid)
                if rate_cache is not None:
                    r = rate_cache.rates(
                        self.arch,
                        phase,
                        caps,
                        mem_latency_cycles=mem_latency,
                        issue_share=shares[pu],
                    )
                else:
                    r = compute_rates(
                        self.arch,
                        phase,
                        caps,
                        mem_latency_cycles=mem_latency,
                        issue_share=shares[pu],
                    )
                rates[thread.tid] = r
                inst_rate[thread.tid] = self.arch.freq_hz / r.cpi
        return rates

    #: Size cap for the co-schedule memo (entries are small; the cap only
    #: guards pathological populations with unbounded phase turnover).
    _CONTENTION_CACHE_MAX = 8192

    def _cached_contention(
        self,
        assignment: dict[int, SimThread],
        located: dict[int, tuple],
    ) -> dict[int, SliceRates]:
        """Memoised :meth:`_resolve_contention` (machines with a cache).

        The fixed-point depends only on the *shape* of the co-schedule:
        (pu, active phase, previous-tick rates) per slot, in assignment
        order (the order matters because bus demand accumulates in it).
        Phases and SliceRates are immutable, so identity-keying them makes
        a cache hit return the very objects a memo-free machine would have
        recomputed. Keys name earlier rate objects by id, so a hit needs
        the rate cache handing back the same object for the same inputs.
        """
        if not assignment:
            return {}
        key = tuple(
            (
                pu,
                id(loc[0]) if (loc := located[thread.tid]) is not None else None,
                id(prev) if (prev := self._last_rates.get(thread.tid)) is not None else None,
            )
            for pu, thread in assignment.items()
        )
        entry = self._contention_cache.get(key)
        threads = list(assignment.values())
        if entry is not None:
            results = entry[0]
            return {
                thread.tid: r
                for thread, r in zip(threads, results)
                if r is not None
            }
        rates = self._resolve_contention(
            assignment, located=located, rate_cache=self._rate_cache
        )
        results = tuple(rates.get(thread.tid) for thread in threads)
        keepalive = tuple(
            (located[thread.tid], self._last_rates.get(thread.tid))
            for thread in threads
        )
        if len(self._contention_cache) >= self._CONTENTION_CACHE_MAX:
            # Oldest-half FIFO, same rationale as RateCache._evict: keep
            # the recent (live-orbit) half instead of thrashing to cold.
            for stale in list(
                itertools.islice(
                    self._contention_cache, self._CONTENTION_CACHE_MAX // 2
                )
            ):
                del self._contention_cache[stale]
        self._contention_cache[key] = (results, keepalive)
        return rates

    def _reap(self, thread: SimThread, dt: float) -> None:
        if thread.state is TaskState.DEAD:
            return
        thread.mark_dead()
        self.scheduler.forget(thread)
        self._kernel.drop(thread)
        self._last_rates.pop(thread.tid, None)
        proc = thread.process
        if not proc.alive:
            del self._live[proc.pid]
            self.scheduler.placed.discard(proc)
            # ``now`` is still pre-increment inside a slice: the death is
            # first observable at the end of this tick.
            self.death_observed.setdefault(proc.pid, self.now + dt)
