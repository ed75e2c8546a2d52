"""Shard-aware grid execution engines (scaling §3.4's fleet).

The paper's production deployment is ~100 SGE nodes; simulating such a
fleet one scalar tick at a time makes wall-clock grow linearly in fleet
size. Nodes, however, are *shared-nothing between dispatch decisions*: a
:class:`~repro.sim.grid.Grid` only couples its machines through the
dispatcher, and the dispatcher only has something to do when a job arrives
or a slot frees. That property is what batch schedulers exploit to fan
work out across hosts, and what this module exploits to advance nodes
concurrently between **dispatch epochs**.

Three engines implement the same contract:

* ``legacy`` — the original per-tick loop (dispatch, advance every node by
  one memo-free tick, reap). Kept as the reference semantics and the
  benchmark baseline.
* ``serial`` — one in-process :class:`Shard` holding every node, advanced
  a whole epoch at a time through
  :meth:`~repro.sim.machine.SimMachine.run_ticks` with a shard-shared
  :class:`~repro.sim.core.RateCache`. The default and the CI path.
* ``supervised`` (:mod:`repro.sim.supervisor`) — persistent worker
  agents, each owning a disjoint :class:`Shard` behind a pluggable
  :class:`~repro.sim.transport.ShardTransport` (``inproc`` serial
  zero-copy, ``fork`` pickled tuples over a multiprocessing pipe), under
  a supervision tree: deadlines, journal-replay restarts, adoption,
  degrade-to-serial. Machines are constructed *inside* the agent from
  (spec, seed) and never cross the process boundary; per epoch exactly
  one compact message round-trip happens per worker (spawn/preempt
  commands in, job-exit/bound/cache snapshots out). The only engine that
  runs worker processes.

Determinism. A machine's evolution is a pure function of its spec, seed,
tick, and the timed sequence of spawns/kills applied to it. All the
engines apply the same commands at the same virtual boundaries and advance
by the same whole-tick counts, so job states, finish times and per-node
counter tables are bitwise identical (the tick kernel is proven bitwise
equal, with and without a rate cache, to the scalar reference by
``tests/test_run_ticks_equivalence.py``).

Job facts. A grid :class:`~repro.sim.grid.Job` holds no process on any
engine: it learns pids, deaths and kills from the reports. A shard keeps
one ``(node, process, floor CPI)`` entry per live job, until the epoch
that reports the death or the eviction. Every engine answers one
snapshot call, ``snapshot_many``.

The epoch boundary rule. An epoch may extend to the earliest virtual time
at which the dispatcher could possibly have work: the next wallclock-kill
boundary, or the earliest *possible* natural job exit. The latter uses a
sound lower bound: per-tick retirement is at most
``freq * tick / floor_cpi`` where the floor CPI is the solo
memory+branch+assist cost — components the additive CPI model only ever
*raises* under contention (capacities shrink, DRAM latency inflates) —
plus, for noise-free phases only, the solo execution component (issue
sharing can only raise it, and with ``noise == 0`` the lognormal
multiplier is exactly 1). Hence a job with ``R`` instructions left cannot
exit before ``R * floor_cpi / freq`` seconds have passed, and the
dispatcher provably misses no slot-free boundary. With nothing pending,
the whole remaining run is one epoch.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import SimulationError
from repro.sim.core import RateCache, solo_rates
from repro.sim.machine import SimMachine

if TYPE_CHECKING:
    from repro.sim.grid import NodeSpec
    from repro.sim.process import SimProcess
    from repro.sim.supervisor import GridFaultPlan, Supervision
    from repro.sim.workload import Workload

ENGINE_NAMES = ("legacy", "serial", "supervised")

#: Shard transport implementations (see :mod:`repro.sim.transport`).
#: Defined here, next to the engine names, so the grid validates both
#: without importing the worker-process layer at module load.
TRANSPORT_NAMES = ("inproc", "fork")


def _entry_list(
    specs: list["NodeSpec"], seed: int
) -> list[tuple["NodeSpec", int]]:
    """Per-node (spec, seed) pairs: node ``i`` gets ``seed + i``. Like the
    node-to-worker assignment, the seed is a pure function of the node's
    index, so every engine stays bitwise-equivalent."""
    return [(spec, seed + index) for index, spec in enumerate(specs)]


@dataclass(frozen=True)
class SpawnCmd:
    """One dispatch decision, shippable to whichever shard owns the node.

    Attributes:
        job_id: grid job id (the cross-process handle).
        node: target node name.
        command: process command name.
        user: owner.
        workload: what the job runs (pickled to workers).
        wallclock_limit: seconds until the queue's kill fires (None = no
            limit). The shard arms the kill timer relative to the node's
            clock at spawn, exactly like the serial dispatcher.
    """

    job_id: int
    node: str
    command: str
    user: str
    workload: "Workload"
    wallclock_limit: float | None


@dataclass(frozen=True)
class PreemptCmd:
    """Evict one running job from its node (SGE-style preemption).

    The shard kills the job's process *now* — at the epoch boundary where
    the dispatcher decided the eviction — and forgets the job without
    reporting a death: the grid re-queues it, and a later
    :class:`SpawnCmd` restarts the workload from scratch (SGE restart
    semantics). Commands apply in list order, so an eviction always lands
    before the spawn it made room for.
    """

    job_id: int
    node: str


# -- exit lower bounds --------------------------------------------------------

def _floor_cpi(arch, phase) -> float:
    """A sound floor on ``phase``'s per-instruction cycle cost on ``arch``
    in *any* machine state.

    The penalty components (memory+branch+assist) are always a floor:
    contention only shrinks cache capacities and inflates DRAM latency,
    raising the memory component, and branch/assist are contention-free.
    The execution component is priced at zero for noisy phases (the
    lognormal jitter multiplies it and is unbounded below), but for
    deterministic phases (noise == 0) the multiplier is exactly 1 and
    issue sharing can only *raise* exec CPI — so the full solo CPI is the
    floor, making exit bounds near-exact for noise-free jobs.
    """
    rates = solo_rates(arch, phase)
    value = rates.cpi_memory + rates.cpi_branch + rates.cpi_assist
    if phase.noise == 0:
        value += rates.cpi_exec
    return value


def workload_floor_cpi(arch, workload: "Workload") -> float | None:
    """The lowest per-instruction cycle cost any phase of ``workload``
    can reach on ``arch`` (None = the workload never exits).

    No process-wide memo keeps it: the shard stores it with the job that
    needs it and drops it with the job, and the grid computes it once per
    dispatch, so nothing pins the phases of finished jobs.
    """
    if math.isinf(workload.total_instructions):
        return None
    return min(_floor_cpi(arch, p) for p in workload.phases)


def workload_exit_lb(arch, workload: "Workload") -> float | None:
    """Seconds before which a fresh task of ``workload`` cannot possibly
    exit on ``arch`` (None = never exits)."""
    floor_cpi = workload_floor_cpi(arch, workload)
    if floor_cpi is None:
        return None
    return workload.total_instructions * floor_cpi / arch.freq_hz


def proc_exit_lb(
    machine: SimMachine, proc: "SimProcess", floor_cpi: float
) -> float:
    """Earliest-possible-exit bound for a whole process of a finite
    workload whose :func:`workload_floor_cpi` on this machine is
    ``floor_cpi``.

    A process dies when its *last* thread does, so the bound is the max
    over live threads of each thread's remaining-work bound.
    """
    total = proc.workload.total_instructions
    worst = 0.0
    for thread in proc.threads:
        if not thread.alive:
            continue
        remaining = max(0.0, total - thread.retired)
        worst = max(worst, remaining * floor_cpi / machine.arch.freq_hz)
    return worst


# -- snapshots ----------------------------------------------------------------

def node_snapshot(machine: SimMachine) -> dict[str, Any]:
    """Every grid-observable of one node, exactly (for equivalence tests
    and the worker agents' snapshot message)."""
    procs = {}
    for pid, proc in machine.processes.items():
        procs[pid] = (
            proc.command,
            proc.user,
            proc.alive,
            tuple(
                (
                    t.tid,
                    t.retired,
                    t.cycles,
                    t.cpu_time,
                    t.state.value,
                    t.vruntime,
                    t.context_switches,
                    t.last_pu,
                )
                for t in proc.threads
            ),
        )
    counters = {
        cid: (
            c.value,
            c.time_enabled,
            c.time_running,
            c.samples,
            c._carry,
            c.enabled,
        )
        for cid, c in machine.counters._by_id.items()
    }
    return {
        "now": machine.now,
        "procs": procs,
        "counters": counters,
        "open_counters": machine.counters.open_count(),
        "deaths": dict(machine.death_observed),
        # Scheduler-core state the kernel shares with the scalar
        # reference: placement memory and multiplex rotation. Safe in
        # conformance digests because every engine is bitwise-equivalent.
        "rotation": dict(machine.counters._rotation),
        "last_assignment": {
            pu: t.tid for pu, t in machine.scheduler._last_assignment.items()
        },
    }


def node_snapshots(
    machines: dict[str, SimMachine], names: list[str]
) -> dict[str, dict[str, Any]]:
    """:func:`node_snapshot` of each named node; a name with no node
    raises the supervised engine's :class:`SimulationError`."""
    for name in names:
        if name not in machines:
            raise SimulationError(f"no node {name!r}")
    return {name: node_snapshot(machines[name]) for name in names}


# -- the shard ----------------------------------------------------------------

class Shard:
    """A disjoint set of grid nodes plus their job bookkeeping.

    The same class backs both the in-process serial engine and each worker
    process, which is what guarantees the two execute identical code on
    identical state. Each live job is one ``_jobs`` entry, dropped when
    the job ends, so a shard keeps nothing for a finished job.
    """

    def __init__(self, entries: list[tuple["NodeSpec", int]], tick: float) -> None:
        self.rate_cache = RateCache()
        self.machines: dict[str, SimMachine] = {}
        for spec, seed in entries:
            self.machines[spec.name] = SimMachine(
                spec.arch,
                sockets=spec.sockets,
                cores_per_socket=spec.cores_per_socket,
                memory_bytes=spec.memory_bytes,
                tick=tick,
                seed=seed,
                rate_cache=self.rate_cache,
            )
        #: job_id -> (node name, process, floor CPI or None when endless)
        #: for the jobs still alive on this shard.
        self._jobs: dict[int, tuple[str, "SimProcess", float | None]] = {}
        self._killed: set[int] = set()

    @classmethod
    def replayed(
        cls,
        entries: list[tuple["NodeSpec", int]],
        tick: float,
        journal: list[tuple[list, int, float]],
    ) -> "Shard":
        """Resurrect a shard: rebuild it from (spec, seed) and replay its
        journal of ``(commands, n_ticks, frac)`` epochs.

        Machine evolution is a pure function of spec, seed, tick and the
        timed command sequence, so the result is bitwise-equal to a shard
        that never went away. Worker agents and supervisor-adopted shards
        both come back to life through here.
        """
        shard = cls(entries, tick)
        for commands, n_ticks, frac in journal:
            shard.advance(commands, n_ticks, frac)
        return shard

    def _apply(self, commands: list) -> dict[int, int]:
        spawned: dict[int, int] = {}
        for cmd in commands:
            if isinstance(cmd, PreemptCmd):
                # Eviction: kill now, forget the job (no death report —
                # the grid re-queues it), leave any armed wallclock kill
                # to no-op on the dead process.
                entry = self._jobs.pop(cmd.job_id, None)
                if entry is not None and entry[1].alive:
                    self.machines[cmd.node].kill(entry[1].pid)
                self._killed.discard(cmd.job_id)
                continue
            machine = self.machines[cmd.node]
            proc = machine.spawn(cmd.command, cmd.workload, user=cmd.user)
            self._jobs[cmd.job_id] = (
                cmd.node, proc, workload_floor_cpi(machine.arch, cmd.workload)
            )
            spawned[cmd.job_id] = proc.pid
            if cmd.wallclock_limit is not None:
                self._arm_kill(machine, cmd.job_id, proc, cmd.wallclock_limit)
        return spawned

    def _arm_kill(
        self,
        machine: SimMachine,
        job_id: int,
        proc: "SimProcess",
        limit: float,
    ) -> None:
        def kill() -> None:
            if proc.alive:
                machine.kill(proc.pid)
                self._killed.add(job_id)

        machine.at(machine.now + limit, kill)

    def advance(
        self, commands: list, n_ticks: int, frac: float
    ) -> dict[str, Any]:
        """Apply this epoch's spawns/evictions, advance every node,
        report back.

        The reply is the engine protocol's only payload: new pids, exits
        (with the exact machine time the serial reaper would have observed
        them), wallclock kills that fired, refreshed exit lower bounds for
        still-running finite jobs, and cache statistics.
        """
        start_now = {name: m.now for name, m in self.machines.items()}
        t0 = time.perf_counter()
        spawned = self._apply(commands)
        for machine in self.machines.values():
            if n_ticks:
                machine.run_ticks(n_ticks)
            if frac > 1e-12:
                machine.run_for(frac)
        wall = time.perf_counter() - t0

        deaths: dict[int, float] = {}
        killed: list[int] = []
        bounds: dict[int, float] = {}
        done: list[int] = []
        for job_id, (node, proc, floor_cpi) in self._jobs.items():
            machine = self.machines[node]
            if not proc.alive:
                deaths[job_id] = machine.death_observed.get(
                    proc.pid, machine.now
                )
                if job_id in self._killed:
                    killed.append(job_id)
                done.append(job_id)
            elif floor_cpi is not None:
                # Absolute machine time before which this job cannot have
                # exited — the grid's next epoch boundary input.
                bounds[job_id] = (
                    machine.now + proc_exit_lb(machine, proc, floor_cpi)
                )
        for job_id in done:
            del self._jobs[job_id]
            self._killed.discard(job_id)
        return {
            "spawned": spawned,
            "deaths": deaths,
            "killed": killed,
            "bounds": bounds,
            "start_now": start_now,
            "end_now": {name: m.now for name, m in self.machines.items()},
            "wall": wall,
            "cache_hits": self.rate_cache.hits,
            "cache_misses": self.rate_cache.misses,
        }

    def snapshot_many(self, names: list[str]) -> dict[str, dict[str, Any]]:
        """Snapshots for several nodes in one call (one message per worker
        on the supervised engine, instead of a round-trip per node)."""
        return node_snapshots(self.machines, names)


# -- engines ------------------------------------------------------------------

class LegacyTickEngine:
    """The pre-epoch reference: in-process machines, no batching.

    :meth:`Grid.run_for` special-cases this engine and runs the original
    dispatch/advance/reap loop over ``nodes`` — it exists so benchmarks
    and equivalence tests can measure the restructure against the exact
    old semantics.
    """

    name = "legacy"
    workers = 1

    def __init__(
        self, specs: list["NodeSpec"], tick: float, seed: int
    ) -> None:
        self.nodes: dict[str, SimMachine] = {}
        for spec, node_seed in _entry_list(specs, seed):
            self.nodes[spec.name] = SimMachine(
                spec.arch,
                sockets=spec.sockets,
                cores_per_socket=spec.cores_per_socket,
                memory_bytes=spec.memory_bytes,
                tick=tick,
                seed=node_seed,
            )

    def snapshot_many(self, names: list[str]) -> dict[str, dict[str, Any]]:
        return node_snapshots(self.nodes, names)

    def close(self) -> None:
        pass


class SerialEpochEngine:
    """All nodes in one in-process shard, advanced epoch-at-a-time."""

    name = "serial"
    workers = 1

    def __init__(
        self, specs: list["NodeSpec"], tick: float, seed: int
    ) -> None:
        self.shard = Shard(_entry_list(specs, seed), tick)
        self.nodes = self.shard.machines

    def advance(
        self, commands: list, n_ticks: int, frac: float
    ) -> list[dict[str, Any]]:
        return [self.shard.advance(commands, n_ticks, frac)]

    def snapshot_many(self, names: list[str]) -> dict[str, dict[str, Any]]:
        return self.shard.snapshot_many(names)

    def close(self) -> None:
        pass


def create_engine(
    engine: str,
    specs: list["NodeSpec"],
    tick: float,
    seed: int,
    workers: int,
    *,
    chaos: "GridFaultPlan | None" = None,
    supervision: "Supervision | None" = None,
    transport: str | None = None,
):
    """Engine factory used by :class:`~repro.sim.grid.Grid`."""
    if chaos is not None and engine != "supervised":
        raise SimulationError(
            f"grid chaos requires the supervised engine, not {engine!r}"
        )
    if supervision is not None and engine != "supervised":
        raise SimulationError(
            f"supervision config requires the supervised engine, not {engine!r}"
        )
    if transport is not None and engine != "supervised":
        raise SimulationError(
            f"a shard transport requires the supervised engine, not {engine!r}"
        )
    if engine == "legacy":
        return LegacyTickEngine(specs, tick, seed)
    if engine == "serial":
        return SerialEpochEngine(specs, tick, seed)
    if engine == "supervised":
        from repro.sim.supervisor import SupervisedShardedEngine

        return SupervisedShardedEngine(
            specs, tick, seed, workers,
            chaos=chaos, config=supervision,
            transport=transport or "fork",
        )
    raise SimulationError(
        f"unknown grid engine {engine!r} (have: {', '.join(ENGINE_NAMES)})"
    )

