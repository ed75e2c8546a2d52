"""The data-center grid of §3.4: nodes, queues, and an SGE-like dispatcher.

The paper's environment: "about 100 nodes. Each node is a bi-Intel Xeon.
Configurations include dual-cores and quad-cores, and clock frequencies
range from 1.6 GHz to 3.4 GHz... The scheduler is based on Sun Grid Engine
6.2u5. It defines sixteen queues for jobs of different wall-clock run time,
memory requirements, and urgency (ASAP vs. overnight). Jobs are spawned in
order in each queue, the number of concurrently running jobs is limited by
the number of logical cores of each node... heuristics apply, such as
increasing priority of short running processes, dedicating some nodes for
long running tasks... A sensible rule of thumb is to load a node with as
many jobs as there are logical cores, and to keep memory usage below the
available physical memory."

:class:`Grid` implements exactly that: heterogeneous :class:`SimMachine`
nodes sharing one virtual clock, FIFO queues with priorities, per-node
logical-core and memory admission limits, wall-clock kill, and node
dedication. Tiptop attaches to any node via ``SimHost(grid.node(i))`` —
which is how Figures 1 and 10 were captured in production.

Execution is delegated to an engine from :mod:`repro.sim.parallel`. Nodes
only couple through the dispatcher, and the dispatcher only has work when
a job arrives or a slot frees, so the grid advances the whole fleet in
**dispatch epochs**: the span to the next wallclock-kill boundary or the
earliest *possible* job exit (a sound lower bound from the CPI model) runs
in one :meth:`SimMachine.run_ticks` call per node — or one message
round-trip per worker shard with ``workers=N``. Job states, finish times
and per-node counter tables are identical across engines.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import SimulationError
from repro.sim.arch import ArchModel, WESTMERE_E5640
from repro.sim.machine import SimMachine
from repro.sim.parallel import (
    TRANSPORT_NAMES,
    PreemptCmd,
    SpawnCmd,
    create_engine,
    workload_exit_lb,
)
from repro.sim.process import SimProcess
from repro.sim.workload import Workload

if TYPE_CHECKING:
    from repro.sim.supervisor import GridFaultPlan, Supervision


@dataclass(frozen=True)
class QueueSpec:
    """One submission queue.

    Attributes:
        name: queue name ("short-2g-asap").
        max_wallclock: job kill limit in seconds (inf = none).
        memory_limit: per-job memory in bytes.
        priority: higher dispatches first (the paper's short-job boost).
        dedicated_only: jobs of this queue may only run on nodes dedicated
            to it (long-running queues get their own nodes).
        preempting: when no slot is free, a job in this queue may evict a
            strictly lower-priority running job (compared on
            ``(queue priority, job priority)``); the victim is requeued
            and redispatched later. Off by default — the stock SGE
            layout never preempts.
    """

    name: str
    max_wallclock: float
    memory_limit: int
    priority: int = 0
    dedicated_only: bool = False
    preempting: bool = False


def sge_queues() -> list[QueueSpec]:
    """The sixteen-queue layout: wallclock x memory x urgency.

    Four wall-clock classes, two memory classes, two urgencies. Shorter
    queues get higher priority (the paper's heuristic); the 'eternal'
    queues are dedicated-node only.
    """
    queues = []
    wallclocks = [
        ("short", 3600.0, 3),
        ("day", 12 * 3600.0, 2),
        ("long", 48 * 3600.0, 1),
        ("eternal", float("inf"), 0),
    ]
    memories = [("2g", 2 * 1024**3), ("8g", 8 * 1024**3)]
    urgencies = [("asap", 1), ("overnight", 0)]
    for wname, wlimit, wprio in wallclocks:
        for mname, mbytes in memories:
            for uname, uprio in urgencies:
                queues.append(
                    QueueSpec(
                        name=f"{wname}-{mname}-{uname}",
                        max_wallclock=wlimit,
                        memory_limit=mbytes,
                        priority=2 * wprio + uprio,
                        dedicated_only=(wname == "eternal"),
                    )
                )
    return queues


@dataclass(frozen=True)
class NodeSpec:
    """One node's configuration.

    The paper's fleet mixes dual/quad-core bi-Xeons at 1.6-3.4 GHz.
    """

    name: str
    arch: ArchModel = WESTMERE_E5640
    sockets: int = 2
    cores_per_socket: int = 4
    memory_bytes: int = 24 * 1024**3
    dedicated_queue: str | None = None

    @property
    def n_pus(self) -> int:
        """Logical cores, derivable without building the machine (a
        supervised grid's nodes live in worker processes)."""
        return self.sockets * self.cores_per_socket * self.arch.smt_per_core


@dataclass
class Job:
    """A submitted job.

    Attributes:
        job_id: grid-assigned id.
        name: command name.
        user: owner.
        workload: what it runs.
        queue: target queue name.
        memory_bytes: declared memory need (admission only).
        submitted_at: submission time.
        process: the spawned process, when it lives in this process
            (legacy/serial engines; None under the supervised engine,
            whose processes live in workers — use ``pid``).
        pid: pid on the target node once dispatched.
        node: the node name it landed on.
        started_at / finished_at: dispatch / completion times (a
            preempted job's ``started_at`` is its most recent dispatch).
        killed: True when the wall-clock limit fired.
        priority: within-queue job priority (higher dispatches first;
            ties break FIFO by job id).
        preemptions: times this job was evicted by a preempting queue.
    """

    job_id: int
    name: str
    user: str
    workload: Workload
    queue: str
    memory_bytes: int
    submitted_at: float
    process: SimProcess | None = None
    pid: int | None = None
    node: str | None = None
    started_at: float | None = None
    finished_at: float | None = None
    killed: bool = False
    priority: int = 0
    preemptions: int = 0

    @property
    def state(self) -> str:
        """pending / running / done."""
        if self.started_at is None:
            return "pending"
        if self.finished_at is not None:
            return "done"
        if self.process is not None and not self.process.alive:
            return "done"
        return "running"


class Grid:
    """A fleet of simulated nodes behind an SGE-like dispatcher.

    Args:
        node_specs: the fleet (defaults to a small mixed fleet).
        queues: queue layout (defaults to the sixteen SGE queues).
        tick: node scheduler tick.
        seed: base seed (each node gets seed+index).
        workers: 1 (default) runs every node in-process through the
            epoch-batched serial engine; N > 1 shards the fleet over N
            persistent worker processes under supervision.
        engine: explicit engine override ("legacy", "serial",
            "supervised"); None derives it — "supervised" when workers/
            chaos/supervision/transport ask for worker processes,
            "serial" otherwise (worker processes only run behind the
            supervision tree). "legacy" is the pre-epoch per-tick loop,
            kept as the reference and benchmark baseline.
        profile: print per-epoch engine timings, message counts, wire
            bytes and RateCache statistics to stderr (plus restart/
            replay/degrade counters under the supervised engine).
        grid_chaos: seeded worker-fault injection — an int seed (stock
            fault mix) or a prebuilt
            :class:`~repro.sim.supervisor.GridFaultPlan`. Requires (and
            defaults the engine to) "supervised".
        supervision: :class:`~repro.sim.supervisor.Supervision` policy
            override for the supervised engine.
        transport: how shards talk to workers — "inproc" (serial,
            zero-copy, no worker process) or "fork" (pickled tuples over
            a multiprocessing pipe, the default). A pure performance
            knob: digests are transport-invariant.
    """

    def __init__(
        self,
        node_specs: list[NodeSpec] | None = None,
        queues: list[QueueSpec] | None = None,
        *,
        tick: float = 1.0,
        seed: int = 1,
        workers: int = 1,
        engine: str | None = None,
        profile: bool = False,
        grid_chaos: "int | GridFaultPlan | None" = None,
        supervision: "Supervision | None" = None,
        transport: str | None = None,
    ) -> None:
        self.queues = {
            q.name: q for q in (sge_queues() if queues is None else queues)
        }
        if not self.queues:
            raise SimulationError("a grid needs at least one queue")
        specs = node_specs if node_specs is not None else default_fleet()
        if not specs:
            raise SimulationError("a grid needs at least one node")
        if workers < 1:
            raise SimulationError(f"workers must be >= 1, got {workers}")
        self.specs = specs
        self._spec_by_name = {spec.name: spec for spec in specs}
        if len(self._spec_by_name) != len(specs):
            raise SimulationError("node names must be unique")
        chaos = grid_chaos
        if isinstance(chaos, int):
            from repro.sim.supervisor import GridFaultPlan

            chaos = GridFaultPlan.from_seed(chaos)
        if transport is not None and transport not in TRANSPORT_NAMES:
            raise SimulationError(
                f"unknown shard transport {transport!r} "
                f"(have: {', '.join(TRANSPORT_NAMES)})"
            )
        if engine is None:
            if (
                workers > 1
                or chaos is not None
                or supervision is not None
                or transport is not None
            ):
                engine = "supervised"
            else:
                engine = "serial"
        self.engine = create_engine(
            engine, specs, tick, seed, workers,
            chaos=chaos, supervision=supervision, transport=transport,
        )
        self._legacy = self.engine.name == "legacy"
        self._pending: dict[str, list[Job]] = {
            name: [] for name in self.queues
        }
        self._jobs: list[Job] = []
        self._by_id: dict[int, Job] = {}
        self._ids = itertools.count(1)
        self.now = 0.0
        self.tick = tick
        self.seed = seed
        self.profile = profile
        # Epoch bookkeeping, all in *machine* time on the job's node:
        # where each node's clock stood after the last engine round-trip,
        # when each running job's wallclock kill comes due, and before
        # when each running job provably cannot exit.
        self._node_now: dict[str, float] = {spec.name: 0.0 for spec in specs}
        self._kill_due: dict[int, float] = {}
        self._exit_after: dict[int, float] = {}
        self._pending_cmds: list[SpawnCmd] = []
        self._counters: dict[str, Any] = {
            "epochs": 0,
            "ticks": 0,
            "messages": 0,
            "shard_wall": 0.0,
            "rate_cache_hits": 0,
            "rate_cache_misses": 0,
            "preemptions": 0,
            "bytes_sent": 0,
            "bytes_received": 0,
        }

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Shut down worker processes (no-op for in-process engines)."""
        self.engine.close()

    def __enter__(self) -> "Grid":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- submission ----------------------------------------------------------
    def submit(
        self,
        name: str,
        workload: Workload,
        *,
        user: str = "user",
        queue: str,
        memory_bytes: int = 1 * 1024**3,
        priority: int = 0,
    ) -> Job:
        """Queue a job.

        Raises:
            SimulationError: unknown queue, or a memory request over the
                queue's limit.
        """
        spec = self.queues.get(queue)
        if spec is None:
            raise SimulationError(
                f"unknown queue {queue!r} (have: {sorted(self.queues)})"
            )
        if memory_bytes > spec.memory_limit:
            raise SimulationError(
                f"job {name!r} wants {memory_bytes} bytes; queue {queue} "
                f"caps at {spec.memory_limit}"
            )
        job = Job(
            job_id=next(self._ids),
            name=name,
            user=user,
            workload=workload,
            queue=queue,
            memory_bytes=memory_bytes,
            submitted_at=self.now,
            priority=priority,
        )
        self._pending[queue].append(job)
        self._jobs.append(job)
        self._by_id[job.job_id] = job
        return job

    # -- admission -----------------------------------------------------------
    def _node_load(self, node_name: str) -> tuple[int, int]:
        """(running jobs, committed memory) on one node."""
        running = [
            j for j in self._jobs
            if j.node == node_name and j.state == "running"
        ]
        return len(running), sum(j.memory_bytes for j in running)

    def _eligible_node(self, job: Job) -> str | None:
        queue = self.queues[job.queue]
        best: tuple[float, str] | None = None
        for spec in self.specs:
            if queue.dedicated_only and spec.dedicated_queue != job.queue:
                continue
            if not queue.dedicated_only and spec.dedicated_queue is not None:
                continue
            running, committed = self._node_load(spec.name)
            if running >= spec.n_pus:
                continue  # the rule of thumb: jobs <= logical cores
            if committed + job.memory_bytes > spec.memory_bytes:
                continue  # keep memory below physical
            load = running / spec.n_pus
            if best is None or load < best[0]:
                best = (load, spec.name)
        return best[1] if best else None

    def _dispatch(self) -> None:
        order = sorted(
            self.queues.values(), key=lambda q: q.priority, reverse=True
        )
        for queue in order:
            pending = self._pending[queue.name]
            while pending:
                # Highest job priority first; FIFO by id within a level
                # (priority 0 everywhere = the classic in-order queue).
                job = min(pending, key=lambda j: (-j.priority, j.job_id))
                node_name = self._eligible_node(job)
                if node_name is None and queue.preempting:
                    node_name = self._preempt_for(job, queue)
                if node_name is None:
                    break  # jobs are spawned in order within each queue
                pending.remove(job)
                job.node = node_name
                job.started_at = self.now
                if self._legacy:
                    machine = self.nodes[node_name]
                    job.process = machine.spawn(
                        job.name, job.workload, user=job.user
                    )
                    job.pid = job.process.pid
                    if queue.max_wallclock != float("inf"):
                        self._arm_wallclock_kill(job, queue.max_wallclock)
                    continue
                limit = (
                    queue.max_wallclock
                    if queue.max_wallclock != float("inf")
                    else None
                )
                self._pending_cmds.append(
                    SpawnCmd(
                        job_id=job.job_id,
                        node=node_name,
                        command=job.name,
                        user=job.user,
                        workload=job.workload,
                        wallclock_limit=limit,
                    )
                )
                # Epoch-boundary inputs, known at dispatch: the shard arms
                # the kill at machine.now + limit — the same float
                # expression computed here — and a fresh job cannot exit
                # before its whole workload's penalty-CPI floor elapses.
                node_now = self._node_now[node_name]
                if limit is not None:
                    self._kill_due[job.job_id] = node_now + limit
                spec = self._spec_by_name[node_name]
                lb = workload_exit_lb(spec.arch, job.workload)
                if lb is not None:
                    self._exit_after[job.job_id] = node_now + lb

    def _preempt_for(self, job: Job, queue: QueueSpec) -> str | None:
        """Evict one strictly weaker running job to make room for ``job``.

        A victim qualifies only when ``(its queue priority, its job
        priority)`` is strictly below the contender's pair — strict
        ordering is what rules out preempt-back cycles: every eviction
        chain descends the priority lattice, so it terminates. Among
        qualifying victims the weakest goes first, ties broken by most
        recent dispatch then highest job id (evicting the youngest loses
        the least completed work). Returns the freed node, or None.
        """
        best: tuple[tuple, Job] | None = None
        for spec in self.specs:
            if queue.dedicated_only and spec.dedicated_queue != job.queue:
                continue
            if not queue.dedicated_only and spec.dedicated_queue is not None:
                continue
            _, committed = self._node_load(spec.name)
            for victim in self._jobs:
                if victim.node != spec.name or victim.state != "running":
                    continue
                vq = self.queues[victim.queue]
                if not (
                    (vq.priority, victim.priority)
                    < (queue.priority, job.priority)
                ):
                    continue
                if (
                    committed - victim.memory_bytes + job.memory_bytes
                    > spec.memory_bytes
                ):
                    continue
                key = (
                    vq.priority, victim.priority,
                    -victim.started_at, -victim.job_id,
                )
                if best is None or key < best[0]:
                    best = (key, victim)
        if best is None:
            return None
        victim = best[1]
        node_name = victim.node
        self._preempt(victim)
        return node_name

    def _preempt(self, victim: Job) -> None:
        """Kill a running job's process and requeue the job as pending."""
        victim.preemptions += 1
        self._counters["preemptions"] += 1
        if self._legacy:
            if victim.process is not None and victim.process.alive:
                self.nodes[victim.node].kill(  # type: ignore[index]
                    victim.process.pid
                )
        else:
            # Rides the same epoch command list as spawns, in list order:
            # the shard evicts before the boundary's new spawns apply.
            self._pending_cmds.append(PreemptCmd(victim.job_id, victim.node))
        victim.process = None
        victim.pid = None
        victim.node = None
        victim.started_at = None
        self._kill_due.pop(victim.job_id, None)
        self._exit_after.pop(victim.job_id, None)
        self._pending[victim.queue].append(victim)

    def _arm_wallclock_kill(self, job: Job, limit: float) -> None:
        machine = self.nodes[job.node]  # type: ignore[index]
        # Capture the process at arm time: a preempted job's restart gets
        # a NEW process (possibly on another node) that this stale timer
        # must never touch.
        proc = job.process

        def kill() -> None:
            if proc is not None and proc.alive:
                machine.kill(proc.pid)
                if job.process is proc:
                    job.killed = True

        machine.at(machine.now + limit, kill)

    # -- time ------------------------------------------------------------------
    def run_for(self, seconds: float) -> None:
        """Advance every node in lockstep, dispatching as slots free up."""
        if self._legacy:
            remaining = seconds
            while remaining > 1e-12:
                step = min(self.tick, remaining)
                self._dispatch()
                for machine in self.nodes.values():
                    machine.run_for(step)
                self.now += step
                remaining -= step
                self._reap()
            self._dispatch()
            return

        # Same step ladder as the legacy loop: whole ticks by repeated
        # subtraction, then at most one fractional step.
        self._sync_node_now()
        remaining = seconds
        n_ticks = 0
        while remaining > 1e-12 and remaining >= self.tick:
            n_ticks += 1
            remaining -= self.tick
        frac = remaining if remaining > 1e-12 else 0.0
        while n_ticks > 0:
            self._dispatch()
            n = self._epoch_ticks(n_ticks)
            self._run_epoch(n, 0.0)
            n_ticks -= n
        if frac > 0.0:
            self._dispatch()
            self._run_epoch(0, frac)
        self._dispatch()
        if self._pending_cmds:
            # The trailing dispatch spawns immediately under the legacy
            # engine; flush with a zero-length epoch so end-of-run node
            # state is identical across engines.
            self._run_epoch(0, 0.0)

    def _sync_node_now(self) -> None:
        """Refresh machine clocks from in-process nodes (a tiptop attached
        via ``node()`` may have advanced one between runs)."""
        for name, machine in self.engine.nodes.items():
            self._node_now[name] = machine.now

    def _epoch_ticks(self, remaining: int) -> int:
        """Whole ticks the fleet may advance before the dispatcher could
        possibly have work.

        With an empty backlog, dispatch can have nothing to do until the
        run ends. Otherwise a slot can only free when a running job dies —
        at its wallclock-kill boundary (known exactly) or its natural exit
        (bounded below by the model's penalty-CPI floor) — so the epoch
        runs to the earliest such boundary. Over-conservative is harmless
        (the boundary dispatch is a no-op); the bound never overshoots.
        """
        if not any(self._pending.values()):
            return remaining
        bound = remaining
        for job in self._jobs:
            if job.state != "running":
                continue
            node_now = self._node_now[job.node]  # type: ignore[index]
            for due in (
                self._kill_due.get(job.job_id),
                self._exit_after.get(job.job_id),
            ):
                if due is None:
                    continue
                ticks = math.ceil((due - node_now) / self.tick - 1e-9)
                bound = min(bound, max(1, ticks))
        return max(1, min(bound, remaining))

    def _run_epoch(self, n_ticks: int, frac: float) -> None:
        """One engine round-trip: ship queued spawns, advance every shard
        by ``n_ticks`` whole ticks (plus ``frac``), merge the reports."""
        commands, self._pending_cmds = self._pending_cmds, []
        msgs_before = getattr(self.engine, "messages", 0)
        sent_before = getattr(self.engine, "bytes_sent", 0)
        recv_before = getattr(self.engine, "bytes_received", 0)
        reports = self.engine.advance(commands, n_ticks, frac)
        # The grid clock advances by the same repeated-addition ladder as
        # the legacy loop; boundary values are kept so finish times can be
        # backfilled bitwise-identically to the per-tick reaper.
        boundaries: list[float] = []
        for _ in range(n_ticks):
            self.now += self.tick
            boundaries.append(self.now)
        if frac > 1e-12:
            self.now += frac

        start_now: dict[str, float] = {}
        deaths: dict[int, float] = {}
        killed: set[int] = set()
        shard_walls: list[float] = []
        hits = misses = 0
        for rep in reports:
            start_now.update(rep["start_now"])
            self._node_now.update(rep["end_now"])
            for job_id, pid in rep["spawned"].items():
                job = self._by_id[job_id]
                job.pid = pid
                proc = self.engine.process_of(job_id)
                if proc is not None:
                    job.process = proc
            killed.update(rep["killed"])
            deaths.update(rep["deaths"])
            self._exit_after.update(rep["bounds"])
            shard_walls.append(rep["wall"])
            hits += rep["cache_hits"]
            misses += rep["cache_misses"]
        for job_id in killed:
            self._by_id[job_id].killed = True
        for job_id, observed in deaths.items():
            job = self._by_id[job_id]
            # The machine stamped the first tick boundary at which the
            # death was observable; map it onto the grid's boundary ladder
            # (the k-th boundary of this epoch) to land on the exact float
            # the per-tick reaper would have written.
            k = round((observed - start_now[job.node]) / self.tick)
            if 1 <= k <= n_ticks:
                job.finished_at = boundaries[k - 1]
            elif n_ticks >= 1 and k < 1:
                job.finished_at = boundaries[0]
            else:
                job.finished_at = self.now
            self._kill_due.pop(job_id, None)
            self._exit_after.pop(job_id, None)

        msgs = getattr(self.engine, "messages", 0) - msgs_before
        sent = getattr(self.engine, "bytes_sent", 0)
        recv = getattr(self.engine, "bytes_received", 0)
        counters = self._counters
        counters["epochs"] += 1
        counters["ticks"] += n_ticks
        counters["messages"] += msgs
        counters["shard_wall"] += sum(shard_walls)
        counters["rate_cache_hits"] = hits
        counters["rate_cache_misses"] = misses
        counters["bytes_sent"] = sent
        counters["bytes_received"] = recv
        if self.profile:
            walls = ",".join(f"{w * 1000:.2f}" for w in shard_walls)
            extra = ""
            if self.engine.name == "supervised":
                stats = self.stats
                extra = (
                    f" restarts={stats['restarts']}"
                    f" replayed={stats['replayed_epochs']}"
                    f" adopted={stats['adopted_shards']}"
                    f" degraded={int(stats['degraded'])}"
                )
            print(
                f"grid-profile: epoch={counters['epochs']}"
                f" ticks={n_ticks} frac={frac:g} spawns={len(commands)}"
                f" deaths={len(deaths)} wall_ms=[{walls}] msgs={msgs}"
                f" bytes={sent - sent_before}/{recv - recv_before}"
                f" rate_cache={hits}/{misses}" + extra,
                file=sys.stderr,
            )

    def _reap(self) -> None:
        for job in self._jobs:
            if (
                job.process is not None
                and job.finished_at is None
                and not job.process.alive
            ):
                job.finished_at = self.now

    # -- introspection -----------------------------------------------------------
    @property
    def stats(self) -> dict[str, Any]:
        """The grid's own counters, plus the supervised engine's recovery
        counts read off its event log (restarts, replayed epochs, adopted
        shards, worker failures, degraded) at this moment."""
        out = dict(self._counters)
        if self.engine.name == "supervised":
            counts = self.engine.stats
            out.update(
                restarts=counts["restarts"],
                replayed_epochs=counts["replayed_epochs"],
                adopted_shards=counts["adopted_shards"],
                worker_failures=sum(counts["failures"].values()),
                degraded=counts["degraded"],
            )
        return out

    @property
    def nodes(self) -> dict[str, SimMachine]:
        """In-process machines by name (empty under the supervised
        engines)."""
        return self.engine.nodes

    def node(self, name: str) -> SimMachine:
        """A node's machine (attach tiptop via ``SimHost``).

        Raises:
            SimulationError: unknown node, or a supervised grid
                (machines live in worker processes; use ``workers=1`` to
                attach).
        """
        if name not in self._spec_by_name:
            raise SimulationError(f"no node {name!r}")
        machine = self.engine.nodes.get(name)
        if machine is None:
            raise SimulationError(
                f"node {name!r} lives in a worker process under the "
                f"{self.engine.name} engine; build the grid with "
                "workers=1 to attach"
            )
        return machine

    def snapshot(self, name: str) -> dict[str, Any]:
        """Exact observable state of one node (works on every engine —
        the supervised engine fetches it from the owning worker)."""
        if name not in self._spec_by_name:
            raise SimulationError(f"no node {name!r}")
        return self.engine.snapshot(name)

    def conformance_digest(self) -> dict[str, Any]:
        """Every cross-engine observable of the whole grid, exactly.

        The engines-agree oracle demands this value be identical across
        every engine and shard transport for one scenario: job lifecycles
        with their exact dispatch/finish floats, every node's full
        snapshot (clocks, processes, counter tables), and the
        utilisation map.
        """
        # One batched snapshot round-trip (one message per worker), then
        # re-keyed into spec order so serialisations compare bytewise.
        snaps = self.engine.snapshot_many([spec.name for spec in self.specs])
        return {
            "now": self.now,
            "jobs": [
                {
                    "job_id": j.job_id,
                    "name": j.name,
                    "user": j.user,
                    "queue": j.queue,
                    "memory_bytes": j.memory_bytes,
                    "submitted_at": j.submitted_at,
                    "node": j.node,
                    "pid": j.pid,
                    "state": j.state,
                    "started_at": j.started_at,
                    "finished_at": j.finished_at,
                    "killed": j.killed,
                    "priority": j.priority,
                    "preemptions": j.preemptions,
                }
                for j in self._jobs
            ],
            "nodes": {spec.name: snaps[spec.name] for spec in self.specs},
            "utilisation": self.utilisation(),
        }

    @property
    def supervisor_events(self) -> list[dict[str, Any]]:
        """The supervised engine's deterministic recovery log (empty for
        the other engines): failures observed, restarts with replay
        depth, adoptions, and the degrade transition, in order."""
        return list(getattr(self.engine, "events", []))

    def jobs(self, state: str | None = None) -> list[Job]:
        """All jobs, optionally filtered by state."""
        if state is None:
            return list(self._jobs)
        return [j for j in self._jobs if j.state == state]

    def utilisation(self) -> dict[str, float]:
        """Running jobs / logical cores per node."""
        out = {}
        for spec in self.specs:
            running, _ = self._node_load(spec.name)
            out[spec.name] = running / spec.n_pus
        return out


def default_fleet(n_standard: int = 4, n_dedicated: int = 1) -> list[NodeSpec]:
    """A small mixed fleet in the paper's spirit: quad- and dual-core
    bi-Xeons, plus node(s) dedicated to the eternal queues."""
    from repro.sim.arch import NEHALEM

    fleet: list[NodeSpec] = []
    for i in range(n_standard):
        if i % 2 == 0:
            fleet.append(NodeSpec(name=f"node{i:02d}"))
        else:
            fleet.append(
                NodeSpec(
                    name=f"node{i:02d}",
                    arch=NEHALEM,
                    sockets=2,
                    cores_per_socket=2,
                    memory_bytes=16 * 1024**3,
                )
            )
    for i in range(n_dedicated):
        fleet.append(
            NodeSpec(
                name=f"longnode{i:02d}",
                dedicated_queue="eternal-8g-overnight",
                memory_bytes=48 * 1024**3,
            )
        )
    return fleet
