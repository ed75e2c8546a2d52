"""Execute one :class:`~repro.verify.scenario.Scenario` every way that
the oracles compare.

A **tool** scenario runs the sampler against one simulated node four
times, each run rebuilding machine, backend and fault plan from the
scenario alone (no state crosses runs):

* ``base``   — the production advance (``run_for`` on the columnar
  kernel), batched counter reads.
* ``reference`` — the clock driven by the scalar tick of
  :mod:`repro.verify.reference`; must be bitwise equal.
* ``sequential`` — per-handle reads (the backend shows only its
  per-handle methods); must agree with the batched read path.
* ``replay`` — a second base run; must be byte-identical (determinism).

A **grid** scenario runs the dispatcher once per engine in
``scenario.engines`` plus one replay — of the chaotic supervised run
when the scenario injects worker faults, of the first engine otherwise —
capturing :meth:`~repro.sim.grid.Grid.conformance_digest` and the
supervision observables (recovery event log, supervisor stats, worker
leak count) from each.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.core.columns import HEALTH_COLUMN
from repro.core.frame import SnapshotFrame
from repro.core.options import Options
from repro.core.recorder import Recorder
from repro.core.sampler import Sampler
from repro.core.screen import get_screen
from repro.perf.simbackend import SimBackend
from repro.procfs.simproc import SimProcReader
from repro.sim.arch import get_arch
from repro.sim.events import Event
from repro.sim.grid import Grid, NodeSpec, QueueSpec
from repro.sim.machine import SimMachine
from repro.sim.parallel import node_snapshot
from repro.sim.supervisor import Supervision, recovery_counts
from repro.sim.workloads.synthetic import SyntheticSpec, build
from repro.verify import reference
from repro.verify.scenario import GiB, JobPlan, Scenario, TaskPlan


#: The per-handle Backend protocol, all a sequential run may see.
_PER_HANDLE = frozenset({"open", "read", "enable", "disable", "reset", "close"})


class _SequentialBackend:
    """Backend proxy showing only the per-handle protocol.

    Every batched read method, present or future, stays hidden, so each
    counter is read with its own ``read`` call.
    """

    def __init__(self, inner: SimBackend) -> None:
        self._inner = inner

    def __getattr__(self, name: str) -> Any:
        if name not in _PER_HANDLE:
            raise AttributeError(name)
        return getattr(self._inner, name)


@dataclass
class ToolRun:
    """Everything one tool run exposes to the oracles."""

    csv: str
    frames: list[SnapshotFrame]
    health: list[dict[int, str]]
    snapshot: dict[str, Any]
    kernel: list[dict]
    n_events: int
    pmu_width: int
    n_pus: int
    total_threads: int
    opened_total: int
    closed_total: int
    leaked_handles: int
    leaked_counters: int
    read_retries: int
    read_skips: int
    kernel_stats: dict[str, int]

    @property
    def multiplexed(self) -> bool:
        """Whether the PMU was too narrow for the screen's event set."""
        return self.n_events > self.pmu_width


@dataclass
class Execution:
    """One scenario, executed every way the oracles compare."""

    scenario: Scenario
    base: ToolRun | None = None
    reference: ToolRun | None = None
    sequential: ToolRun | None = None
    replay: ToolRun | None = None
    #: Serve run (tool scenarios with ``serve=True``): per-subscriber
    #: reassembled-stream digests plus exact fanout accounting.
    served: dict[str, Any] | None = None
    grid: dict[str, dict[str, Any]] = field(default_factory=dict)
    grid_replay: dict[str, Any] | None = None
    #: Per-engine supervision observables: the deterministic recovery
    #: event log, supervisor stats, and worker-process leak count.
    grid_meta: dict[str, dict[str, Any]] = field(default_factory=dict)
    grid_replay_meta: dict[str, Any] | None = None
    #: Which engine the grid replay re-ran (the chaotic supervised run
    #: when there is one, so recovery itself is proven deterministic).
    grid_replay_engine: str | None = None


# -- tool runs ----------------------------------------------------------------

def _build_machine(scenario: Scenario) -> SimMachine:
    arch = get_arch(scenario.arch)
    if scenario.pmu_width is not None:
        arch = replace(arch, pmu_width=scenario.pmu_width)
    return SimMachine(
        arch,
        sockets=scenario.sockets,
        cores_per_socket=scenario.cores_per_socket,
        tick=scenario.tick,
        seed=scenario.seed,
    )


def _workload(plan: TaskPlan | JobPlan, arch, seed: int):
    spec = SyntheticSpec(
        name=plan.name,
        archetype=plan.archetype,
        target_ipc=plan.target_ipc,
        duration=plan.duration,
        duty_cycle=getattr(plan, "duty_cycle", 1.0),
        nthreads=getattr(plan, "nthreads", 1),
    )
    return build(spec, arch, seed=seed)


def _plan_spawns(scenario: Scenario, machine: SimMachine) -> dict[str, int]:
    """Spawn/arm every task; return the predicted pid of each task.

    Pids are deterministic: the machine hands them out in spawn order and
    each spawn consumes ``nthreads`` ids, so kill timers for tasks that
    spawn later can be armed up front against the predicted pid — exactly
    like a churn script that knows its own arrival order.
    """
    base_arch = get_arch(scenario.arch)
    immediate = [t for t in scenario.tasks if t.spawn_at <= 0.0]
    deferred = sorted(
        (t for t in scenario.tasks if t.spawn_at > 0.0),
        key=lambda t: (t.spawn_at, scenario.tasks.index(t)),
    )
    pids: dict[str, int] = {}
    next_pid = 1000
    for task in immediate + deferred:
        pids[task.name] = next_pid
        next_pid += task.nthreads
    for task in immediate:
        machine.spawn(
            task.name,
            _workload(task, base_arch, scenario.seed),
            user=task.name,
            uid=task.uid,
            nthreads=task.nthreads,
            duty_cycle=task.duty_cycle,
        )
    for task in deferred:
        machine.spawn_at(
            task.spawn_at,
            task.name,
            _workload(task, base_arch, scenario.seed),
            user=task.name,
            uid=task.uid,
            nthreads=task.nthreads,
            duty_cycle=task.duty_cycle,
        )
    for task in scenario.tasks:
        if task.kill_at is not None:
            machine.kill_at(task.kill_at, pids[task.name])
    return pids


def _sampler_for(
    scenario: Scenario, *, sequential: bool = False
) -> tuple[SimMachine, SimBackend, Sampler]:
    """The scenario's node, its backend and a sampler watching it.

    Machine, spawns, kernel fault plan, backend, /proc reader, screen
    (HEALTH added under kernel faults) and options all come from the
    scenario alone, so every tool and served run starts from the same
    state. ``sequential`` shows the sampler only the backend's
    per-handle methods.
    """
    machine = _build_machine(scenario)
    _plan_spawns(scenario, machine)
    plan = scenario.fault_plan("kernel")
    backend = SimBackend(machine, scenario.monitor_uid, faults=plan)
    screen = get_screen(scenario.screen)
    if plan is not None:
        screen = screen.with_health()
    options = Options(
        delay=scenario.delay,
        iterations=scenario.iterations,
        per_thread=scenario.per_thread,
    )
    sampler = Sampler(
        _SequentialBackend(backend) if sequential else backend,
        SimProcReader(machine),
        screen,
        options,
    )
    return machine, backend, sampler


def run_tool(
    scenario: Scenario,
    *,
    advance: str = "kernel",
    sequential: bool = False,
) -> ToolRun:
    """One full sampling run of a tool scenario (see module docstring).

    Args:
        advance: "kernel" moves the clock with ``run_for``, as the
            monitor's host does; "scalar" with the reference's
            :func:`~repro.verify.reference.run_for`.
        sequential: show the sampler only the backend's per-handle
            methods, so every counter is read with its own ``read``.
    """
    machine, backend, sampler = _sampler_for(scenario, sequential=sequential)
    recorder = Recorder()
    frames: list[SnapshotFrame] = []
    health: list[dict[int, str]] = []
    sampler.sample_frame()  # baseline: attach, zero-length interval
    for _ in range(scenario.iterations):
        if advance == "scalar":
            reference.run_for(machine, scenario.delay)
        else:
            machine.run_for(scenario.delay)
        frame = sampler.sample_frame()
        frames.append(frame)
        recorder.record_frame(frame)
        labels = frame.labels.get(HEALTH_COLUMN.header, ())
        health.append(dict(zip(frame.tids.tolist(), labels)))
    kernel = backend.live_handles()
    snapshot = node_snapshot(machine)
    sampler.close()
    return ToolRun(
        csv=recorder.to_csv(),
        frames=frames,
        health=health,
        snapshot=snapshot,
        kernel=kernel,
        n_events=len(sampler.screen.required_events()),
        pmu_width=machine.arch.pmu_width,
        n_pus=len(machine.topology.pus),
        total_threads=sum(t.nthreads for t in scenario.tasks),
        opened_total=backend.opened_total,
        closed_total=backend.closed_total,
        leaked_handles=backend.open_handle_count(),
        leaked_counters=machine.counters.open_count(),
        read_retries=sampler.read_retries,
        read_skips=sampler.read_skips,
        kernel_stats=machine.kernel_stats(),
    )


def run_served(scenario: Scenario) -> dict[str, Any]:
    """Serve one tool scenario over localhost TCP to three subscribers.

    The daemon's sampler is built from the scenario by the helper
    :func:`run_tool` uses, and the daemon replicates its cadence (baseline
    sample, then ``run_for(delay)`` + sample per iteration), so an
    unfiltered subscriber's reassembled stream must be bitwise-equal to a
    solo run's frames — that comparison is the ``served-stream`` oracle's
    job. Subscribers: one total, one row-filtered to the scenario's first
    task, one with a server-side derived column over the screen's first
    event.

    When the scenario configures net chaos, the daemon runs under the
    seeded link-cut schedule and every subscriber auto-reconnects with
    resume-by-seq — the bitwise bar against the solo run is unchanged;
    only the path to it now crosses severed connections.

    Returns one dict per client: its subscription (as JSON data), the
    canonical digest of every received frame, the sequence numbers, the
    client's gap count, reconnect count, and the daemon's BYE
    accounting; plus the daemon's cut count under ``net_cuts``.
    """
    import asyncio

    from repro.core.expr import canonical_name
    from repro.serve.client import collect
    from repro.serve.daemon import CollectorDaemon
    from repro.serve.protocol import frame_digest
    from repro.serve.session import Subscription
    from repro.util.backoff import BackoffPolicy

    machine, _, sampler = _sampler_for(scenario)
    subs: dict[str, Any] = {"total": Subscription()}
    if scenario.tasks:
        subs["filtered"] = Subscription(
            comms=frozenset({scenario.tasks[0].name})
        )
    events = sampler.screen.required_events()
    if events:
        subs["derived"] = Subscription(
            exprs=(
                ("X_SERVE", f"{canonical_name(events[0].name)} / delta_t"),
            )
        )
    netchaos = scenario.fault_plan("link")
    daemon = CollectorDaemon(
        sampler,
        advance=lambda: machine.run_for(scenario.delay),
        iterations=scenario.iterations,
        min_clients=len(subs),
        netchaos=netchaos,
    )
    # Under link cuts the clients must survive and resume; without them
    # the old die-on-cut shape keeps the daemon honest about BYEs.
    reconnect = netchaos is not None
    ladder = BackoffPolicy(base=0.0)  # in-process: nothing to wait out

    async def go() -> list:
        port = await daemon.start()
        results, _ = await asyncio.gather(
            asyncio.gather(
                *(
                    collect(
                        "127.0.0.1",
                        port,
                        client_id=name,
                        subscription=sub,
                        reconnect=reconnect,
                        backoff=ladder,
                        max_reconnects=64,
                    )
                    for name, sub in subs.items()
                )
            ),
            daemon.run(),
        )
        await daemon.close()
        return results

    results = asyncio.run(go())
    clients: dict[str, Any] = {}
    for (name, sub), (received, client) in zip(subs.items(), results):
        clients[name] = {
            "subscription": sub.to_dict(),
            "digests": [frame_digest(frame) for _, frame in received],
            "seqs": [seq for seq, _ in received],
            "gaps": client.gaps,
            "reconnects": client.reconnects,
            "stats": (client.bye or {}).get("stats"),
        }
    return {
        "clients": clients,
        "hub": daemon.hub.stats(),
        "net_cuts": daemon.net_cuts,
    }


#: Events the bare-machine equivalence oracle opens on every immediate
#: task: enough to exercise the counter columns without assuming anything
#: about the scenario's screen.
MACHINE_ORACLE_EVENTS = (Event.INSTRUCTIONS, Event.CYCLES, Event.CACHE_MISSES)


def run_machine(scenario: Scenario, *, advance: str = "scalar") -> dict[str, Any]:
    """One bare-machine run of a tool scenario: no sampler, no faults.

    Spawns the scenario's tasks (timers, kills and duty cycles included),
    opens :data:`MACHINE_ORACLE_EVENTS` on each immediately-spawned task,
    advances the clock in the scenario's delay cadence through either the
    scalar reference (``advance="scalar"``) or the columnar ``run_ticks``
    kernel (``advance="kernel"``), and returns the full node snapshot —
    the scalar-vs-columnar oracle's raw material, deeper than the tool
    runs because nothing in the sampler stack can mask a scheduler-state
    divergence.
    """
    machine = _build_machine(scenario)
    pids = _plan_spawns(scenario, machine)
    for task in scenario.tasks:
        if task.spawn_at <= 0.0:
            for event in MACHINE_ORACLE_EVENTS:
                machine.counters.open(event, pids[task.name], 0)
    ticks_per_delay = round(scenario.delay / scenario.tick)
    for _ in range(scenario.iterations):
        if advance == "scalar":
            reference.run_ticks(machine, ticks_per_delay)
        else:
            machine.run_ticks(ticks_per_delay)
    return node_snapshot(machine)


# -- grid runs ----------------------------------------------------------------

def run_grid(
    scenario: Scenario, engine: str, transport: str | None = None
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Drive one grid scenario through ``engine``.

    Returns ``(digest, meta)``: the grid's conformance digest plus the
    supervision observables of the run — the deterministic recovery
    event log, supervisor stats, and how many worker processes were
    still alive after ``close()`` (leak freedom). Chaos, when the
    scenario configures it, is applied to the supervised engine only;
    every other engine runs clean and serves as the recovery reference.
    ``transport`` pins the shard transport for the transport-invariance
    sweep, whose supervised runs are clean too.
    """
    arch = get_arch(scenario.arch)
    specs = [
        NodeSpec(
            name=f"n{i:02d}",
            arch=arch,
            sockets=scenario.sockets,
            cores_per_socket=scenario.cores_per_socket,
            memory_bytes=16 * GiB,
        )
        for i in range(scenario.n_nodes)
    ]
    queues = [
        QueueSpec(
            name=q.name,
            max_wallclock=q.max_wallclock,
            memory_limit=q.memory_limit,
            priority=q.priority,
            preempting=q.preempting,
        )
        for q in scenario.queues
    ]
    ordered = sorted(
        scenario.jobs, key=lambda j: (j.submit_at, scenario.jobs.index(j))
    )
    chaos = supervision = None
    if engine == "supervised" and transport is None:
        chaos = scenario.fault_plan("worker")
        # No backoff sleep: recovery wall time stays bounded in fuzz
        # runs, and determinism never depends on sleeping anyway.
        supervision = Supervision(
            deadline=scenario.epoch_deadline,
            restart_budget=scenario.restart_budget,
            backoff_base=0.0,
        )
    grid = Grid(
        specs,
        queues,
        tick=scenario.tick,
        seed=scenario.seed,
        workers=scenario.workers,
        engine=engine,
        grid_chaos=chaos,
        supervision=supervision,
        transport=transport,
    )
    try:
        for job in ordered:
            if job.submit_at > grid.now + 1e-12:
                grid.run_for(job.submit_at - grid.now)
            grid.submit(
                job.name,
                _workload(job, arch, scenario.seed),
                user="verify",
                queue=job.queue,
                memory_bytes=job.memory_bytes,
                priority=job.priority,
            )
        if scenario.span > grid.now + 1e-12:
            grid.run_for(scenario.span - grid.now)
        digest = grid.conformance_digest()
    finally:
        procs = list(getattr(grid.engine, "_procs", []))
        grid.close()
    events = grid.supervisor_events
    meta = {
        "engine": engine,
        "events": events,
        "stats": recovery_counts(events),
        "leaked_workers": sum(1 for p in procs if p.is_alive()),
    }
    return digest, meta


# -- the full execution -------------------------------------------------------

def execute(scenario: Scenario) -> Execution:
    """Run ``scenario`` through every implementation pair the oracles
    compare (four tool runs, or one grid run per engine plus a replay)."""
    ex = Execution(scenario=scenario)
    if scenario.kind == "tool":
        ex.base = run_tool(scenario)
        ex.reference = run_tool(scenario, advance="scalar")
        ex.sequential = run_tool(scenario, sequential=True)
        ex.replay = run_tool(scenario)
        if scenario.serve:
            ex.served = run_served(scenario)
    else:
        for engine in scenario.engines:
            ex.grid[engine], ex.grid_meta[engine] = run_grid(scenario, engine)
        # Transport-invariance sweep: the supervised engine re-runs clean
        # once per listed transport; the keys join the engines-agree
        # comparison.
        for t in scenario.transports:
            key = f"supervised+{t}"
            ex.grid[key], ex.grid_meta[key] = run_grid(
                scenario, "supervised", transport=t
            )
        # Replay the chaotic supervised run when there is one: recovery
        # (not just clean execution) must be byte-deterministic.
        replay_engine = scenario.engines[0]
        if scenario.grid_chaotic and "supervised" in scenario.engines:
            replay_engine = "supervised"
        ex.grid_replay_engine = replay_engine
        ex.grid_replay, ex.grid_replay_meta = run_grid(scenario, replay_engine)
    return ex
