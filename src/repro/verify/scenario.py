"""Declarative conformance scenarios and their seeded generator.

A :class:`Scenario` is the *complete* input of one conformance run: the
node (or fleet) shape, the workload population with its spawn/kill churn,
the fault plans (their explicit faults are the plans' own specs), the
tool options, and — for grid scenarios — the queue layout and engine
set. Everything downstream (:mod:`repro.verify.runner`, the oracles,
the shrinker) is a pure function of this one value, which is what
makes a failing case replayable from its JSON form alone.

Determinism rules baked into the generator:

* Clock floats are binary-friendly: ticks come from {0.125, 0.25, 0.5}
  (or {0.5, 1.0} for grids), refresh delays and every timed event
  (spawn_at / kill_at / submit_at) are exact integer multiples of the
  tick. The kernel's ``run_for`` and the scalar reference then walk
  identical float ladders, so the advance-equivalence oracle can demand
  *bitwise* equality.
* Workloads are described by (archetype, target_ipc, duration) and
  materialised via :mod:`repro.sim.workloads.synthetic` with the scenario
  seed — two runs of one scenario build identical phase objects.
* The generator draws from one ``numpy`` Generator seeded by the scenario
  seed only; ``generate(seed)`` twice returns equal scenarios.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields, replace
from typing import Any

import numpy as np

from repro.errors import ConfigError
from repro.perf.faults import FaultPlan, FaultSpec, default_specs
from repro.sim.netchaos import NetChaosPlan, NetFaultSpec, default_net_specs
from repro.sim.parallel import ENGINE_NAMES, TRANSPORT_NAMES
from repro.sim.supervisor import GridFaultPlan, GridFaultSpec, default_grid_specs
from repro.sim.workloads.synthetic import ARCHETYPES, _ipc_range

#: Schema tag written into serialised scenarios and artifacts.
SCHEMA_VERSION = 1

#: Binary-exact ticks: sums and integer multiples stay exact in floats,
#: which the bitwise advance-equivalence oracle depends on.
TOOL_TICKS = (0.125, 0.25, 0.5)
GRID_TICKS = (0.5, 1.0)

GiB = 1024**3

#: Per fault layer: its plan, its stock mix, and the scenario fields
#: holding its seed, intensity and explicit specs.
_FAULT_LAYERS = {
    "kernel": (FaultPlan, default_specs, "chaos_seed", "chaos_intensity",
               "faults"),
    "worker": (GridFaultPlan, default_grid_specs, "grid_chaos_seed",
               "grid_chaos_intensity", "grid_faults"),
    "link": (NetChaosPlan, default_net_specs, "net_chaos_seed",
             "net_chaos_intensity", "net_faults"),
}


@dataclass(frozen=True)
class TaskPlan:
    """One monitored process of a tool scenario.

    Attributes:
        name: command name (also seeds the workload materialisation).
        archetype: one of :data:`~repro.sim.workloads.synthetic.ARCHETYPES`.
        target_ipc: calibration target for the workload.
        duration: solo seconds of work (inf = a service that never exits).
        nthreads: thread count (threads share the workload).
        duty_cycle: fraction of ticks the threads want the CPU.
        uid: owner uid (None = derived from the user name, as the
            machine does).
        spawn_at: virtual time of the spawn (0 = before monitoring
            starts); a tick multiple.
        kill_at: virtual time of an external kill (None = none); a tick
            multiple strictly after ``spawn_at``.
    """

    name: str
    archetype: str
    target_ipc: float
    duration: float
    nthreads: int = 1
    duty_cycle: float = 1.0
    uid: int | None = None
    spawn_at: float = 0.0
    kill_at: float | None = None

    def __post_init__(self) -> None:
        if self.archetype not in ARCHETYPES:
            raise ConfigError(f"unknown archetype {self.archetype!r}")
        if self.kill_at is not None and self.kill_at <= self.spawn_at:
            raise ConfigError(
                f"task {self.name!r}: kill_at {self.kill_at} must be "
                f"after spawn_at {self.spawn_at}"
            )


@dataclass(frozen=True)
class QueuePlan:
    """One grid queue (subset of :class:`~repro.sim.grid.QueueSpec`)."""

    name: str
    max_wallclock: float
    memory_limit: int
    priority: int = 0
    preempting: bool = False


@dataclass(frozen=True)
class JobPlan:
    """One submitted grid job."""

    name: str
    archetype: str
    target_ipc: float
    duration: float
    queue: str
    submit_at: float = 0.0
    memory_bytes: int = 1 * GiB
    priority: int = 0

    def __post_init__(self) -> None:
        if self.archetype not in ARCHETYPES:
            raise ConfigError(f"unknown archetype {self.archetype!r}")


@dataclass(frozen=True)
class Scenario:
    """One whole-system conformance case (see the module docstring).

    ``kind`` selects the shape: a ``"tool"`` scenario monitors one node
    with the sampler through several differential runs; a ``"grid"``
    scenario drives the §3.4 dispatcher over every engine in
    ``engines``. Fields of the other kind are ignored.
    """

    kind: str
    seed: int
    arch: str = "nehalem"
    sockets: int = 1
    cores_per_socket: int = 2
    pmu_width: int | None = None
    tick: float = 0.25
    delay: float = 1.0
    iterations: int = 3
    screen: str = "default"
    per_thread: bool = False
    monitor_uid: int = 0
    chaos_seed: int | None = None
    chaos_intensity: float = 1.0
    faults: tuple[FaultSpec, ...] = ()
    tasks: tuple[TaskPlan, ...] = ()
    #: Tool-only: additionally run the scenario through the serve daemon
    #: (collector + subscribers over localhost TCP) so the served-stream
    #: oracle can demand bitwise agreement with the solo run.
    serve: bool = False
    # grid-only fields
    n_nodes: int = 2
    workers: int = 2
    engines: tuple[str, ...] = ("legacy", "serial")
    span: float = 16.0
    queues: tuple[QueuePlan, ...] = ()
    jobs: tuple[JobPlan, ...] = ()
    # grid worker chaos (applies to the "supervised" engine run only)
    grid_chaos_seed: int | None = None
    grid_chaos_intensity: float = 1.0
    grid_faults: tuple[GridFaultSpec, ...] = ()
    epoch_deadline: float = 2.0
    restart_budget: int = 8
    #: Extra shard-transport sweep: each listed transport re-runs the
    #: supervised engine clean through Grid(transport=...) and its digest
    #: joins the engines-agree comparison (the transport-invariance
    #: oracle).
    transports: tuple[str, ...] = ()
    #: Link chaos (tool scenarios with ``serve`` only): the daemon's
    #: client links are cut mid-stream on a seeded NetChaosPlan and
    #: every subscriber auto-reconnects.
    net_chaos_seed: int | None = None
    net_chaos_intensity: float = 1.0
    net_faults: tuple[NetFaultSpec, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("tool", "grid"):
            raise ConfigError(f"unknown scenario kind {self.kind!r}")
        if self.tick <= 0:
            raise ConfigError(f"tick must be positive, got {self.tick}")
        k = self.delay / self.tick
        if self.kind == "tool" and abs(k - round(k)) > 1e-9:
            raise ConfigError(
                f"delay {self.delay} must be a whole multiple of "
                f"tick {self.tick}"
            )
        for names, known, what in (
            (self.engines, ENGINE_NAMES, "grid engine"),
            (self.transports, TRANSPORT_NAMES, "shard transport"),
        ):
            for name in names:
                if name not in known:
                    raise ConfigError(
                        f"unknown {what} {name!r} "
                        f"(have: {', '.join(known)})"
                    )
        if self.net_chaotic and not (self.kind == "tool" and self.serve):
            # Only the serve daemon's sockets can be cut; elsewhere the
            # schedule would run nothing and its oracles pass vacuously.
            raise ConfigError(
                "net chaos cuts the serve daemon's client links and needs "
                "a served tool scenario (serve=True)"
            )
        # Overlapping rates fail here, on load, not mid-run.
        for layer in _FAULT_LAYERS:
            self.fault_plan(layer)

    def fault_plan(self, layer: str) -> Any:
        """A fresh fault plan for ``layer`` ("kernel", "worker" or
        "link"): the stock mix at the layer's intensity when its seed is
        named, then its explicit specs, seeded by that seed or else by
        the scenario's own; None when both are empty."""
        plan, stock, seed, intensity, specs = _FAULT_LAYERS[layer]
        seed, specs = getattr(self, seed), getattr(self, specs)
        if seed is not None:
            specs = (*stock(getattr(self, intensity)), *specs)
        if not specs:
            return None
        return plan(self.seed if seed is None else seed, specs)

    @property
    def chaotic(self) -> bool:
        """Whether any kernel-level fault injection is configured."""
        return self.chaos_seed is not None or bool(self.faults)

    @property
    def grid_chaotic(self) -> bool:
        """Whether grid-worker fault injection is configured (executed
        by the supervised engine's workers only)."""
        return self.grid_chaos_seed is not None or bool(self.grid_faults)

    @property
    def net_chaotic(self) -> bool:
        """Whether link cuts are configured on the serve daemon's client
        links."""
        return self.net_chaos_seed is not None or bool(self.net_faults)

    # -- serialisation ------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-data form (JSON-ready; inf survives via ``Infinity``)."""
        d = asdict(self)
        d["schema"] = SCHEMA_VERSION
        # Net-chaos fields appeared after the corpus was cut; at their
        # defaults they are omitted so pre-netchaos scenario files and
        # digests stay byte-stable.
        if (
            self.net_chaos_seed is None
            and not self.net_faults
            and self.net_chaos_intensity == 1.0
        ):
            del d["net_chaos_seed"]
            del d["net_chaos_intensity"]
            del d["net_faults"]
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """Inverse of :meth:`to_dict` (round-trips exactly).

        Raises:
            ConfigError: an unknown schema, or a key no field takes at any
                level (a misspelt key would load as its default).
        """
        d = dict(data)
        schema = d.pop("schema", SCHEMA_VERSION)
        if schema != SCHEMA_VERSION:
            raise ConfigError(f"unknown scenario schema {schema!r}")
        for key, entry in (
            ("tasks", TaskPlan), ("queues", QueuePlan), ("jobs", JobPlan),
            ("faults", FaultSpec), ("grid_faults", GridFaultSpec),
            ("net_faults", NetFaultSpec),
        ):
            d[key] = tuple(_build(entry, e, key) for e in d.get(key, ()))
        d["engines"] = tuple(d.get("engines", ("legacy", "serial")))
        d["transports"] = tuple(d.get("transports", ()))
        return _build(cls, d, "scenario")

    def to_json(self) -> str:
        """Canonical JSON text (sorted keys; ``repr``-exact floats)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """Parse :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    def digest(self) -> str:
        """Short content hash naming replay artifacts."""
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def _build(cls: type, data: dict, where: str) -> Any:
    """``cls(**data)``, naming any key that no field of ``cls`` takes."""
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        keys = ", ".join(repr(k) for k in sorted(unknown))
        raise ConfigError(f"unknown key {keys} in {where}")
    return cls(**data)


# -- generation ---------------------------------------------------------------

def _tick_multiple(rng: np.random.Generator, tick: float, lo: int, hi: int) -> float:
    """A uniform tick multiple in [lo, hi] ticks (exact float)."""
    return tick * int(rng.integers(lo, hi + 1))


def _gen_tasks(
    rng: np.random.Generator, tick: float, span: float, monitor_uid: int
) -> tuple[TaskPlan, ...]:
    n_tasks = int(rng.integers(1, 7))
    span_ticks = max(2, int(round(span / tick)))
    tasks = []
    for i in range(n_tasks):
        archetype = str(rng.choice(ARCHETYPES))
        ipc_lo, ipc_hi = _ipc_range(archetype)
        target_ipc = float(round(rng.uniform(ipc_lo, ipc_hi), 3))
        # Half the population are endless services; the rest are finite
        # jobs sized to die anywhere around the monitored span.
        duration = (
            math.inf
            if rng.random() < 0.5
            else float(round(rng.uniform(0.3, 1.5) * span, 3))
        )
        spawn_at = 0.0
        if rng.random() < 0.3:
            spawn_at = _tick_multiple(rng, tick, 1, max(1, span_ticks // 2))
        kill_at = None
        if rng.random() < 0.25:
            lo = int(round(spawn_at / tick)) + 1
            if lo < span_ticks:
                kill_at = _tick_multiple(rng, tick, lo, span_ticks)
        uid = None
        if monitor_uid != 0:
            # Mixed ownership: most tasks belong to the monitor (visible),
            # the rest to someone else (EPERM at attach).
            uid = monitor_uid if rng.random() < 0.7 else monitor_uid + 1
        tasks.append(
            TaskPlan(
                name=f"{archetype}{i}",
                archetype=archetype,
                target_ipc=target_ipc,
                duration=duration,
                nthreads=int(rng.choice([1, 1, 1, 2])),
                duty_cycle=float(rng.choice([1.0, 1.0, 1.0, 0.5])),
                uid=uid,
                spawn_at=spawn_at,
                kill_at=kill_at,
            )
        )
    return tuple(tasks)


def _gen_tool(rng: np.random.Generator, seed: int) -> Scenario:
    tick = float(rng.choice(TOOL_TICKS))
    delay = _tick_multiple(rng, tick, 2, 8)
    iterations = int(rng.integers(2, 5))
    span = delay * iterations
    monitor_uid = 7 if rng.random() < 0.15 else 0
    chaos_seed = None
    chaos_intensity = 1.0
    if rng.random() < 0.45:
        chaos_seed = int(rng.integers(0, 2**31))
        chaos_intensity = float(rng.choice([0.5, 1.0, 2.0]))
    pmu_width = None
    if rng.random() < 0.25:
        # Multiplexing pressure: squeeze the PMU below the screen's event
        # count so the rotation/scaling paths are exercised.
        pmu_width = int(rng.integers(2, 4))
    cores_per_socket = int(rng.integers(1, 3))
    screen = str(rng.choice(["default", "cache", "branch", "mix"]))
    per_thread = bool(rng.random() < 0.2)
    tasks = _gen_tasks(rng, tick, span, monitor_uid)
    # Drawn last so every earlier field keeps its pre-serve value for a
    # given seed (the corpus and the generator-shape tests rely on it).
    serve = bool(rng.random() < 0.25)
    # Same append-only rule: the net-chaos draws come after everything
    # above, so pre-partition seeds keep their exact scenarios. Served
    # streams under link cuts exercise the reconnect/resume path; the
    # solo comparison bar is unchanged.
    net_chaos_seed = None
    net_chaos_intensity = 1.0
    if serve and rng.random() < 0.4:
        net_chaos_seed = int(rng.integers(0, 2**31))
        net_chaos_intensity = float(rng.choice([2.0, 4.0, 6.0]))
    return Scenario(
        kind="tool",
        seed=seed,
        arch="nehalem",
        sockets=1,
        cores_per_socket=cores_per_socket,
        pmu_width=pmu_width,
        tick=tick,
        delay=delay,
        iterations=iterations,
        screen=screen,
        per_thread=per_thread,
        monitor_uid=monitor_uid,
        chaos_seed=chaos_seed,
        chaos_intensity=chaos_intensity,
        tasks=tasks,
        serve=serve,
        net_chaos_seed=net_chaos_seed,
        net_chaos_intensity=net_chaos_intensity,
    )


def _gen_grid(rng: np.random.Generator, seed: int) -> Scenario:
    tick = float(rng.choice(GRID_TICKS))
    span = _tick_multiple(rng, tick, 12, 32)
    engines = ["legacy", "serial"]
    # Sometimes the worker-process engine. Every draw in a generator is
    # append-only: removing one would shift every later field of a seed.
    if rng.random() < 0.15:
        engines.append("supervised")
    queues = (
        QueuePlan(
            name="fast",
            max_wallclock=_tick_multiple(rng, tick, 4, 12),
            memory_limit=8 * GiB,
            priority=2,
        ),
        QueuePlan(
            name="batch",
            max_wallclock=math.inf,
            memory_limit=8 * GiB,
            priority=1,
        ),
    )
    n_jobs = int(rng.integers(2, 9))
    jobs = []
    for i in range(n_jobs):
        archetype = str(rng.choice(ARCHETYPES))
        ipc_lo, ipc_hi = _ipc_range(archetype)
        duration = (
            math.inf
            if rng.random() < 0.25
            else float(round(rng.uniform(2.0, span), 3))
        )
        jobs.append(
            JobPlan(
                name=f"job{i}",
                archetype=archetype,
                target_ipc=float(round(rng.uniform(ipc_lo, ipc_hi), 3)),
                duration=duration,
                queue=str(rng.choice(["fast", "fast", "batch"])),
                submit_at=_tick_multiple(
                    rng, tick, 0, max(1, int(round(span / tick)) // 2)
                ),
                # Big-memory jobs force queueing on the 16 GiB nodes.
                memory_bytes=int(rng.choice([1, 1, 1, 6])) * GiB,
            )
        )
    # Supervised-engine coverage: sometimes run the supervision tree
    # clean (pure equivalence), sometimes under worker chaos — seeded
    # rate faults, or a targeted fault spec aimed at one (worker,
    # epoch) so the poison/adopt and degrade ladders get exercised.
    grid_chaos_seed = None
    grid_chaos_intensity = 1.0
    grid_faults: tuple[GridFaultSpec, ...] = ()
    restart_budget = 8
    if rng.random() < 0.4:
        if "supervised" not in engines:
            engines.append("supervised")
        mode = rng.random()
        if mode < 0.45:
            grid_chaos_seed = int(rng.integers(0, 2**31))
            grid_chaos_intensity = float(rng.choice([2.0, 4.0, 8.0]))
        elif mode < 0.85:
            grid_faults = (
                GridFaultSpec(
                    kind=str(rng.choice(["crash", "crash", "garble"])),
                    at_epochs=(int(rng.integers(0, 3)),),
                    worker=int(rng.integers(0, 2)),
                    persistent=bool(rng.random() < 0.3),
                ),
            )
        if (grid_chaos_seed is not None or grid_faults) and rng.random() < 0.2:
            restart_budget = int(rng.integers(0, 2))  # force the degrade path
    # Everything below draws after the fields above, so adding these
    # draws kept the earlier fields of old seeds (corpus stability, as
    # with the tool generator's serve flag). ``n_nodes`` alone is drawn
    # after them, inside the ``Scenario(...)`` call.
    transports: tuple[str, ...] = ()
    if rng.random() < 0.25:
        transports = ("inproc", "fork")
    # Sometimes a worker-process run where the draws above chose none.
    # The draw comes first, so every later field keeps its value.
    if rng.random() < 0.15 and "supervised" not in engines:
        engines.append("supervised")
    if rng.random() < 0.2:
        # Preemption churn: the fast queue may evict batch jobs, and jobs
        # carry mixed priorities so within-queue ordering is exercised.
        queues = (replace(queues[0], preempting=True),) + queues[1:]
        jobs = [
            replace(job, priority=int(rng.integers(0, 3))) for job in jobs
        ]
    # Spent draws: their values are unused (a grid has no link to cut),
    # but ``n_nodes`` below is drawn after them, so dropping them would
    # change the node count of most grid seeds, the suite's fuzz seeds too.
    if rng.random() < 0.3:
        rng.integers(0, 2**31)
        rng.choice([1.0, 2.0, 4.0])
    return Scenario(
        kind="grid",
        seed=seed,
        arch="nehalem",
        sockets=1,
        cores_per_socket=2,
        tick=tick,
        span=span,
        n_nodes=int(rng.integers(2, 4)),
        workers=2,
        engines=tuple(engines),
        queues=queues,
        jobs=tuple(jobs),
        grid_chaos_seed=grid_chaos_seed,
        grid_chaos_intensity=grid_chaos_intensity,
        grid_faults=grid_faults,
        epoch_deadline=1.0,
        restart_budget=restart_budget,
        transports=transports,
    )


def generate(seed: int) -> Scenario:
    """The seeded scenario generator: one deterministic scenario per seed.

    Roughly three in four seeds produce tool scenarios (sampler-level
    differential runs on one node); the rest produce grid scenarios
    (engine-level differential runs over the fleet).
    """
    rng = np.random.default_rng((0x7E57, seed))
    if rng.random() < 0.25:
        return _gen_grid(rng, seed)
    return _gen_tool(rng, seed)
