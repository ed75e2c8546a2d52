"""Two-level supervision: a fleet of supervised hosts.

One :class:`~repro.sim.supervisor.SupervisedShardedEngine` already keeps
a handful of shard workers honest — deadline-checked round-trips,
journal-replay restarts, in-process adoption. At fleet scale (hundreds
to a thousand simulated nodes) a single supervisor becomes both a
bottleneck and a single failure domain, so :class:`FleetEngine` stacks a
second level on top: nodes partition across *hosts*, each host is a full
supervised engine with its own workers and restart budget, and the fleet
supervisor watches the hosts themselves. A host whose own ladder is
exhausted (the engine degraded to serial) is torn down and resurrected
wholesale: its replacement engine takes over the retiring engine's
per-worker epoch journals and replays every epoch since t=0, then starts
its epoch counters *past* the replayed history so seeded chaos that
already fired can never refire.

Determinism is unchanged from the single-host engines: node *i* keeps
seed ``base_seed + i`` however nodes group into hosts, so the fleet
digest is bitwise identical to the serial engine's. With ``W`` workers
over ``H`` hosts, node *i* goes to host ``h = i % H``, and that host's
*k*-th node (``k = i // H``) to global worker ``h·(W/H) + k % (W/H)``.
Worker ids are numbered fleet-wide like this so chaos schedules and
event logs stay host-distinct and transport-invariant. ``W`` must be a
positive multiple of ``H``, so every host gets the same ``W/H`` worker
slots; like a single supervised engine, a host never runs more workers
than it has nodes, and the fleet never has more hosts than nodes.

Epochs pipeline across hosts: the fleet calls every host's
``begin_advance`` before any ``finish_advance``, so all hosts' workers
run the epoch concurrently — the wall-clock cost of an epoch is the
slowest host, not the sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import SimulationError
from repro.sim.supervisor import SupervisedShardedEngine, Supervision

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.grid import NodeSpec
    from repro.sim.supervisor import GridFaultPlan

__all__ = ["FleetEngine", "FleetSupervision"]


@dataclass(frozen=True)
class FleetSupervision:
    """Fleet-level policy knobs (host tier of the supervision tree).

    Attributes:
        host_restart_budget: how many times a degraded host engine is
            torn down and resurrected from its journals before the fleet
            stops restarting it and leaves it degraded-but-correct.
    """

    host_restart_budget: int = 4

    def __post_init__(self) -> None:
        if self.host_restart_budget < 0:
            raise SimulationError(
                "host_restart_budget must be >= 0, got"
                f" {self.host_restart_budget}"
            )


@dataclass
class _Host:
    """One supervised engine plus the nodes it was built over."""

    index: int
    specs: list = field(default_factory=list)
    seeds: list[int] = field(default_factory=list)
    engine: SupervisedShardedEngine | None = None
    restarts: int = 0


class FleetEngine:
    """Hosts-of-workers engine: ``hosts`` supervised engines side by side.

    Bitwise identical to every other engine for the same fleet and seed;
    ``hosts`` and ``transport`` ("inproc" or "fork") are pure
    performance/failure-domain knobs, like ``workers``.
    """

    name = "fleet"

    def __init__(
        self,
        specs: list["NodeSpec"],
        tick: float,
        seed: int,
        workers: int,
        *,
        hosts: int = 2,
        transport: str = "fork",
        chaos: "GridFaultPlan | None" = None,
        config: Supervision | None = None,
        seeds: list[int] | None = None,
        fleet: FleetSupervision | None = None,
    ) -> None:
        if hosts < 1:
            raise SimulationError(f"fleet needs >= 1 host, got {hosts}")
        if workers < 1 or workers % hosts:
            raise SimulationError(
                f"fleet engine needs a positive multiple of {hosts} "
                f"workers (one share per host), got {workers}"
            )
        #: Shared-nothing, like every multi-process engine.
        self.nodes: dict[str, Any] = {}
        self.tick = tick
        self.transport_name = transport
        self.chaos = chaos
        self.config = config if config is not None else Supervision()
        self.fleet_config = fleet if fleet is not None else FleetSupervision()
        self.hosts = min(hosts, len(specs)) if specs else hosts
        self.host_workers = workers // hosts
        self._node_host: dict[str, int] = {}
        #: Engines closed by host restarts: their counters still count,
        #: so every aggregate survives resurrection.
        self._retired: list[SupervisedShardedEngine] = []
        #: Host-tagged events from retired engines + fleet-level events,
        #: in emission order; current engines' events append after these.
        self._event_base: list[dict[str, Any]] = []
        self._fleet_degraded = False
        self._hosts: list[_Host] = [_Host(index=h) for h in range(self.hosts)]
        for i, spec in enumerate(specs):
            host = self._hosts[i % self.hosts]
            host.specs.append(spec)
            host.seeds.append(seeds[i] if seeds is not None else seed + i)
            self._node_host[spec.name] = host.index
        for host in self._hosts:
            host.engine = self._build_engine(host)

    def _build_engine(
        self, host: _Host, journals: list | None = None
    ) -> SupervisedShardedEngine:
        return SupervisedShardedEngine(
            host.specs, self.tick, 0,
            workers=self.host_workers,
            seeds=host.seeds,
            transport=self.transport_name,
            chaos=self.chaos,
            config=self.config,
            worker_base=host.index * self.host_workers,
            journals=journals,
        )

    # -- engine protocol ----------------------------------------------------
    def advance(
        self, commands: list, n_ticks: int, frac: float
    ) -> list[dict[str, Any]]:
        by_host: dict[int, list] = {}
        for cmd in commands:
            by_host.setdefault(self._node_host[cmd.node], []).append(cmd)
        # Pipeline: start every host before collecting any.
        for host in self._hosts:
            host.engine.begin_advance(
                by_host.get(host.index, []), n_ticks, frac
            )
        reports: list[dict[str, Any]] = []
        for host in self._hosts:
            reports.extend(host.engine.finish_advance())
        # Host-death check runs *after* collecting: a freshly degraded
        # host still returned correct serial reports for this epoch, so
        # the resurrection costs nothing observable.
        for host in self._hosts:
            if host.engine.degraded:
                self._restart_host(host)
        return reports

    def _restart_host(self, host: _Host) -> None:
        journals = host.engine.journals
        epoch = len(journals[0])
        if host.restarts >= self.fleet_config.host_restart_budget:
            if not self._fleet_degraded:
                self._fleet_degraded = True
                self._event_base.append(
                    {"event": "fleet-degrade", "host": host.index,
                     "epoch": epoch}
                )
            return  # degraded-but-correct: adopted shards keep serving.
        self._retired.append(host.engine)
        self._event_base.extend(
            {**event, "host": host.index} for event in host.engine.events
        )
        host.engine.close()
        host.restarts += 1
        host.engine = self._build_engine(host, journals)
        self._event_base.append(
            {"event": "host-restart", "host": host.index,
             "epoch": epoch,
             "replayed": epoch,
             "restarts": host.restarts}
        )

    def process_of(self, job_id: int) -> None:
        return None

    def snapshot(self, node: str) -> dict[str, Any]:
        if node not in self._node_host:
            raise SimulationError(f"no node {node!r}")
        return self.snapshot_many([node])[node]

    def snapshot_many(self, names: list[str]) -> dict[str, dict[str, Any]]:
        by_host: dict[int, list[str]] = {}
        for name in names:
            host = self._node_host.get(name)
            if host is None:
                raise SimulationError(f"no node {name!r}")
            by_host.setdefault(host, []).append(name)
        out: dict[str, dict[str, Any]] = {}
        for h, group in by_host.items():
            out.update(self._hosts[h].engine.snapshot_many(group))
        return out

    # -- introspection / lifecycle ------------------------------------------
    def _engines(self) -> list[SupervisedShardedEngine]:
        """Every engine this fleet has run, retired ones first."""
        return self._retired + [h.engine for h in self._hosts]

    @property
    def stats(self) -> dict[str, Any]:
        engines = self._engines()
        agg: dict[str, Any] = {
            key: sum(e.stats[key] for e in engines)
            for key in ("restarts", "replayed_epochs", "adopted_shards")
        }
        agg["degraded"] = self.degraded
        agg["failures"] = {
            kind: sum(e.stats["failures"][kind] for e in engines)
            for kind in engines[0].stats["failures"]
        }
        agg["host_restarts"] = sum(h.restarts for h in self._hosts)
        return agg

    @property
    def events(self) -> list[dict[str, Any]]:
        out = list(self._event_base)
        for host in self._hosts:
            for event in host.engine.events:
                out.append({**event, "host": host.index})
        return out

    @property
    def degraded(self) -> bool:
        return any(h.engine.degraded for h in self._hosts)

    @property
    def messages(self) -> int:
        return sum(e.messages for e in self._engines())

    @property
    def bytes_sent(self) -> int:
        return sum(e.bytes_sent for e in self._engines())

    @property
    def bytes_received(self) -> int:
        return sum(e.bytes_received for e in self._engines())

    @property
    def _procs(self) -> list:
        return [p for h in self._hosts for p in h.engine._procs]

    def live_workers(self) -> int:
        return sum(h.engine.live_workers() for h in self._hosts)

    def close(self) -> None:
        for host in self._hosts:
            host.engine.close()
