"""The grid's worker-process engine: deadlines, restarts, replay.

Worker agents that are trusted completely let a hung worker block
``advance`` forever and a crashed one abort the run. This module runs
the worker protocol of :mod:`repro.sim.transport` under a supervision
tree instead, so that coarse monitoring infrastructure *degrades, never
deadlocks* (the paper's operational premise, applied to the grid layer):

1. **Detect** — every worker round-trip gets an epoch deadline
   (poll-with-timeout recv) and a liveness check (exitcode / pipe
   state). Crashes, hangs and garbled replies surface as a typed
   :class:`~repro.errors.WorkerFailure` instead of raw pipe errors.
2. **Restart + replay** — the supervisor journals each epoch's
   ``(commands, n_ticks, frac)`` per shard. A dead worker is restarted
   with bounded exponential backoff and its shard resurrected
   deterministically: rebuilt from ``spec + seed`` and the journal
   replayed. Machine evolution is a pure function of spec, seed, tick
   and the timed command sequence, so resurrection is bitwise-equivalent
   to a never-crashed run (asserted via ``Grid.conformance_digest``).
3. **Adopt** — a shard that keeps killing its worker on the *same*
   epoch (a poison epoch) is adopted by an in-process
   :class:`~repro.sim.parallel.Shard` owned by the supervisor; the run
   continues with serial semantics for that shard only.
4. **Degrade** — when the global restart budget is exhausted the whole
   engine degrades to serial semantics (every shard adopted) instead of
   failing the run.

Chaos. :class:`GridFaultPlan` is the worker twin of
:class:`repro.perf.faults.FaultPlan`: a seeded, stateless, picklable
plan executed *inside* the worker loop. ``decide(worker, epoch,
incarnation)`` hashes its arguments through the crc32 draw of
:mod:`repro.util.chaos`, so the schedule is a pure function of the seed —
``--grid-chaos SEED`` replays byte-identically. Rate faults draw a fresh
variate per incarnation, so a restarted worker normally survives the
retry (transient faults); ``at_epochs`` faults marked ``persistent``
refire on every incarnation, which is exactly the poison-epoch path.

Determinism of the event log. Supervisor events carry only values that
are pure functions of (scenario, seed, chaos plan): worker index, epoch
number, failure kind, incarnation, replayed-epoch counts, configured
backoff. Wall-clock times and OS exit codes are kept out so two runs of
the same chaos seed produce identical logs. The log is the one record of
recovery: :func:`recovery_counts` reads every count off it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import ConfigError, SimulationError, WorkerFailure
from repro.sim.parallel import Shard, _entry_list
from repro.sim.transport import CRASH_EXIT, make_transport
from repro.util import chaos
from repro.util.backoff import BackoffPolicy

if TYPE_CHECKING:
    from repro.sim.grid import NodeSpec

__all__ = [
    "CRASH_EXIT",
    "GRID_FAULT_KINDS",
    "GridFaultPlan",
    "GridFaultSpec",
    "Supervision",
    "SupervisedShardedEngine",
    "default_grid_specs",
    "recovery_counts",
]

#: Fault kinds a worker can be ordered to exhibit.
GRID_FAULT_KINDS = ("crash", "hang", "garble")

#: Failure events the supervisor logs (one per failed round-trip).
_FAILURE_EVENTS = ("crash", "hang", "garbled")


def recovery_counts(events: list[dict[str, Any]]) -> dict[str, Any]:
    """The recovery counts of a supervisor event log: restarts and
    adoptions count their events, replayed epochs sum their ``replayed``
    fields, the engine is degraded once a ``degrade`` event exists, and
    failures count per kind."""
    kinds = [event["event"] for event in events]
    return {
        "restarts": kinds.count("restart"),
        "replayed_epochs": sum(
            event["replayed"] for event in events
            if event["event"] in ("restart", "adopt")
        ),
        "adopted_shards": kinds.count("adopt"),
        "degraded": "degrade" in kinds,
        "failures": {kind: kinds.count(kind) for kind in _FAILURE_EVENTS},
    }


@dataclass(frozen=True)
class GridFaultSpec:
    """One chaos behaviour for grid workers.

    Attributes:
        kind: ``"crash"`` (worker exits before advancing), ``"hang"``
            (worker ignores SIGTERM and stops replying), or ``"garble"``
            (worker replies with a malformed report without advancing).
            Every kind fires *before* the shard advances, so a faulted
            epoch is never half-applied and journal replay is exact.
        rate: probability per (worker, epoch, incarnation) draw.
        at_epochs: exact epoch indices to fire at (overrides ``rate``), sorted.
        worker: restrict to one worker index (None = all workers).
        persistent: ``at_epochs`` faults refire on every incarnation
            (the poison-epoch path); rate faults always redraw.
    """

    kind: str
    rate: float = 0.0
    at_epochs: tuple[int, ...] | None = None
    worker: int | None = None
    persistent: bool = False

    def __post_init__(self) -> None:
        at_epochs = chaos.check_spec(
            self, "grid", GRID_FAULT_KINDS, self.worker, "worker index"
        )
        object.__setattr__(self, "at_epochs", at_epochs)


def default_grid_specs(intensity: float = 1.0) -> tuple[GridFaultSpec, ...]:
    """The stock chaos mix: mostly crashes, some garbled replies, rare
    hangs (hangs cost a full deadline each, so they stay cheapest)."""
    r = chaos.capped(intensity, 1.0 / len(GRID_FAULT_KINDS))
    return (
        GridFaultSpec("crash", rate=r(0.05)),
        GridFaultSpec("hang", rate=r(0.02)),
        GridFaultSpec("garble", rate=r(0.03)),
    )


@dataclass(frozen=True)
class GridFaultPlan:
    """A seeded, stateless schedule of worker faults.

    Like :class:`repro.perf.faults.FaultPlan`, decisions hash
    ``(seed, worker, epoch, incarnation)`` through crc32 into a uniform
    variate, so the schedule is platform-stable, picklable into workers,
    and independent per worker — faults on one shard never shift
    another's schedule. The rate specs a worker draws through (those
    aimed at it plus the untargeted ones) partition that one draw, so
    their rates sum to at most 1 (exact-epoch specs are exempt).
    """

    seed: int
    specs: tuple[GridFaultSpec, ...]

    def __post_init__(self) -> None:
        chaos.check_aimed(self.specs, "worker", "grid fault")

    @classmethod
    def from_seed(cls, seed: int, intensity: float = 1.0) -> "GridFaultPlan":
        return cls(seed=seed, specs=default_grid_specs(intensity))

    def decide(self, worker: int, epoch: int, incarnation: int) -> str | None:
        """The fault (if any) this worker exhibits on this epoch advance.

        ``incarnation`` counts restarts of the worker: exact-epoch faults
        fire on the first incarnation only unless ``persistent``; rate
        faults draw fresh per incarnation so retries normally succeed.
        """
        aimed = [
            s for s in self.specs
            if s.worker in (None, worker)
            and (s.at_epochs is None or s.persistent or incarnation == 0)
        ]
        u = chaos.unit(f"{self.seed}:{worker}:{epoch}:{incarnation}")
        spec = chaos.pick(aimed, epoch, u)
        return None if spec is None else spec.kind


@dataclass(frozen=True)
class Supervision:
    """Supervisor policy knobs.

    Attributes:
        deadline: seconds a worker may take to answer one round-trip
            before it is declared hung.
        restart_budget: total restarts across all workers before the
            engine degrades to serial semantics.
        poison_limit: consecutive failures on one epoch before the shard
            is adopted in-process instead of restarted again.
        backoff_base: first restart's backoff sleep; doubles per
            consecutive failure on the same epoch.
        backoff_cap: upper bound on any single backoff sleep.
    """

    deadline: float = 30.0
    restart_budget: int = 8
    poison_limit: int = 3
    backoff_base: float = 0.05
    backoff_cap: float = 1.0

    def __post_init__(self) -> None:
        if self.deadline <= 0:
            raise ConfigError(f"deadline must be > 0, got {self.deadline}")
        if self.restart_budget < 0:
            raise ConfigError("restart_budget must be >= 0")
        if self.poison_limit < 1:
            raise ConfigError("poison_limit must be >= 1")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ConfigError("backoff values must be >= 0")

    def policy(self) -> BackoffPolicy:
        """The restart ladder as the shared retry shape.

        The supervisor and the serve client both sleep through
        :class:`~repro.util.backoff.BackoffPolicy`, so the ladders cannot
        drift apart; the values recorded in the event log are exactly
        ``policy().delay(attempt)``.
        """
        return BackoffPolicy(
            base=self.backoff_base, factor=2.0, cap=self.backoff_cap
        )


#: Keys every well-formed epoch report carries (garble detection).
_REPORT_KEYS = frozenset(
    {
        "spawned",
        "deaths",
        "killed",
        "bounds",
        "start_now",
        "end_now",
        "wall",
        "cache_hits",
        "cache_misses",
    }
)


@dataclass
class _WorkerState:
    """Supervisor-side bookkeeping for one worker slot."""

    index: int
    entries: list[tuple["NodeSpec", int]]
    transport: Any = None
    incarnation: int = 0
    #: Every epoch ever dispatched to this shard, in order.
    journal: list[tuple[list, int, float]] = field(default_factory=list)
    #: In-process shard once adopted (poison epoch or degrade).
    shard: Shard | None = None


class SupervisedShardedEngine:
    """Persistent worker agents, one disjoint shard of nodes each, under
    a supervision tree.

    Node ``i`` goes to worker slot ``i % workers`` — a fixed,
    deterministic assignment, so pid sequences and RNG streams per node
    are independent of the worker count *and* of the transport fabric,
    and results are bitwise those of the serial engine. Machines never
    cross the process boundary; each epoch costs one message round-trip
    per worker. Every round-trip is deadline-checked and every failure
    walks the detect → restart/replay → adopt → degrade ladder:
    ``Grid.run_for`` never deadlocks and never aborts on a worker death.
    """

    name = "supervised"

    def __init__(
        self,
        specs: list["NodeSpec"],
        tick: float,
        seed: int,
        workers: int,
        *,
        chaos: GridFaultPlan | None = None,
        config: Supervision | None = None,
        transport: str = "fork",
    ) -> None:
        if workers < 1:
            raise SimulationError(
                f"supervised engine needs >= 1 worker, got {workers}"
            )
        self.workers = min(workers, len(specs))
        self.config = config if config is not None else Supervision()
        self.chaos = chaos
        self.tick = tick
        self._policy = self.config.policy()
        #: Shared-nothing: no in-process machines are exposed, even for
        #: adopted shards (the public surface must not depend on the
        #: failure history).
        self.nodes: dict[str, Any] = {}
        self._node_worker: dict[str, int] = {}
        self.messages = 0
        #: Deterministic recovery log (no wall-times, no OS exit codes),
        #: the one record of recovery.
        self.events: list[dict[str, Any]] = []
        entry_list = _entry_list(specs, seed)
        self._states: list[_WorkerState] = []
        for w in range(self.workers):
            entries = []
            for index, entry in enumerate(entry_list):
                if index % self.workers == w:
                    entries.append(entry)
                    self._node_worker[entry[0].name] = w
            state = _WorkerState(index=w, entries=entries)
            state.transport = make_transport(
                transport, w, entries, tick, chaos
            )
            self._states.append(state)
        for state in self._states:
            state.transport.spawn([], state.incarnation)
        for state in self._states:
            try:
                self._await_ready(state, replayed=0)
            except WorkerFailure as fail:
                # Startup failure (not chaos-injected — chaos only fires
                # on advance): recover immediately, no report pending.
                self._recover(state, fail, need_report=False)

    # -- worker lifecycle ---------------------------------------------------
    def _await_ready(self, state: _WorkerState, replayed: int) -> None:
        # Replay costs real simulation work; scale the handshake deadline
        # with the journal length so resurrection is never misread as a
        # hang.
        timeout = max(self.config.deadline, 1.0) * (1 + replayed)
        payload = self._recv(state, timeout)
        if payload != "ready":
            raise WorkerFailure(
                f"grid worker {state.index} sent a bad ready handshake: "
                f"{payload!r}",
                worker=state.index,
                kind="garbled",
            )

    # -- guarded round-trips ------------------------------------------------
    def _send(self, state: _WorkerState, msg: tuple) -> None:
        state.transport.send(msg)
        self.messages += 1

    def _recv(self, state: _WorkerState, timeout: float) -> Any:
        """One reply under a deadline. The transport enforces liveness
        and shape; this layer interprets the protocol tags."""
        tag, payload = state.transport.recv(timeout)
        if tag == "error":
            # A worker-side programming error, not a process failure:
            # surface it, don't "recover" it.
            raise SimulationError(f"grid worker failed: {payload}")
        if tag != "ok":
            raise WorkerFailure(
                f"grid worker {state.index} sent unknown tag {tag!r}",
                worker=state.index,
                kind="garbled",
            )
        return payload

    def _recv_report(self, state: _WorkerState) -> dict[str, Any]:
        payload = self._recv(state, self.config.deadline)
        if not (isinstance(payload, dict) and _REPORT_KEYS <= payload.keys()):
            raise WorkerFailure(
                f"grid worker {state.index} sent a garbled epoch report",
                worker=state.index,
                kind="garbled",
            )
        return payload

    # -- the recovery ladder ------------------------------------------------
    @property
    def stats(self) -> dict[str, Any]:
        """The recovery counts, read off the event log."""
        return recovery_counts(self.events)

    def _note_failure(self, fail: WorkerFailure, epoch: int) -> None:
        if fail.kind not in _FAILURE_EVENTS:
            # A transport closed on purpose is not a failure to recover.
            raise fail
        self.events.append(
            {"event": fail.kind, "worker": fail.worker, "epoch": epoch}
        )

    def _degrade(self, worker: int, epoch: int) -> None:
        if not self.stats["degraded"]:
            self.events.append(
                {"event": "degrade", "worker": worker, "epoch": epoch}
            )

    def _adopt(
        self, state: _WorkerState, need_report: bool, reason: str
    ) -> dict[str, Any] | None:
        """Resurrect the shard in-process and retire its worker slot.

        Rebuilds from (spec, seed) and replays the journal — every epoch
        if the journal is fully collected, all but the last when the
        failing epoch's report is still owed (it is then advanced live
        and its report returned).
        """
        state.transport.reap()
        replay = state.journal[:-1] if need_report else state.journal
        shard = Shard.replayed(state.entries, self.tick, replay)
        state.shard = shard
        self.events.append(
            {
                "event": "adopt",
                "worker": state.index,
                "epoch": len(replay),
                "reason": reason,
                "replayed": len(replay),
            }
        )
        if need_report:
            commands, n_ticks, frac = state.journal[-1]
            return shard.advance(commands, n_ticks, frac)
        return None

    def _recover(
        self, state: _WorkerState, fail: WorkerFailure, need_report: bool
    ) -> dict[str, Any] | None:
        """Walk the ladder for one failed round-trip.

        Restart with journal replay under exponential backoff; adopt the
        shard in-process after ``poison_limit`` consecutive failures on
        this same epoch; degrade the whole engine once the global restart
        budget is spent. Always returns a usable epoch report when one is
        owed — this method cannot fail the run.
        """
        epoch = len(state.journal) - 1 if need_report else len(state.journal)
        attempts = 0
        while True:
            attempts += 1
            self._note_failure(fail, epoch)
            state.transport.reap()
            if attempts >= self.config.poison_limit:
                self.events.append(
                    {
                        "event": "poison",
                        "worker": state.index,
                        "epoch": epoch,
                        "attempts": attempts,
                    }
                )
                return self._adopt(state, need_report, reason="poison")
            if self.stats["restarts"] >= self.config.restart_budget:
                self._degrade(state.index, epoch)
                return self._adopt(state, need_report, reason="degrade")
            backoff = self._policy.sleep(attempts)
            state.incarnation += 1
            replay = state.journal[:-1] if need_report else list(state.journal)
            self.events.append(
                {
                    "event": "restart",
                    "worker": state.index,
                    "epoch": epoch,
                    "incarnation": state.incarnation,
                    "replayed": len(replay),
                    "backoff": backoff,
                }
            )
            try:
                state.transport.spawn(replay, state.incarnation)
                self._await_ready(state, replayed=len(replay))
                if not need_report:
                    return None
                commands, n_ticks, frac = state.journal[-1]
                self._send(state, ("advance", commands, n_ticks, frac))
                return self._recv_report(state)
            except WorkerFailure as next_fail:
                fail = next_fail

    # -- engine protocol ----------------------------------------------------
    def advance(
        self, commands: list, n_ticks: int, frac: float
    ) -> list[dict[str, Any]]:
        """Journal the epoch, send it to every live worker, then collect
        every report, recovering as needed.

        Every send goes out before any report is collected, so shards
        advance concurrently; adopted shards advance between the two
        phases, so their work overlaps the workers'. Reports have
        disjoint job/node keys; order is immaterial to the grid's merge.
        """
        if self.stats["degraded"]:
            # Serial semantics: every shard in-process from here on.
            for state in self._states:
                if state.shard is None:
                    self._adopt(state, need_report=False, reason="degrade")
        by_worker: dict[int, list] = {}
        for cmd in commands:
            by_worker.setdefault(self._node_worker[cmd.node], []).append(cmd)
        for state in self._states:
            state.journal.append((by_worker.get(state.index, []), n_ticks, frac))
        send_failures: dict[int, WorkerFailure] = {}
        for state in self._states:
            if state.shard is not None:
                continue
            try:
                self._send(state, ("advance",) + state.journal[-1])
            except WorkerFailure as fail:
                send_failures[state.index] = fail
        reports: list[dict[str, Any]] = []
        for state in self._states:
            if state.shard is not None:
                cmds, nt, fr = state.journal[-1]
                reports.append(state.shard.advance(cmds, nt, fr))
                continue
            fail = send_failures.get(state.index)
            if fail is None:
                try:
                    reports.append(self._recv_report(state))
                    continue
                except WorkerFailure as recv_fail:
                    fail = recv_fail
            reports.append(self._recover(state, fail, need_report=True))
        return reports

    def process_of(self, job_id: int) -> None:
        return None

    def snapshot(self, node: str) -> dict[str, Any]:
        if node not in self._node_worker:
            raise SimulationError(f"no node {node!r}")
        return self.snapshot_many([node])[node]

    def snapshot_many(self, names: list[str]) -> dict[str, dict[str, Any]]:
        """Snapshots for several nodes: one message per worker, not one
        per node. A failed worker is adopted and serves from the replayed
        shard — the journal is fully collected between epochs, so
        adoption resurrects the exact current state."""
        by_worker: dict[int, list[str]] = {}
        for name in names:
            worker = self._node_worker.get(name)
            if worker is None:
                raise SimulationError(f"no node {name!r}")
            by_worker.setdefault(worker, []).append(name)
        out: dict[str, dict[str, Any]] = {}
        for worker, group in by_worker.items():
            state = self._states[worker]
            if state.shard is not None:
                out.update(state.shard.snapshot_many(group))
                continue
            try:
                self._send(state, ("snapshot", group))
                out.update(self._recv(state, self.config.deadline))
            except WorkerFailure as fail:
                self._note_failure(fail, epoch=len(state.journal))
                self._adopt(state, need_report=False, reason="snapshot")
                out.update(state.shard.snapshot_many(group))
        return out

    # -- introspection / lifecycle ------------------------------------------
    @property
    def bytes_sent(self) -> int:
        return sum(s.transport.bytes_sent for s in self._states)

    @property
    def bytes_received(self) -> int:
        return sum(s.transport.bytes_received for s in self._states)

    @property
    def _procs(self) -> list:
        """Live worker process handles (leak tests poke at these)."""
        return [
            s.transport.proc
            for s in self._states
            if s.transport.proc is not None
        ]

    def live_workers(self) -> int:
        """Worker slots still served by a live agent (not adopted)."""
        return sum(
            1
            for s in self._states
            if s.shard is None and s.transport.is_alive()
        )

    def close(self) -> None:
        for state in self._states:
            state.transport.request_close()
        for state in self._states:
            state.transport.finish_close(grace=2.0)
