"""Pluggable shard transports: one epoch round-trip, two fabrics.

The supervised engine (:mod:`repro.sim.supervisor`) speaks one tiny
protocol per worker slot — ``("advance", commands, n_ticks,
frac)`` / ``("snapshot", [names])`` / ``("close",)`` in, ``("ok", payload)``
or ``("error", text)`` out, with ``("ok", "ready")`` as the post-build
handshake. This module abstracts *how* those tuples travel, mirroring the
process/SSH/cluster ``Pool`` ladder of vusec's instrumentation-infra:

* :class:`InprocTransport` — no process at all. The shard lives in the
  caller; messages are zero-copy Python objects. The serial baseline of
  the transport axis, and the cheapest way to run the chaos ladder
  deterministically in tests.
* :class:`ForkTransport` — a local agent process on the other end of a
  ``multiprocessing`` pipe, with pickled tuples sent via ``send_bytes``
  so every message's exact wire size is accounted. Pickle is the one
  shard codec: both ends run the same code from the same checkout.

Every transport enforces the same failure taxonomy: a round-trip against
a dead peer raises :class:`~repro.errors.WorkerFailure` ``kind="crash"``,
a missed deadline ``"hang"``, an unparseable reply ``"garbled"``, a
message lost to a network fault ``"unreachable"``, and any operation
after :meth:`ShardTransport.close` ``"closed"`` (so a send racing engine
teardown is a typed event, not a stray ``BrokenPipeError``). One agent
class answers the protocol at the far end of both fabrics, chaos
(:class:`~repro.sim.supervisor.GridFaultPlan`) included, so fault
schedules and supervisor event logs are transport-invariant: only how a
chaos crash or hang is carried out differs (the agent process exits or
wedges; the in-process one marks its slot dead or raises).

Two concerns ride on the round-trip uniformly across fabrics, both
implemented once in :class:`ShardTransport` around the subclasses' raw
``_spawn_raw``/``_send_raw``/``_recv_raw`` primitives:

* **Network chaos** (:class:`~repro.sim.netchaos.NetChaosPlan`): the
  parent-side message layer is where partitions bite, so the base class
  consults the plan per (worker link, epoch, attempt) before a request
  touches the wire. A partitioned or dropped request is simply never
  sent; the reply deadline collapses into
  ``WorkerFailure(kind="unreachable")``. A half-open or reordered link
  delivers the request — the agent *applies* the epoch — but the genuine
  reply is stranded parent-side in a stash, surfacing only after the
  link heals (the split-brain shape).

* **Epoch fencing**: every agent reply carries ``(incarnation, epoch)``
  and the parent tracks the one fence the in-flight round-trip may
  match. Stashed or duplicated replies from a stale incarnation are
  rejected and counted (``fenced_rejected``) instead of being merged, so
  a healed partition can never double-apply an epoch.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import time
from collections.abc import Callable
from typing import TYPE_CHECKING, Any, NoReturn

from repro.errors import SimulationError, WorkerFailure
from repro.sim.parallel import TRANSPORT_NAMES, Shard

if TYPE_CHECKING:
    from repro.sim.grid import NodeSpec
    from repro.sim.netchaos import NetChaosPlan
    from repro.sim.supervisor import GridFaultPlan


#: Exit code of a chaos-crashed worker (deterministic, unlike a signal).
CRASH_EXIT = 17

#: Net-fault kinds where the request is lost before it touches the wire.
_LOST_REQUEST = frozenset({"partition", "drop"})

#: Net-fault kinds where the request lands but the reply is stranded.
_LOST_REPLY = frozenset({"half_open", "reorder"})


# -- the agent (the far end of both transports) -------------------------------

class _Agent:
    """One shard served over the epoch protocol, whatever the fabric.

    The shard comes back to life through :meth:`Shard.replayed` — its
    journal replays silently before the ready handshake — so the epoch
    counter starts past the replayed entries: chaos fault schedules line
    up with the supervisor's global epoch numbering and replay itself is
    never faulted.

    Every reply is fenced with ``(incarnation, reply epoch)`` — captured
    *before* dispatch, so an advance that raises still fences with the
    epoch it was answering, and the parent can tell a genuine error reply
    from a stale straggler.
    """

    def __init__(
        self,
        entries: list[tuple["NodeSpec", int]],
        tick: float,
        journal: list[tuple[list, int, float]],
        chaos: "GridFaultPlan | None",
        worker_id: int,
        incarnation: int,
    ) -> None:
        self.shard = Shard.replayed(entries, tick, journal)
        self.epoch = len(journal)
        self.chaos = chaos
        self.worker_id = worker_id
        self.incarnation = incarnation

    def ready(self) -> tuple:
        return ("ok", "ready", self.incarnation, self.epoch)

    def handle(self, msg: tuple, die: Callable[[str], NoReturn]) -> tuple:
        """The fenced reply ``(tag, payload, incarnation, epoch)`` to one
        request.

        Chaos fires at the top of a live advance, before the shard moves,
        so a faulted epoch is never half-applied. A ``"garble"`` answers
        with a malformed report; a ``"crash"`` or ``"hang"`` is carried
        out by ``die(kind)``, which never returns — the one thing each
        fabric does its own way.
        """
        tag = msg[0]
        inc, reply_epoch = self.incarnation, self.epoch
        try:
            if tag == "advance":
                _, commands, n_ticks, frac = msg
                fault = (
                    self.chaos.decide(self.worker_id, reply_epoch, inc)
                    if self.chaos is not None
                    else None
                )
                if fault in ("crash", "hang"):
                    die(fault)
                self.epoch = reply_epoch + 1
                if fault == "garble":
                    return ("ok", {"garbled": reply_epoch}, inc, reply_epoch)
                payload = self.shard.advance(commands, n_ticks, frac)
            elif tag == "snapshot":
                payload = self.shard.snapshot_many(msg[1])
            else:
                return ("error", f"unknown message {tag!r}", inc, reply_epoch)
        except WorkerFailure:
            raise  # the in-process die()
        except Exception as exc:
            return ("error", f"{type(exc).__name__}: {exc}", inc, reply_epoch)
        return ("ok", payload, inc, reply_epoch)


def _die(kind: str) -> NoReturn:  # pragma: no cover - runs in a worker process
    """A chaos fault in an agent process: a crash exits with
    :data:`CRASH_EXIT`; a hang ignores SIGTERM and stops replying."""
    if kind == "crash":
        os._exit(CRASH_EXIT)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    while True:
        time.sleep(3600)


def _fork_agent_main(conn, *agent_args) -> None:  # pragma: no cover
    """Agent-process main loop: resurrect, hand-shake, then answer every
    pickled request until a close message or EOF."""
    agent = _Agent(*agent_args)
    reply = agent.ready()
    while True:
        try:
            conn.send_bytes(pickle.dumps(reply))
        except OSError:
            # Half-closed parent (teardown race, partition heal): the
            # reply is undeliverable; dropping it lets the loop reach
            # the EOF on its next recv and exit cleanly instead of
            # dying with a BrokenPipeError traceback.
            pass
        try:
            msg = pickle.loads(conn.recv_bytes())
        except (EOFError, OSError):
            break
        if msg[0] == "close":
            break
        reply = agent.handle(msg, _die)
    conn.close()


# -- parent-side transports ---------------------------------------------------

class ShardTransport:
    """One worker slot's link: spawn/replay, guarded round-trips, teardown.

    Subclasses implement the fabric through ``_spawn_raw``, ``_send_raw``,
    ``_recv_raw`` (raw replies are fenced 4-tuples ``(tag, payload,
    incarnation, epoch)``) and ``_close_link``; the failure taxonomy,
    byte accounting, the closed-state contract, network-chaos
    injection, epoch fencing and the agent-process teardown ladder are
    shared and live in the public :meth:`spawn` / :meth:`send` /
    :meth:`recv` / :meth:`reap` / :meth:`close` wrappers. ``worker_id``
    is the *global* worker index (fleet supervisors offset it per host)
    used in failure messages and as the chaos *link* id.
    """

    def __init__(
        self,
        worker_id: int,
        entries: list[tuple["NodeSpec", int]],
        tick: float,
        chaos: "GridFaultPlan | None" = None,
        netchaos: "NetChaosPlan | None" = None,
    ) -> None:
        self.worker_id = worker_id
        self.entries = entries
        self.tick = tick
        self.chaos = chaos
        self.netchaos = netchaos
        self.closed = False
        self.bytes_sent = 0
        self.bytes_received = 0
        self.proc: Any = None
        # -- fencing state ----------------------------------------------------
        #: Incarnation of the agent currently holding this slot.
        self.incarnation = 0
        #: Replies rejected because their fence was stale (split-brain
        #: stragglers that would otherwise double-apply an epoch).
        self.fenced_rejected = 0
        #: Round-trips the net-chaos plan faulted on this link.
        self.net_faults = 0
        #: The one ``(incarnation, epoch)`` the in-flight reply may carry.
        self._expect: tuple[int, int] = (0, 0)
        #: Next advance's global epoch number (journal length + live sends).
        self._net_epoch = 0
        # Attempt axis of the heal schedule: how many times the same
        # epoch's round-trip has been tried on this link. Survives
        # respawns — a partition heals after `duration` *attempts*, and
        # every attempt rides a fresh incarnation.
        self._attempt_epoch = -1
        self._attempt_count = 0
        #: Fault armed by :meth:`send`, resolved by the matching recv.
        self._pending_fault: tuple[str, int] | None = None
        #: Replies stranded by a cut link, delivered (and fence-rejected)
        #: after it heals. Parent-side, so it survives agent respawns —
        #: exactly like bytes buffered in a real healed TCP stream.
        self._stash: list[tuple] = []

    # -- failure constructors -----------------------------------------------
    def _closed_failure(self) -> WorkerFailure:
        return WorkerFailure(
            f"grid worker {self.worker_id} transport is closed",
            worker=self.worker_id,
            kind="closed",
        )

    def _crash_failure(self, detail: str = "died") -> WorkerFailure:
        return WorkerFailure(
            f"grid worker {self.worker_id} {detail}"
            + (
                f" (exitcode {self.exitcode})"
                if self.exitcode is not None
                else ""
            ),
            worker=self.worker_id,
            kind="crash",
            exitcode=self.exitcode,
        )

    def _hang_failure(self, timeout: float) -> WorkerFailure:
        return WorkerFailure(
            f"grid worker {self.worker_id} missed its {timeout:g}s deadline",
            worker=self.worker_id,
            kind="hang",
        )

    def _garbled_failure(self, detail: str) -> WorkerFailure:
        return WorkerFailure(
            f"grid worker {self.worker_id} {detail}",
            worker=self.worker_id,
            kind="garbled",
        )

    def _unreachable_failure(
        self, net_kind: str, epoch: int, timeout: float
    ) -> WorkerFailure:
        return WorkerFailure(
            f"grid worker {self.worker_id} is unreachable "
            f"(net {net_kind} on epoch {epoch}, {timeout:g}s deadline)",
            worker=self.worker_id,
            kind="unreachable",
        )

    # -- the contract ---------------------------------------------------------
    def spawn(self, replay: list, incarnation: int) -> None:
        """(Re)start the agent, resurrecting the shard from ``replay``.

        Sets the fence the ready handshake must carry; the stranded-reply
        stash deliberately survives into the new incarnation (that is the
        split-brain scenario fencing exists for).
        """
        self.incarnation = incarnation
        self._net_epoch = len(replay)
        self._expect = (incarnation, len(replay))
        self._pending_fault = None
        self._spawn_raw(replay, incarnation)

    def send(self, msg: tuple) -> None:
        """Send one request, consulting the net-chaos plan first.

        A faulted advance may never touch the wire at all (partition /
        drop): the request is lost exactly as a cut link loses it, and
        the paired :meth:`recv` raises ``kind="unreachable"`` instead of
        waiting out the deadline.
        """
        if self.closed:
            raise self._closed_failure()
        tag = msg[0]
        if tag == "advance":
            epoch = self._net_epoch
            self._expect = (self.incarnation, epoch)
            self._net_epoch = epoch + 1
            fault = self._net_decide(epoch)
            if fault is not None:
                self.net_faults += 1
                self._pending_fault = (fault, epoch)
                if fault in _LOST_REQUEST:
                    return
        elif tag == "snapshot":
            self._expect = (self.incarnation, self._net_epoch)
        self._send_raw(msg)

    def recv(self, timeout: float) -> tuple[str, Any]:
        """One reply ``(tag, payload)`` under a deadline, fence-checked.

        Replies whose ``(incarnation, epoch)`` fence does not match the
        in-flight round-trip — stragglers from a healed cut, duplicates,
        answers computed by a superseded incarnation — are discarded and
        counted in ``fenced_rejected``, never surfaced to the engine.
        """
        if self.closed:
            raise self._closed_failure()
        reply = self._next_reply(timeout)
        while (reply[2], reply[3]) != self._expect:
            self.fenced_rejected += 1
            reply = self._next_reply(timeout)
        return reply[0], reply[1]

    def _net_decide(self, epoch: int) -> str | None:
        """One heal-schedule step: the fault (if any) for this attempt."""
        if self.netchaos is None:
            return None
        if self._attempt_epoch != epoch:
            self._attempt_epoch = epoch
            self._attempt_count = 0
        attempt = self._attempt_count
        self._attempt_count += 1
        return self.netchaos.decide(self.worker_id, epoch, attempt)

    def _next_reply(self, timeout: float) -> tuple:
        """Next raw reply: resolve the armed fault, then stash, then wire."""
        fault = self._pending_fault
        if fault is not None:
            self._pending_fault = None
            net_kind, epoch = fault
            if net_kind in _LOST_REQUEST:
                raise self._unreachable_failure(net_kind, epoch, timeout)
            if net_kind in _LOST_REPLY:
                # The agent got the request and applied the epoch, but
                # the reply is stranded behind the cut: capture it for
                # post-heal delivery, then fail the round-trip.
                try:
                    self._stash.append(self._recv_raw(timeout))
                except WorkerFailure:
                    pass  # the agent also died; the cut adds nothing
                raise self._unreachable_failure(net_kind, epoch, timeout)
            if net_kind == "duplicate":
                reply = self._recv_raw(timeout)
                self._stash.append(reply)
                return reply
            # "delay": injected link latency; at or past the deadline it
            # is indistinguishable from a partition.
            latency = self.netchaos.latency_of(self.worker_id, epoch)
            if latency >= timeout:
                raise self._unreachable_failure(net_kind, epoch, timeout)
            if latency > 0.0:
                time.sleep(latency)
        if self._stash:
            return self._stash.pop(0)
        return self._recv_raw(timeout)

    # -- fabric primitives ----------------------------------------------------
    def _agent_args(self, replay: list, incarnation: int) -> tuple:
        """What an :class:`_Agent` for this slot is built from."""
        return (
            self.entries, self.tick, replay, self.chaos, self.worker_id,
            incarnation,
        )

    def _spawn_raw(self, replay: list, incarnation: int) -> None:
        raise NotImplementedError

    def _send_raw(self, msg: tuple) -> None:
        raise NotImplementedError

    def _recv_raw(self, timeout: float) -> tuple:
        """One fenced reply ``(tag, payload, incarnation, epoch)``."""
        raise NotImplementedError

    def is_alive(self) -> bool:
        return self.proc is not None and self.proc.is_alive()

    @property
    def exitcode(self) -> int | None:
        return self.proc.exitcode if self.proc is not None else None

    def reap(self) -> None:
        """Tear the agent down for good; keep whatever is needed to
        :meth:`spawn` a fresh incarnation."""
        self._close_link()
        self._end_proc(grace=0.0)

    def request_close(self) -> None:
        """Politely ask the agent to exit; mark the transport closed."""
        self.closed = True

    def finish_close(self, grace: float = 5.0) -> None:
        """Join (then escalate) and release every OS resource."""
        self._end_proc(grace)
        self._close_link()

    def close(self, grace: float = 5.0) -> None:
        """Full teardown; never raises a transport error.

        Teardown runs on failure paths, so :meth:`request_close` swallows
        a half-closed peer's BrokenPipeError: it must not mask the
        original :class:`WorkerFailure` the caller is unwinding with.
        """
        self.request_close()
        self.finish_close(grace)

    def _close_link(self) -> None:
        """Drop this side of the link to the current agent."""

    def _end_proc(self, grace: float) -> None:
        """The one teardown ladder: join for ``grace`` seconds, then
        SIGTERM, then SIGKILL (a hung agent ignores SIGTERM, and a
        stopped one never acts on it)."""
        proc = self.proc
        if proc is None:
            return
        proc.join(timeout=grace)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=1.0)
        if proc.is_alive():
            proc.kill()
            proc.join()
        self.proc = None


class InprocTransport(ShardTransport):
    """The shard in the caller's process: serial, zero-copy, zero bytes.

    The same agent as in a fork worker answers every request, so the
    ``decide(worker, epoch, incarnation)`` chaos schedule yields the
    same failure kinds at the same epochs, minus the OS: a "crash" marks
    the slot dead and raises, a "hang" raises without sleeping out a
    deadline. Net chaos lives entirely in the base class, so the
    in-process transport exhibits byte-for-byte the same
    unreachable/stale-reply schedule as the fork transport.
    """

    def __init__(self, worker_id, entries, tick, chaos=None,
                 netchaos=None) -> None:
        super().__init__(worker_id, entries, tick, chaos, netchaos)
        self.agent: _Agent | None = None
        self._dead = False
        self._inbox: list[tuple] = []
        self._pending: list[tuple] = []

    def _spawn_raw(self, replay: list, incarnation: int) -> None:
        self.agent = _Agent(*self._agent_args(replay, incarnation))
        self._dead = False
        self._inbox = []
        self._pending = [self.agent.ready()]

    def _send_raw(self, msg: tuple) -> None:
        if self._dead:
            raise self._crash_failure()
        self._inbox.append(msg)

    def _recv_raw(self, timeout: float) -> tuple:
        if self._pending:
            return self._pending.pop(0)
        if self._dead:
            raise self._crash_failure()
        if not self._inbox:
            raise self._hang_failure(timeout)

        def die(kind: str) -> NoReturn:
            if kind == "crash":
                self._dead = True
                raise self._crash_failure()
            raise self._hang_failure(timeout)

        return self.agent.handle(self._inbox.pop(0), die)

    def is_alive(self) -> bool:
        return self.agent is not None and not self._dead and not self.closed

    @property
    def exitcode(self) -> int | None:
        return CRASH_EXIT if self._dead else None

    def _close_link(self) -> None:
        self.agent = None
        self._inbox = []
        self._pending = []


class ForkTransport(ShardTransport):
    """A local agent process over a ``multiprocessing`` pipe.

    Messages are pickled tuples moved with ``send_bytes``/``recv_bytes``
    so the exact per-message wire size is accounted (``bytes_sent`` /
    ``bytes_received``). A reply that does not unpickle, or is not a
    fenced 4-tuple, fails the round-trip as ``kind="garbled"``.
    """

    def __init__(self, worker_id, entries, tick, chaos=None,
                 netchaos=None) -> None:
        super().__init__(worker_id, entries, tick, chaos, netchaos)
        self._ctx = multiprocessing.get_context()
        self.conn = None

    def _spawn_raw(self, replay: list, incarnation: int) -> None:
        parent, child = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_fork_agent_main,
            args=(child, *self._agent_args(replay, incarnation)),
            daemon=True,
        )
        proc.start()
        child.close()
        self.conn = parent
        self.proc = proc

    def _send_raw(self, msg: tuple) -> None:
        if self.conn is None:
            raise self._closed_failure()
        blob = pickle.dumps(msg)
        try:
            self.conn.send_bytes(blob)
        except (BrokenPipeError, OSError) as exc:
            if self.closed:
                raise self._closed_failure() from exc
            raise self._crash_failure(detail="is gone") from exc
        self.bytes_sent += len(blob)

    def _recv_raw(self, timeout: float) -> tuple:
        if self.conn is None:
            raise self._closed_failure()
        conn, proc = self.conn, self.proc
        remaining = timeout
        while not conn.poll(min(0.05, max(remaining, 0.0))):
            remaining -= 0.05
            if proc is not None and not proc.is_alive():
                if conn.poll(0):
                    break  # drain what it flushed before dying
                raise self._crash_failure()
            if remaining <= 0:
                raise self._hang_failure(timeout)
        try:
            blob = conn.recv_bytes()
        except (EOFError, OSError) as exc:
            if self.closed:
                raise self._closed_failure() from exc
            raise self._crash_failure(
                detail="closed its pipe mid-reply"
            ) from exc
        self.bytes_received += len(blob)
        try:
            msg = pickle.loads(blob)
        except Exception as exc:
            raise self._garbled_failure(
                f"sent an unpicklable reply: {exc}"
            ) from exc
        if not (
            isinstance(msg, tuple)
            and len(msg) == 4
            and isinstance(msg[2], int)
            and isinstance(msg[3], int)
        ):
            raise self._garbled_failure(f"sent a malformed reply: {msg!r}")
        return msg

    def request_close(self) -> None:
        self.closed = True
        if self.conn is not None:
            try:
                self.conn.send_bytes(pickle.dumps(("close",)))
            except (BrokenPipeError, OSError):
                pass

    def _close_link(self) -> None:
        if self.conn is not None:
            try:
                self.conn.close()
            except OSError:  # pragma: no cover - already torn down
                pass
            self.conn = None


def make_transport(
    name: str,
    worker_id: int,
    entries: list[tuple["NodeSpec", int]],
    tick: float,
    chaos: "GridFaultPlan | None" = None,
    netchaos: "NetChaosPlan | None" = None,
) -> ShardTransport:
    """Transport factory used by the supervised engine's worker slots."""
    if name == "inproc":
        return InprocTransport(worker_id, entries, tick, chaos, netchaos)
    if name == "fork":
        return ForkTransport(worker_id, entries, tick, chaos, netchaos)
    raise SimulationError(
        f"unknown shard transport {name!r} "
        f"(have: {', '.join(TRANSPORT_NAMES)})"
    )
