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
a missed deadline ``"hang"``, an unparseable reply ``"garbled"``, and
any operation after :meth:`ShardTransport.close` ``"closed"`` (so a send
racing engine teardown is a typed event, not a stray
``BrokenPipeError``). One agent class answers the protocol at the far
end of both fabrics, chaos (:class:`~repro.sim.supervisor.GridFaultPlan`)
included, so fault schedules and supervisor event logs are
transport-invariant: only how a chaos crash or hang is carried out
differs (the agent process exits or wedges; the in-process one marks its
slot dead or raises).

A respawn never hears the replaced agent: the fork transport opens a new
pipe per spawn and the in-process one drops its queues at reap, so each
incarnation's first reply is its own ready handshake.
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
    from repro.sim.supervisor import GridFaultPlan


#: Exit code of a chaos-crashed worker (deterministic, unlike a signal).
CRASH_EXIT = 17

#: The post-build handshake every agent sends first.
READY = ("ok", "ready")


# -- the agent (the far end of both transports) -------------------------------

class _Agent:
    """One shard served over the epoch protocol, whatever the fabric.

    The shard comes back to life through :meth:`Shard.replayed` — its
    journal replays silently before the ready handshake — so the epoch
    counter starts past the replayed entries: chaos fault schedules line
    up with the supervisor's global epoch numbering and replay itself is
    never faulted.
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

    def handle(self, msg: tuple, die: Callable[[str], NoReturn]) -> tuple:
        """The reply ``(tag, payload)`` to one request.

        Chaos fires at the top of a live advance, before the shard moves,
        so a faulted epoch is never half-applied. A ``"garble"`` answers
        with a malformed report; a ``"crash"`` or ``"hang"`` is carried
        out by ``die(kind)``, which never returns — the one thing each
        fabric does its own way.
        """
        tag = msg[0]
        try:
            if tag == "advance":
                _, commands, n_ticks, frac = msg
                epoch = self.epoch
                fault = (
                    self.chaos.decide(self.worker_id, epoch, self.incarnation)
                    if self.chaos is not None
                    else None
                )
                if fault in ("crash", "hang"):
                    die(fault)
                self.epoch = epoch + 1
                if fault == "garble":
                    return ("ok", {"garbled": epoch})
                payload = self.shard.advance(commands, n_ticks, frac)
            elif tag == "snapshot":
                payload = self.shard.snapshot_many(msg[1])
            else:
                return ("error", f"unknown message {tag!r}")
        except WorkerFailure:
            raise  # the in-process die()
        except Exception as exc:
            return ("error", f"{type(exc).__name__}: {exc}")
        return ("ok", payload)


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
    reply = READY
    while True:
        try:
            conn.send_bytes(pickle.dumps(reply))
        except OSError:
            # Half-closed parent (teardown race): the reply is
            # undeliverable; dropping it lets the loop reach the EOF on
            # its next recv and exit cleanly instead of dying with a
            # BrokenPipeError traceback.
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

    Subclasses implement the fabric through :meth:`spawn`, ``_send_raw``,
    ``_recv_raw`` (a raw reply is ``(tag, payload)``) and
    ``_close_link``; the failure taxonomy, byte accounting, the
    closed-state contract and the agent-process teardown ladder are
    shared and live in the public :meth:`send` / :meth:`recv` /
    :meth:`reap` / :meth:`close` wrappers. ``worker_id`` is the worker
    slot index, used in failure messages and as the chaos worker id.
    """

    def __init__(
        self,
        worker_id: int,
        entries: list[tuple["NodeSpec", int]],
        tick: float,
        chaos: "GridFaultPlan | None" = None,
    ) -> None:
        self.worker_id = worker_id
        self.entries = entries
        self.tick = tick
        self.chaos = chaos
        self.closed = False
        self.bytes_sent = 0
        self.bytes_received = 0
        self.proc: Any = None

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

    # -- the contract ---------------------------------------------------------
    def spawn(self, replay: list, incarnation: int) -> None:
        """(Re)start the agent, resurrecting the shard from ``replay``.

        Every spawn opens a fresh link whose first reply is the agent's
        ready handshake, so nothing the replaced agent sent can reach
        the new incarnation's round-trips.
        """
        raise NotImplementedError

    def send(self, msg: tuple) -> None:
        """Send one request to the agent."""
        if self.closed:
            raise self._closed_failure()
        self._send_raw(msg)

    def recv(self, timeout: float) -> tuple[str, Any]:
        """One reply ``(tag, payload)`` under a deadline."""
        if self.closed:
            raise self._closed_failure()
        return self._recv_raw(timeout)

    # -- fabric primitives ----------------------------------------------------
    def _agent_args(self, replay: list, incarnation: int) -> tuple:
        """What an :class:`_Agent` for this slot is built from."""
        return (
            self.entries, self.tick, replay, self.chaos, self.worker_id,
            incarnation,
        )

    def _send_raw(self, msg: tuple) -> None:
        raise NotImplementedError

    def _recv_raw(self, timeout: float) -> tuple:
        """One reply ``(tag, payload)``."""
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
    deadline.
    """

    def __init__(self, worker_id, entries, tick, chaos=None) -> None:
        super().__init__(worker_id, entries, tick, chaos)
        self.agent: _Agent | None = None
        self._dead = False
        self._inbox: list[tuple] = []
        self._pending: list[tuple] = []

    def spawn(self, replay: list, incarnation: int) -> None:
        self.agent = _Agent(*self._agent_args(replay, incarnation))
        self._dead = False
        self._inbox = []
        self._pending = [READY]

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
    2-tuple, fails the round-trip as ``kind="garbled"``.
    """

    def __init__(self, worker_id, entries, tick, chaos=None) -> None:
        super().__init__(worker_id, entries, tick, chaos)
        self._ctx = multiprocessing.get_context()
        self.conn = None

    def spawn(self, replay: list, incarnation: int) -> None:
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
        if not (isinstance(msg, tuple) and len(msg) == 2):
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
) -> ShardTransport:
    """Transport factory used by the supervised engine's worker slots."""
    if name == "inproc":
        return InprocTransport(worker_id, entries, tick, chaos)
    if name == "fork":
        return ForkTransport(worker_id, entries, tick, chaos)
    raise SimulationError(
        f"unknown shard transport {name!r} "
        f"(have: {', '.join(TRANSPORT_NAMES)})"
    )
