"""The collector daemon: one sampler, any number of subscribers.

Tiptop's premise is monitoring at negligible overhead (§2.5), but a
process-per-viewer design multiplies that overhead by the audience. The
daemon inverts it: ONE :class:`~repro.core.sampler.Sampler` runs the
refresh loop, and each resulting columnar frame is published through a
:class:`~repro.serve.session.FanoutHub` to every connected client. The
sampling cost is O(1) in client count — encoding happens once per
*distinct* subscription, delivery is a queue append per client — which
is the property ``benchmarks/test_serve_fanout.py`` pins down.

Handshake (client speaks first)::

    client -> HELLO     {"client": id, "resume": last-seen seq | null}
    server -> HELLO     {"version", "events", "columns", "retained", "seq"}
    client -> SUBSCRIBE {"pids", "comms", "columns", "exprs"}
    server -> FRAME*    (resumed backlog first, then live frames)
    server -> BYE       {"stats": exact per-client accounting}

A malformed subscription (bad expr syntax, wrong shapes) gets a BYE
carrying ``"error"`` instead of a stream. A client may send BYE at any
time to leave early and still receive its accounting.

Network chaos. When built with a
:class:`~repro.sim.netchaos.NetChaosPlan` the daemon consults it before
every frame send: the plan's :meth:`~repro.sim.netchaos.NetChaosPlan.cut`
decides per ``(client link, frame seq)`` whether the connection is
severed mid-stream (the write transport is aborted, not closed — bytes
in flight are lost like on a real cut). A client's link id is the crc32
of its client id, so each client's cut schedule is independent and
stable across reconnects. Attempt counts per ``(link, seq)`` live on
the daemon (not the session, which dies with the connection), so a
multi-attempt partition heals after its scheduled duration instead of
cutting the replayed frame forever. A count is dropped once its seq
can never be sent on that link again, which keeps the map within the
retention ring's span per link.
"""

from __future__ import annotations

import asyncio
from collections.abc import Callable
from time import perf_counter
from typing import TYPE_CHECKING

from repro.core.sampler import Sampler
from repro.errors import SessionError, WireError
from repro.serve import protocol
from repro.serve.session import FanoutHub, Subscription
from repro.serve.stream import MessageStream
from repro.util.chaos import crc

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.netchaos import NetChaosPlan


class CollectorDaemon:
    """Runs the sampler's refresh loop and fans frames out over TCP.

    Args:
        sampler: the one sampler whose frames every client shares.
        advance: called once per refresh *before* sampling — in sim mode
            this advances the virtual clock (e.g. ``machine.run_for``);
            None means free-running (wall-clock pacing only).
        iterations: publish this many frames then finish (None = forever).
        pace: real seconds to sleep between refreshes (0 still yields to
            the event loop so client pumps run).
        min_clients: hold the first refresh until this many subscribers
            completed their handshake — the fan-out equivalent of
            starting every viewer at the same baseline.
        queue_limit: per-client send-queue bound (drop-oldest beyond).
        retention: frames kept for resume-by-sequence.
        profile: per-refresh observability sink (a callable taking one
            formatted line); the CLI's ``--profile`` wires stderr here.
        netchaos: seeded link-fault schedule; cuts client connections
            mid-stream per (client link, frame seq). None disables
            injection (production shape).
    """

    def __init__(
        self,
        sampler: Sampler,
        *,
        advance: Callable[[], None] | None = None,
        iterations: int | None = None,
        pace: float = 0.0,
        min_clients: int = 0,
        queue_limit: int = 64,
        retention: int = 256,
        profile: Callable[[str], None] | None = None,
        netchaos: "NetChaosPlan | None" = None,
    ) -> None:
        self.sampler = sampler
        self.advance = advance
        self.iterations = iterations
        self.pace = pace
        self.min_clients = min_clients
        self.profile = profile
        self.netchaos = netchaos
        #: Cut connections so far (observability for tests and smoke).
        self.net_cuts = 0
        #: Send attempts per (link, seq). Daemon-level on purpose: the
        #: heal schedule must survive the reconnects it causes. Pruned
        #: after every publish by :meth:`_forget_unsendable`.
        self._net_attempts: dict[tuple[int, int], int] = {}
        self.hub = FanoutHub(queue_limit=queue_limit, retention=retention)
        self.finished = False
        self.port: int | None = None
        self._server: asyncio.AbstractServer | None = None
        self._ready = asyncio.Event()
        self._client_events: dict[str, asyncio.Event] = {}
        self._handlers: set[asyncio.Task] = set()
        self._anon = 0
        if min_clients == 0:
            self._ready.set()

    # -- lifecycle ----------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Bind and start accepting clients; returns the bound port."""
        self._server = await asyncio.start_server(self._accept, host, port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def run(self) -> dict:
        """The refresh loop: advance, sample, publish, pace; returns the
        hub's final accounting once ``iterations`` frames are out."""
        if self.min_clients:
            await self._ready.wait()
        # Baseline pass: attach counters, zero-length interval. Matches
        # the solo pipeline's cadence; the baseline is never published.
        self.sampler.sample_frame()
        published = 0
        while self.iterations is None or published < self.iterations:
            if self.advance is not None:
                self.advance()
            t0 = perf_counter()
            frame = self.sampler.sample_frame()
            t1 = perf_counter()
            seq = self.hub.publish(frame)
            if self.netchaos is not None:
                self._forget_unsendable()
            t2 = perf_counter()
            published += 1
            if self.profile is not None:
                stats = self.hub.stats()
                self.profile(
                    f"serve: seq={seq} tasks={len(frame)} "
                    f"clients={stats['clients']} "
                    f"sample={1e3 * (t1 - t0):.2f}ms "
                    f"fanout={1e3 * (t2 - t1):.2f}ms "
                    f"drops={stats['dropped_total']} "
                    f"lag={stats['lag_max']}"
                )
            await asyncio.sleep(self.pace)
        self.finished = True
        for event in self._client_events.values():
            event.set()
        return self.hub.stats()

    async def close(self) -> None:
        """Let pumps flush their queues and BYEs, then stop accepting."""
        self.finished = True
        for event in self._client_events.values():
            event.set()
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            # The server holds ``self._accept``: dropping it breaks the
            # cycle, so the daemon and its machine die with their run.
            self._server = None
        self.sampler.close()

    def _forget_unsendable(self) -> None:
        """Drop the attempt counts no later send can consult.

        A link sends a seq again only while its session still queues it
        or while the hub retains it for a resume; once a seq is older
        than both, its count is dead weight.
        """
        retained = self.hub.retained_range()
        oldest = retained[0] if retained else self.hub.next_seq
        floors: dict[int, int] = {}
        for session in self.hub.sessions.values():
            if session.head is not None:
                link = _link(session.client_id)
                floors[link] = min(floors.get(link, oldest), session.head)
        self._net_attempts = {
            key: count
            for key, count in self._net_attempts.items()
            if key[1] >= floors.get(key[0], oldest)
        }

    # -- per-client protocol ------------------------------------------------
    async def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is None:
            raise SessionError("client handler is not running as a task")
        self._handlers.add(task)
        stream = MessageStream(reader, writer)
        client_id: str | None = None
        try:
            client_id = await self._serve_client(stream)
        except (WireError, ConnectionError, OSError):
            pass  # broken peer: nothing useful left to tell it
        finally:
            if client_id is not None:
                self.hub.remove_session(client_id)
                self._client_events.pop(client_id, None)
            await stream.close()
            self._handlers.discard(task)

    async def _serve_client(self, stream: MessageStream) -> str | None:
        """Handshake + pump for one connection; returns the client id
        once registered (None if the peer never got that far)."""
        msg = await stream.recv()
        if msg is None or msg[0] != protocol.MSG_HELLO:
            return None
        hello = msg[1]
        client_id = str(hello.get("client") or self._anonymous_id())
        resume = hello.get("resume")
        retained = self.hub.retained_range()
        stream.send(
            protocol.encode_control(
                protocol.MSG_HELLO,
                {
                    "version": protocol.VERSION,
                    "screen": self.sampler.screen.name,
                    "events": [e.name for e in self.sampler.events],
                    "columns": [
                        [c.header, c.kind.value]
                        for c in self.sampler.screen.columns
                    ],
                    "retained": list(retained) if retained else None,
                    "seq": self.hub.next_seq,
                },
            )
        )
        await stream.drain()
        msg = await stream.recv()
        if msg is None:
            return None
        if msg[0] == protocol.MSG_BYE:
            return None
        if msg[0] != protocol.MSG_SUBSCRIBE:
            raise SessionError(f"expected SUBSCRIBE, got type {msg[0]}")
        event = asyncio.Event()
        if hello.get("takeover") and client_id in self.hub.sessions:
            # A reconnect raced its predecessor's teardown: the old
            # connection is dead but its handler has not unwound yet.
            # The redial claims the id explicitly (its HELLO carries
            # ``takeover``), so the newest connection wins and the
            # zombie's pump is woken to notice the closed session and
            # exit. A duplicate id *without* the claim still gets the
            # "already subscribed" BYE below.
            self.hub.remove_session(client_id)
            stale = self._client_events.pop(client_id, None)
            if stale is not None:
                stale.set()
        try:
            subscription = Subscription.from_dict(msg[1])
            session = self.hub.add_session(
                client_id,
                subscription,
                resume_from=int(resume) if resume is not None else None,
                on_enqueue=event.set,
            )
        except SessionError as exc:
            stream.send(
                protocol.encode_control(protocol.MSG_BYE, {"error": str(exc)})
            )
            await stream.drain()
            return None
        self._client_events[client_id] = event
        try:
            if session.lag or self.finished:
                event.set()  # resumed backlog (or post-run join) flushes now
            if (
                not self._ready.is_set()
                and len(self.hub.sessions) >= self.min_clients
            ):
                self._ready.set()
            bye_seen = asyncio.Event()
            watcher = asyncio.ensure_future(
                self._watch_for_bye(stream, bye_seen, event)
            )
            try:
                await self._pump(session, stream, event, bye_seen)
            finally:
                watcher.cancel()
            stream.send(
                protocol.encode_control(
                    protocol.MSG_BYE, {"stats": session.stats()}
                )
            )
            await stream.drain()
            return client_id
        finally:
            # Identity-guarded: a handler that died mid-pump must clean
            # up its own session here (its id never reaches _accept),
            # but must never tear down a successor that took the id
            # over while this handler was unwinding.
            if self.hub.sessions.get(client_id) is session:
                self.hub.remove_session(client_id)
            if self._client_events.get(client_id) is event:
                del self._client_events[client_id]

    async def _watch_for_bye(
        self,
        stream: MessageStream,
        bye_seen: asyncio.Event,
        pump_event: asyncio.Event,
    ) -> None:
        """A client may leave early (BYE or EOF) while frames flow."""
        try:
            while True:
                msg = await stream.recv()
                if msg is None or msg[0] == protocol.MSG_BYE:
                    break
        except (WireError, ConnectionError, OSError):
            pass
        bye_seen.set()
        pump_event.set()  # the pump may be parked on event.wait()

    async def _pump(
        self,
        session,
        stream: MessageStream,
        event: asyncio.Event,
        bye_seen: asyncio.Event,
    ) -> None:
        """Drain one session's queue to its socket until the run ends."""
        link = _link(session.client_id)
        while not (bye_seen.is_set() or session.closed):
            await event.wait()
            event.clear()
            if bye_seen.is_set() or session.closed:
                break
            while (item := session.pop()) is not None:
                if self.netchaos is not None:
                    seq = item[0]
                    attempt = self._net_attempts.get((link, seq), 0)
                    self._net_attempts[(link, seq)] = attempt + 1
                    if self.netchaos.cut(link, seq, attempt):
                        # The cut link loses whatever was in flight:
                        # abort (no FIN, no flush), so the client sees
                        # a reset or a truncated frame, never a clean
                        # end it could mistake for the server's BYE.
                        self.net_cuts += 1
                        stream.abort()
                        raise ConnectionResetError(
                            f"net chaos cut client "
                            f"{session.client_id!r} at seq {seq}"
                        )
                stream.send(item[1])
            await stream.drain()
            if self.finished and session.lag == 0:
                break

    def _anonymous_id(self) -> str:
        self._anon += 1
        return f"anon-{self._anon}"


def _link(client_id: str) -> int:
    """A client's net-chaos link id (stable across its reconnects)."""
    return crc(client_id) & 0x7FFFFFFF
