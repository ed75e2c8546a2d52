"""Per-subscriber state: subscriptions, bounded queues, resume.

The daemon's fanout invariant is that sampling stays O(1) in client
count; everything per-client lives here and is deliberately cheap:

* A :class:`Subscription` narrows what a client sees — task filters
  (pids/comms), column selection, and extra derived-metric expressions
  evaluated *server-side* over the columnar deltas (one vectorised pass,
  shared by every client with the same subscription).
* :class:`ClientSession` owns one bounded send queue. A slow consumer
  never blocks the sampler and never grows memory: when the queue is
  full the *oldest* pending frame is dropped (a telemetry viewer wants
  the freshest data, not a complete history), and the drop is counted.
  The accounting identity ``published == delivered + dropped + lag``
  holds at every instant and is what the backpressure property tests
  pin down.
* :class:`FanoutHub` multiplexes one published frame to every session,
  encoding once per *distinct* subscription (not per client), and keeps
  a bounded retention ring so a reconnecting client can resume from its
  last-seen sequence number.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from repro.core.expr import Expression, environment
from repro.core.frame import INTRINSIC_KINDS, SnapshotFrame
from repro.errors import ExprError, SessionError
from repro.serve.protocol import encode_frame

#: Column kinds that survive any column filter (task identity is always
#: delivered; filters act on counter/metric/label payload columns).
_INTRINSIC = frozenset(INTRINSIC_KINDS.values()) | {"health"}


@dataclass(frozen=True)
class Subscription:
    """What one client asked to receive.

    Attributes:
        pids: keep only these pids (None = all tasks).
        comms: keep only these command names (None = all).
        columns: keep only these delta/metric/label columns (None =
            all; intrinsic identity columns always pass).
        exprs: extra derived columns as ``(header, expression)`` pairs,
            evaluated server-side over the (row-filtered) delta columns.
    """

    pids: frozenset[int] | None = None
    comms: frozenset[str] | None = None
    columns: frozenset[str] | None = None
    exprs: tuple[tuple[str, str], ...] = ()

    def key(self) -> tuple:
        """Canonical value for the encode cache: equal keys mean every
        frame view (and hence every encoded payload) is identical."""
        return (
            tuple(sorted(self.pids)) if self.pids is not None else None,
            tuple(sorted(self.comms)) if self.comms is not None else None,
            tuple(sorted(self.columns)) if self.columns is not None else None,
            self.exprs,
        )

    @property
    def is_total(self) -> bool:
        """True when the subscription filters nothing and derives
        nothing — the client's stream is the sampler's stream."""
        return (
            self.pids is None
            and self.comms is None
            and self.columns is None
            and not self.exprs
        )

    # -- JSON (the SUBSCRIBE control body) ----------------------------------
    def to_dict(self) -> dict:
        return {
            "pids": sorted(self.pids) if self.pids is not None else None,
            "comms": sorted(self.comms) if self.comms is not None else None,
            "columns": (
                sorted(self.columns) if self.columns is not None else None
            ),
            "exprs": [list(pair) for pair in self.exprs],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Subscription":
        try:
            pids = data.get("pids")
            comms = data.get("comms")
            columns = data.get("columns")
            exprs = data.get("exprs") or []
            return cls(
                pids=(
                    frozenset(int(p) for p in pids)
                    if pids is not None
                    else None
                ),
                comms=(
                    frozenset(str(c) for c in comms)
                    if comms is not None
                    else None
                ),
                columns=(
                    frozenset(str(c) for c in columns)
                    if columns is not None
                    else None
                ),
                exprs=tuple(
                    (str(header), str(text)) for header, text in exprs
                ),
            )
        except (TypeError, ValueError) as exc:
            raise SessionError(f"malformed subscription: {exc}") from exc

    def compile_exprs(self) -> tuple[tuple[str, Expression], ...]:
        """Parse the derived-column expressions (raises
        :class:`~repro.errors.SessionError` on a syntax error)."""
        compiled = []
        for header, text in self.exprs:
            try:
                compiled.append((header, Expression(text)))
            except ExprError as exc:
                raise SessionError(
                    f"bad subscription expr {header!r}: {exc}"
                ) from exc
        return tuple(compiled)


def subscription_view(
    frame: SnapshotFrame,
    sub: Subscription,
    compiled: tuple[tuple[str, Expression], ...] | None = None,
) -> SnapshotFrame:
    """The frame exactly as a subscriber sees it.

    Row filters first, then server-side derived columns (evaluated over
    the filtered rows' full delta set, so an expr may reference a column
    the client did not subscribe to raw), then the column filter. A
    total subscription returns the frame object unchanged — the common
    thousands-of-dashboards case costs nothing per client.
    """
    if sub.is_total:
        return frame
    view = frame
    if sub.pids is not None or sub.comms is not None:
        mask = np.ones(len(view), dtype=bool)
        if sub.pids is not None:
            mask &= np.isin(view.pids, np.array(sorted(sub.pids), dtype=np.int64))
        if sub.comms is not None:
            mask &= np.fromiter(
                (c in sub.comms for c in view.comms),
                dtype=bool,
                count=len(view),
            )
        view = view.select(mask)
    if sub.exprs:
        if compiled is None:
            compiled = sub.compile_exprs()
        env = environment(view.deltas, view.interval, view.cpu_pct)
        metrics = dict(view.metrics)
        layout = list(view.columns)
        for header, expression in compiled:
            try:
                column = (
                    expression.evaluate_column(env, len(view))
                    if len(view)
                    else np.empty(0)
                )
            except ExprError:
                # An identifier this screen does not count: the column
                # exists (the client asked for it) but reads as NaN.
                column = np.full(len(view), math.nan)
            metrics[header] = column
            layout.append((header, "expr"))
        view = replace(view, metrics=metrics, columns=tuple(layout))
    if sub.columns is not None:
        keep = set(sub.columns) | {header for header, _ in sub.exprs}
        view = replace(
            view,
            deltas={k: v for k, v in view.deltas.items() if k in keep},
            metrics={k: v for k, v in view.metrics.items() if k in keep},
            labels={k: v for k, v in view.labels.items() if k in keep},
            columns=tuple(
                (header, kind)
                for header, kind in view.columns
                if kind in _INTRINSIC or header in keep
            ),
        )
    return view


class ClientSession:
    """One subscriber's bounded send queue and exact accounting.

    Attributes:
        client_id: stable identity (drives resume across reconnects).
        subscription: what this client receives.
        published: frames offered to this session (post-subscription).
        delivered: frames the consumer actually popped.
        dropped: frames evicted by backpressure (drop-oldest).
    """

    def __init__(
        self,
        client_id: str,
        subscription: Subscription,
        *,
        queue_limit: int = 64,
        on_enqueue: Callable[[], None] | None = None,
    ) -> None:
        if queue_limit < 1:
            raise SessionError(f"queue_limit must be >= 1, got {queue_limit}")
        self.client_id = client_id
        self.subscription = subscription
        self.compiled_exprs = subscription.compile_exprs()
        self.queue_limit = queue_limit
        self.published = 0
        self.delivered = 0
        self.dropped = 0
        self.last_offered_seq = -1
        self.last_popped_seq = -1
        self.closed = False
        self._queue: deque[tuple[int, bytes]] = deque()
        self._on_enqueue = on_enqueue

    @property
    def lag(self) -> int:
        """Frames sitting in the queue right now."""
        return len(self._queue)

    @property
    def head(self) -> int | None:
        """Sequence of the oldest pending frame (None when idle)."""
        return self._queue[0][0] if self._queue else None

    def offer(self, seq: int, payload: bytes) -> bool:
        """Enqueue one encoded frame; returns True if a drop happened.

        Sequence numbers must be strictly increasing per session —
        that's the wire contract the client's monotonicity check and the
        resume protocol both build on.
        """
        if seq <= self.last_offered_seq:
            raise SessionError(
                f"client {self.client_id}: publish seq {seq} after "
                f"{self.last_offered_seq} (must be monotonic)"
            )
        self.last_offered_seq = seq
        self.published += 1
        dropped = False
        if len(self._queue) >= self.queue_limit:
            self._queue.popleft()
            self.dropped += 1
            dropped = True
        self._queue.append((seq, payload))
        if self._on_enqueue is not None:
            self._on_enqueue()
        return dropped

    def pop(self) -> tuple[int, bytes] | None:
        """Dequeue the oldest pending frame (None when idle)."""
        if not self._queue:
            return None
        seq, payload = self._queue.popleft()
        self.delivered += 1
        self.last_popped_seq = seq
        return seq, payload

    def stats(self) -> dict:
        """The accounting snapshot (surfaced by ``--profile`` and BYE)."""
        return {
            "client": self.client_id,
            "published": self.published,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "lag": self.lag,
            "last_seq": self.last_popped_seq,
        }


class FanoutHub:
    """Publishes each frame once; every session sees its own view.

    Args:
        queue_limit: per-session send-queue bound (drop-oldest beyond).
        retention: how many (seq, frame) pairs to keep for resume.
    """

    def __init__(self, *, queue_limit: int = 64, retention: int = 256) -> None:
        self.queue_limit = queue_limit
        self.next_seq = 0
        self.sessions: dict[str, ClientSession] = {}
        self._retained: deque[tuple[int, SnapshotFrame]] = deque(
            maxlen=max(1, retention)
        )
        #: encode-cache hit/miss tallies (profile observability).
        self.encode_hits = 0
        self.encode_misses = 0

    # -- membership ---------------------------------------------------------
    def add_session(
        self,
        client_id: str,
        subscription: Subscription | None = None,
        *,
        resume_from: int | None = None,
        on_enqueue: Callable[[], None] | None = None,
        queue_limit: int | None = None,
    ) -> ClientSession:
        """Register a subscriber; optionally replay retained frames.

        ``resume_from`` is the client's last-seen sequence number: every
        retained frame with a strictly greater sequence is re-offered in
        order, so a reconnect after a drop (or a network blip) picks up
        at exactly the first frame the client has not seen — provided
        retention still holds it. Frames that aged out of retention are
        lost, which the client observes as a sequence gap.
        """
        if client_id in self.sessions:
            raise SessionError(f"client id {client_id!r} already subscribed")
        session = ClientSession(
            client_id,
            subscription or Subscription(),
            queue_limit=queue_limit or self.queue_limit,
            on_enqueue=on_enqueue,
        )
        self.sessions[client_id] = session
        if resume_from is not None:
            for seq, frame in self._retained:
                if seq > resume_from:
                    view = subscription_view(
                        frame, session.subscription, session.compiled_exprs
                    )
                    session.offer(seq, encode_frame(view, seq))
        return session

    def remove_session(self, client_id: str) -> None:
        session = self.sessions.pop(client_id, None)
        if session is not None:
            session.closed = True

    # -- publishing ---------------------------------------------------------
    def publish(self, frame: SnapshotFrame) -> int:
        """Fan one frame out to every session; returns its sequence.

        Encoding happens once per distinct subscription key: a thousand
        dashboards with the same (usually total) subscription cost one
        view + one encode, then N queue appends.
        """
        seq = self.next_seq
        self.next_seq += 1
        self._retained.append((seq, frame))
        cache: dict[tuple, bytes] = {}
        for session in self.sessions.values():
            key = session.subscription.key()
            payload = cache.get(key)
            if payload is None:
                view = subscription_view(
                    frame, session.subscription, session.compiled_exprs
                )
                payload = encode_frame(view, seq)
                cache[key] = payload
                self.encode_misses += 1
            else:
                self.encode_hits += 1
            session.offer(seq, payload)
        return seq

    def retained_range(self) -> tuple[int, int] | None:
        """(oldest, newest) retained sequence numbers (None when empty)."""
        if not self._retained:
            return None
        return self._retained[0][0], self._retained[-1][0]

    def stats(self) -> dict:
        """Hub-level accounting over all sessions."""
        sessions = [s.stats() for s in self.sessions.values()]
        return {
            "published_seqs": self.next_seq,
            "clients": len(sessions),
            "dropped_total": sum(s["dropped"] for s in sessions),
            "lag_max": max((s["lag"] for s in sessions), default=0),
            "encode_hits": self.encode_hits,
            "encode_misses": self.encode_misses,
            "sessions": sessions,
        }
