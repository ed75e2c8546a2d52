"""High-level counter objects over a perf backend.

:class:`Counter` owns one open counter on one task and knows how to read
*scaled deltas*: tiptop samples at coarse intervals and displays the number
of events since the last refresh (§2.3), scaling by
``time_enabled / time_running`` when the kernel multiplexed the counter off
the PMU part of the time. :class:`CounterGroup` bundles the counters of one
task (one per event of interest) behind a single ``read_deltas`` call.

A sampling pass reads every tracked task at once: :func:`read_groups`
takes one handle list per task and makes one batched backend call when the
backend offers one (the analogue of PERF_FORMAT_GROUP, where one
``read(2)`` returns a whole group). The process list's task table keeps
the delta baselines of all tasks in arrays and scales every delta in one
numpy step (:meth:`repro.core.proclist.TaskTable.fold`).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Protocol, TypeVar

import numpy as np

from repro.errors import CounterStateError, PerfError, TransientPerfError
from repro.perf.events import EventSpec

#: Extra attempts after a transient perf error (EINTR/EAGAIN/corrupt
#: read) before an attach or a read is given up for the refresh.
RETRY_LIMIT = 2

T = TypeVar("T")


def retry_transient(op: Callable[[], T], on_retry: Callable[[], None]) -> T:
    """Call ``op``, retrying transient perf errors up to :data:`RETRY_LIMIT`
    extra times.

    ``on_retry`` runs before each retry, so retries that precede a hard
    error or exhaustion are counted too. Retries are immediate.

    Raises:
        TransientPerfError: the last transient error, once the budget is
            spent.
        PerfError: any other error, at once.
    """
    retries = 0
    while True:
        try:
            return op()
        except TransientPerfError:
            if retries == RETRY_LIMIT:
                raise
            retries += 1
            on_retry()


@dataclass(frozen=True)
class Reading:
    """One raw counter read: value plus the kernel's two clocks."""

    value: int
    time_enabled: float
    time_running: float


class Backend(Protocol):
    """The kernel-facing surface both backends implement.

    Handles are opaque integers (file descriptors for the real kernel).
    A backend may also offer ``read_groups(groups) -> GroupReads``, one
    call for a whole sampling pass; :func:`read_groups` falls back to
    per-handle :meth:`read` calls for a backend without it.
    """

    def open(
        self,
        event: EventSpec,
        tid: int,
        *,
        inherit: bool = False,
        sample_period: int | None = None,
    ) -> int:
        """Open a counter on task ``tid``; returns a handle.

        ``sample_period`` selects sampling mode (statistical, §2.5) instead
        of the default exact counting.

        Raises:
            NoSuchTaskError: dead/unknown task.
            PerfPermissionError: caller may not monitor that task.
            PerfNotSupportedError: no usable PMU.
        """
        ...

    def read(self, handle: int) -> Reading:
        """Read a counter (value, time_enabled, time_running)."""
        ...

    def enable(self, handle: int) -> None:
        """Arm the counter (ioctl ENABLE)."""
        ...

    def disable(self, handle: int) -> None:
        """Disarm the counter (ioctl DISABLE)."""
        ...

    def reset(self, handle: int) -> None:
        """Zero the counter value (ioctl RESET)."""
        ...

    def close(self, handle: int) -> None:
        """Release the handle."""
        ...


class Counter:
    """One event on one task, with delta reads.

    Args:
        backend: the kernel backend.
        event: resolved event spec.
        tid: target task id.
        inherit: count the task's (future) children/threads too.
        sample_period: open in sampling mode with this period (default:
            exact counting, which is what tiptop uses — §2.5).
    """

    def __init__(
        self,
        backend: Backend,
        event: EventSpec,
        tid: int,
        *,
        inherit: bool = False,
        sample_period: int | None = None,
    ) -> None:
        self.backend = backend
        self.event = event
        self.tid = tid
        self.sample_period = sample_period
        self._handle: int | None = backend.open(
            event, tid, inherit=inherit, sample_period=sample_period
        )
        self._last = Reading(0, 0.0, 0.0)

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has been called."""
        return self._handle is None

    def _require_handle(self) -> int:
        if self._handle is None:
            raise CounterStateError(f"counter for {self.event.name} is closed")
        return self._handle

    def read(self) -> Reading:
        """Raw cumulative reading (does not move the delta baseline)."""
        return self.backend.read(self._require_handle())

    def delta(self) -> float:
        """Scaled event count since the previous ``delta()`` call.

        When the counter was multiplexed (ran for only part of the enabled
        time), the delta is extrapolated by ``d_enabled / d_running`` — the
        standard perf scaling. Returns 0.0 for an interval in which the
        counter never ran.
        """
        return self._delta_from(self.read())

    def _delta_from(self, now: Reading) -> float:
        """Fold one raw reading into the delta baseline
        (:meth:`repro.core.proclist.TaskTable.fold` is the same rule over
        arrays)."""
        d_value = now.value - self._last.value
        d_enabled = now.time_enabled - self._last.time_enabled
        d_running = now.time_running - self._last.time_running
        self._last = now
        if d_running <= 0:
            return 0.0
        return d_value * (d_enabled / d_running)

    def enable(self) -> None:
        """Arm the counter."""
        self.backend.enable(self._require_handle())

    def disable(self) -> None:
        """Disarm the counter."""
        self.backend.disable(self._require_handle())

    def reset(self) -> None:
        """Zero the kernel value and the delta baseline."""
        self.backend.reset(self._require_handle())
        self._last = Reading(0, self._last.time_enabled, self._last.time_running)

    def close(self) -> None:
        """Release the kernel handle (idempotent).

        The handle is forgotten *before* the backend call returns: even
        when ``close`` itself fails (an interrupted ``close(2)`` still
        releases the fd on Linux, and both backends mirror that), the
        counter never retains a handle it might double-close or leak.
        """
        if self._handle is not None:
            handle, self._handle = self._handle, None
            self.backend.close(handle)

    def __enter__(self) -> "Counter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class CounterGroup:
    """All monitored events of one task.

    Args:
        backend: the kernel backend.
        events: resolved event specs (order preserved).
        tid: target task id.
        inherit: per-process counting (fold in all the task's threads).
    """

    def __init__(
        self,
        backend: Backend,
        events: list[EventSpec],
        tid: int,
        *,
        inherit: bool = False,
    ) -> None:
        self.tid = tid
        self.counters: list[Counter] = []
        try:
            for event in events:
                self.counters.append(
                    Counter(backend, event, tid, inherit=inherit)
                )
        except Exception:
            # Partial open: if event k of n failed, release the k-1
            # already-open handles before the error propagates — a group
            # either exists fully or not at all.
            self.close()
            raise
        #: The group's handles in event order, as :func:`read_groups`
        #: takes them (stale once the group is closed).
        self.handles = tuple(c._require_handle() for c in self.counters)

    def read_deltas(self) -> dict[str, float]:
        """Scaled deltas for every event, keyed by event name.

        Two-phase: every counter is read *before* any delta baseline
        moves. A read that fails mid-group (EINTR on counter k of n)
        therefore leaves all n baselines untouched, and a retry of the
        whole group reports the full interval for every counter.
        """
        readings = [c.read() for c in self.counters]
        return {
            c.event.name: c._delta_from(r)
            for c, r in zip(self.counters, readings)
        }

    def enable(self) -> None:
        """Arm every counter."""
        for c in self.counters:
            c.enable()

    def disable(self) -> None:
        """Disarm every counter."""
        for c in self.counters:
            c.disable()

    def close(self) -> None:
        """Release every handle (idempotent, exception-safe).

        A failing close of one counter (stale handle, injected EINTR)
        must not strand the remaining handles, so per-counter perf errors
        are swallowed; the underlying fd is released either way (both
        backends release before raising, as ``close(2)`` does).
        """
        for c in self.counters:
            try:
                c.close()
            except PerfError:
                pass

    def __enter__(self) -> "CounterGroup":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


@dataclass(frozen=True)
class GroupReads:
    """One sampling pass's counter reads (what :func:`read_groups` returns).

    Attributes:
        value: raw counter values, int64, one entry per handle with the
            groups concatenated in order (zero for a failed group).
        time_enabled: the kernel's enabled clock per handle, float64.
        time_running: the kernel's running clock per handle, float64.
        errors: the error that failed a group's read once retries were
            spent, by group index in ascending order; clean groups are
            absent.
        retries: per group, the transient retries it used (int64).
    """

    value: np.ndarray
    time_enabled: np.ndarray
    time_running: np.ndarray
    errors: dict[int, PerfError]
    retries: np.ndarray


def read_groups(backend: Backend, groups: Sequence[Sequence[int]]) -> GroupReads:
    """Read a whole pass: one handle list per task, in one backend call
    when the backend offers ``read_groups``, else one :meth:`Backend.read`
    per handle (:func:`read_each_group`).

    Either way each group's read succeeds whole or fails alone, and a
    batched backend answers bit for bit what its per-handle reads would.
    """
    batched = getattr(backend, "read_groups", None)
    if batched is not None:
        return batched(groups)
    return read_each_group(
        lambda handles: [backend.read(h) for h in handles], groups
    )


def read_each_group(
    read_group: Callable[[Sequence[int]], list[Reading]],
    groups: Sequence[Sequence[int]],
) -> GroupReads:
    """A pass as one ``read_group`` call per group, each under
    :func:`retry_transient`.

    A fault fails only its own group, and a group's retries happen in
    place, before the next group's first read.
    """
    n = sum(map(len, groups))
    value = np.zeros(n, dtype=np.int64)
    enabled = np.zeros(n)
    running = np.zeros(n)
    errors: dict[int, PerfError] = {}
    retries = np.zeros(len(groups), dtype=np.int64)
    start = 0
    for k, handles in enumerate(groups):
        spent: list[None] = []
        try:
            readings = retry_transient(
                lambda: read_group(handles), lambda: spent.append(None)
            )
        except PerfError as exc:
            errors[k] = exc
        else:
            stop = start + len(handles)
            value[start:stop] = [r.value for r in readings]
            enabled[start:stop] = [r.time_enabled for r in readings]
            running[start:stop] = [r.time_running for r in readings]
        retries[k] = len(spent)
        start += len(handles)
    return GroupReads(value, enabled, running, errors, retries)
