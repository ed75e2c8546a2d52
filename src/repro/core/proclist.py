"""Tracked-task set: discover, attach, detach — and survive failures.

Each refresh applies the sampling pass's one /proc listing: new tasks get
counters attached (monitoring can start at any time — no restart needed,
§2.2), and tasks that exited are detached and their counters closed. The
attach/read error paths follow an explicit lifecycle policy:

* **Permission denials** (other users' processes under an unprivileged
  monitor) are remembered so they are not retried on every refresh.
* **Transient errors** (EINTR/EAGAIN/corrupt reads) get up to
  :data:`~repro.perf.counter.RETRY_LIMIT` immediate retries
  (:func:`~repro.perf.counter.retry_transient`, the one rule both attach
  and read follow); only exhaustion counts as an attach failure, and the
  task is retried at the next refresh.
* **Per-task failures** (stale handles, ESRCH mid-read) *quarantine* the
  task: its counters are closed at once (no fd leaks), and reattach is
  attempted after an exponentially growing number of refreshes. A task
  that comes back is marked ``reattached`` for one interval. The episode
  count survives reattach (a flapping task keeps escalating) until the
  task completes a clean interval.

Each tracked task owns one row of :attr:`ProcessList.baselines`, its
counters' delta baselines, from attach until its group is closed. The same
row indexes :attr:`ProcessList.last`, what the task's last sample listed
in /proc.

The per-task ``health`` value ("ok", "retry", "reattached") feeds the
HEALTH screen column under ``--chaos``; :meth:`ProcessList.health_report`
adds the quarantined set for programmatic consumers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.options import Options
from repro.errors import PerfError, PerfPermissionError
from repro.perf.counter import (
    Backend,
    BaselineTable,
    CounterGroup,
    retry_transient,
)
from repro.perf.events import EventSpec
from repro.procfs.model import ProcessTable

#: Cap on the quarantine backoff, in refreshes (2**(failures-1), clamped).
MAX_QUARANTINE_REFRESHES = 8


def watched(options: Options, table: ProcessTable) -> np.ndarray:
    """Rows of ``table`` that pass the watch filters, in pid order."""
    keep = np.ones(len(table), dtype=bool)
    if options.watch_uid is not None:
        keep &= table.uid == options.watch_uid
    if options.watch_pids:
        keep &= np.isin(table.pid, np.fromiter(options.watch_pids, np.int64))
    return np.flatnonzero(keep)


class LastSamples:
    """What each tracked task's last clean sample listed, one entry per
    baseline row.

    ``time`` is the pass time of that sample, NaN until the task is first
    sampled; ``cpu_seconds`` is the task's %CPU baseline; ``uid``,
    ``user``, ``comm`` and ``processor`` are the identity a row reports
    once the task is no longer listed.
    """

    _COLUMNS = ("time", "cpu_seconds", "uid", "processor", "user", "comm")

    def __init__(self) -> None:
        self.time = np.full(1, np.nan)
        self.cpu_seconds = np.zeros(1)
        self.uid = np.zeros(1, dtype=np.int64)
        self.processor = np.zeros(1, dtype=np.int64)
        self.user = np.full(1, "", dtype=object)
        self.comm = np.full(1, "", dtype=object)

    def reset(self, row: int) -> None:
        """Mark a newly allocated baseline row as never sampled."""
        if row >= len(self.time):
            for name in self._COLUMNS:
                old = getattr(self, name)
                setattr(self, name, np.concatenate([old, np.zeros_like(old)]))
        self.time[row] = np.nan

    def record(
        self, rows: np.ndarray, table: ProcessTable, at: np.ndarray, now: float
    ) -> None:
        """Take table rows ``at`` as the last samples of ``rows``."""
        self.time[rows] = now
        self.cpu_seconds[rows] = table.cpu_seconds[at]
        self.uid[rows] = table.uid[at]
        self.processor[rows] = table.processor[at]
        self.user[rows] = np.array(table.user, dtype=object)[at]
        self.comm[rows] = np.array(table.comm, dtype=object)[at]


@dataclass
class TrackedTask:
    """One monitored task and its counters.

    ``tid`` is the process pid in per-process mode, or an individual thread
    id in per-thread mode (§2.2). ``row`` is the task's row in the process
    list's baseline table and last samples. ``health`` is the task's
    lifecycle state as of its last sampled interval.
    """

    pid: int
    tid: int
    group: CounterGroup
    row: int
    health: str = "ok"
    reattach_reported: bool = False


@dataclass
class QuarantineEntry:
    """Why a task is benched and when it may come back.

    Attributes:
        failures: quarantine episodes so far (drives the backoff).
        eligible_at: refresh counter value at which reattach is allowed.
        reason: exception class name of the failure that benched it.
    """

    failures: int
    eligible_at: int
    reason: str


@dataclass
class ProcessList:
    """The set of currently monitored tasks.

    Args:
        backend: perf backend for counter attach/close.
        events: counter events each task gets.
        options: watch filters, per-thread mode, task cap.
    """

    backend: Backend
    events: list[EventSpec]
    options: Options
    tracked: dict[int, TrackedTask] = field(default_factory=dict)
    denied: set[int] = field(default_factory=set)
    quarantined: dict[int, QuarantineEntry] = field(default_factory=dict)
    #: Quarantine episodes per tid, surviving reattach so a flapping task
    #: (fail, reattach, fail again) keeps escalating its backoff; cleared
    #: by :meth:`note_healthy` once the task completes a clean interval.
    quarantine_history: dict[int, int] = field(default_factory=dict)
    attach_errors: int = 0
    attach_retries: int = 0
    refresh_count: int = 0
    #: Delta baselines, one row per tracked task and one column per event.
    baselines: BaselineTable = field(init=False)
    #: What each tracked task's last sample listed, on the same rows.
    last: LastSamples = field(init=False)

    def __post_init__(self) -> None:
        self.baselines = BaselineTable(len(self.events))
        self.last = LastSamples()

    def refresh(
        self, table: ProcessTable
    ) -> tuple[list[TrackedTask], list[int]]:
        """Apply this refresh's /proc listing: attach new tasks, drop dead
        ones.

        Args:
            table: every live process, as the sampling pass listed it.

        Returns:
            (attached, detached_tids) for this refresh.
        """
        self.refresh_count += 1
        rows = watched(self.options, table)
        pids = table.pid[rows].tolist()
        # tid -> pid of every task the filters let through, in pid order.
        if self.options.per_thread:
            tids = [table.tids[k] for k in rows.tolist()]
            visible = {tid: pid for pid, group in zip(pids, tids) for tid in group}
        else:
            visible = dict(zip(pids, pids))

        attached: list[TrackedTask] = []
        for tid, pid in visible.items():
            if tid in self.tracked or tid in self.denied:
                continue
            entry = self.quarantined.get(tid)
            if entry is not None and self.refresh_count < entry.eligible_at:
                continue
            if len(self.tracked) >= self.options.max_tasks:
                break
            group = self._attach(tid)
            if group is None:
                continue
            row = self.baselines.alloc()
            self.last.reset(row)
            task = TrackedTask(pid=pid, tid=tid, group=group, row=row)
            if entry is not None:
                del self.quarantined[tid]
                task.health = "reattached"
            self.tracked[tid] = task
            attached.append(task)

        detached: list[int] = []
        for tid in list(self.tracked):
            if tid not in visible:
                self._release(self.tracked.pop(tid))
                detached.append(tid)
        # A quarantined task that is no longer even listed has exited for
        # good; tids are not recycled, so its entry is dead weight.
        for tid in list(self.quarantined):
            if tid not in visible:
                del self.quarantined[tid]
                self.quarantine_history.pop(tid, None)
        # Denials go the same way. On a real kernel tids are recycled, and
        # a stale denial would skip a later task the monitor may count.
        self.denied.intersection_update(visible)
        return attached, detached

    def _attach(self, tid: int) -> CounterGroup | None:
        """Open the task's counter group under :func:`retry_transient`.

        Exhausted retries or a hard error count one attach failure and
        leave the task for the next refresh. Permission denials are
        cached while the task stays listed.
        """
        try:
            return retry_transient(
                lambda: CounterGroup(
                    self.backend,
                    self.events,
                    tid,
                    inherit=not self.options.per_thread,
                ),
                self._count_attach_retry,
            )
        except PerfPermissionError:
            self.denied.add(tid)
        except PerfError:
            self.attach_errors += 1
        return None

    def _count_attach_retry(self) -> None:
        self.attach_retries += 1

    def _release(self, task: TrackedTask) -> None:
        """Close a task's counters and free its baseline row."""
        task.group.close()
        self.baselines.free(task.row)

    def quarantine(self, tid: int, reason: str) -> None:
        """Bench a failing task: close its counters now, reattach later.

        The group close is guaranteed (exception-safe per counter), so a
        quarantined task never leaks handles. Repeat offenders wait
        exponentially longer: ``2**(failures-1)`` refreshes, capped at
        :data:`MAX_QUARANTINE_REFRESHES`.
        """
        task = self.tracked.pop(tid, None)
        if task is not None:
            self._release(task)
        failures = self.quarantine_history.get(tid, 0) + 1
        self.quarantine_history[tid] = failures
        backoff = min(2 ** (failures - 1), MAX_QUARANTINE_REFRESHES)
        self.quarantined[tid] = QuarantineEntry(
            failures=failures,
            eligible_at=self.refresh_count + backoff,
            reason=reason,
        )

    def note_healthy(self, tid: int) -> None:
        """Forget a task's quarantine history after a clean interval.

        Without this, one bad episode would permanently inflate the
        backoff of every later (unrelated) failure; with it, only tasks
        that keep failing *before proving themselves* escalate.
        """
        self.quarantine_history.pop(tid, None)

    def health_report(self) -> dict[int, str]:
        """Lifecycle state of every known task (tracked and benched)."""
        report = {tid: task.health for tid, task in self.tracked.items()}
        for tid in self.quarantined:
            report[tid] = "quarantined"
        return report

    def close(self) -> None:
        """Detach everything (shutdown)."""
        for task in self.tracked.values():
            self._release(task)
        self.tracked.clear()
