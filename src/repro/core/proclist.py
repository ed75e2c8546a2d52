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

Each tracked task owns one row of :attr:`ProcessList.tasks`, a
:class:`TaskTable` holding its counter group, health, delta baselines and
last sample, from attach until its group is closed.

The per-task ``health`` value ("ok", "retry", "reattached") feeds the
HEALTH screen column under ``--chaos``; :meth:`ProcessList.health_report`
adds the quarantined set for programmatic consumers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.options import Options
from repro.errors import PerfError, PerfPermissionError
from repro.perf.counter import Backend, CounterGroup, retry_transient
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


class TaskTable:
    """Every tracked task's state, one row per task.

    A row holds the task's ``tid``, ``pid``, counter ``group`` and attach
    ``serial`` (rows attached later have larger serials); its
    ``health``, and whether a ``"reattached"`` health was ``reported``;
    its delta baselines ``value``, ``time_enabled`` and ``time_running``
    (one column per event, zero at alloc, as a fresh counter starts); and
    its last sample: the pass ``time`` (NaN until first sampled),
    ``cpu_seconds`` (the %CPU baseline) and the ``uid``, ``processor``,
    ``user`` and ``comm`` it reports once no longer listed. Freed rows are
    recycled, so :attr:`size` never exceeds the most tasks held at once.

    Args:
        width: events per group.
    """

    _COLUMNS = (
        "tid", "pid", "group", "serial", "health", "reported", "value",
        "time_enabled", "time_running", "time", "cpu_seconds", "uid",
        "processor", "user", "comm",
    )

    def __init__(self, width: int) -> None:
        #: Rows handed out so far (free ones included).
        self.size = 0
        self.tid = np.zeros(1, dtype=np.int64)
        self.pid = np.zeros(1, dtype=np.int64)
        self.group = np.full(1, None, dtype=object)
        self.serial = np.zeros(1, dtype=np.int64)
        self._attaches = 0
        self.health = np.full(1, "", dtype=object)
        self.reported = np.zeros(1, dtype=bool)
        self.value = np.zeros((1, width), dtype=np.int64)
        self.time_enabled = np.zeros((1, width))
        self.time_running = np.zeros((1, width))
        self.time = np.full(1, np.nan)
        self.cpu_seconds = np.zeros(1)
        self.uid = np.zeros(1, dtype=np.int64)
        self.processor = np.zeros(1, dtype=np.int64)
        self.user = np.full(1, "", dtype=object)
        self.comm = np.full(1, "", dtype=object)
        self._free: list[int] = []

    def alloc(self, tid: int, pid: int, group: CounterGroup, health: str) -> int:
        """A row for a newly attached task, never sampled yet."""
        if self._free:
            row = self._free.pop()
        else:
            row = self.size
            self.size += 1
            if row == len(self.tid):
                for name in self._COLUMNS:
                    old = getattr(self, name)
                    setattr(self, name, np.concatenate([old, np.zeros_like(old)]))
        self.tid[row] = tid
        self.pid[row] = pid
        self.group[row] = group
        self.serial[row] = self._attaches
        self._attaches += 1
        self.health[row] = health
        self.reported[row] = False
        self.value[row] = 0
        self.time_enabled[row] = 0.0
        self.time_running[row] = 0.0
        self.time[row] = np.nan
        return row

    def free(self, row: int) -> None:
        """Close the row's counter group and return the row for reuse."""
        group, self.group[row] = self.group[row], None
        group.close()
        self._free.append(row)

    def record(
        self, rows: np.ndarray, table: ProcessTable, at: np.ndarray, now: float
    ) -> None:
        """Take listing rows ``at`` as the last samples of ``rows``."""
        self.time[rows] = now
        self.cpu_seconds[rows] = table.cpu_seconds[at]
        self.uid[rows] = table.uid[at]
        self.processor[rows] = table.processor[at]
        self.user[rows] = np.array(table.user, dtype=object)[at]
        self.comm[rows] = np.array(table.comm, dtype=object)[at]

    def fold(
        self,
        rows: np.ndarray,
        value: np.ndarray,
        time_enabled: np.ndarray,
        time_running: np.ndarray,
    ) -> np.ndarray:
        """Scaled deltas of ``rows`` since their baselines; the baselines
        move to the new readings.

        The array form of :meth:`~repro.perf.counter.Counter._delta_from`,
        bit for bit, over readings shaped ``(len(rows), width)``.

        Returns:
            Event-major ``(width, len(rows))`` deltas: Δvalue·(Δte/Δtr),
            and 0.0 where the counter never ran (Δtr <= 0).
        """
        d_value = value - self.value[rows]
        d_enabled = time_enabled - self.time_enabled[rows]
        d_running = time_running - self.time_running[rows]
        self.value[rows] = value
        self.time_enabled[rows] = time_enabled
        self.time_running[rows] = time_running
        with np.errstate(all="ignore"):
            scaled = np.where(
                d_running > 0, d_value * (d_enabled / d_running), 0.0
            )
        return np.ascontiguousarray(scaled.T)


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
    #: Row of :attr:`tasks` per tracked tid, in attach order.
    tracked: dict[int, int] = field(default_factory=dict)
    denied: set[int] = field(default_factory=set)
    quarantined: dict[int, QuarantineEntry] = field(default_factory=dict)
    #: Quarantine episodes per tid, surviving reattach so a flapping task
    #: (fail, reattach, fail again) keeps escalating its backoff; cleared
    #: by the sampler once the task completes a clean interval.
    quarantine_history: dict[int, int] = field(default_factory=dict)
    attach_errors: int = 0
    attach_retries: int = 0
    refresh_count: int = 0
    #: Every tracked task's state, one row per task.
    tasks: TaskTable = field(init=False)

    def __post_init__(self) -> None:
        self.tasks = TaskTable(len(self.events))

    def refresh(self, table: ProcessTable) -> tuple[list[int], list[int]]:
        """Apply this refresh's /proc listing: attach new tasks, drop dead
        ones.

        Args:
            table: every live process, as the sampling pass listed it.

        Returns:
            (attached_tids, detached_tids) for this refresh.
        """
        self.refresh_count += 1
        rows = watched(self.options, table)
        pids = table.pid[rows].tolist()
        # Every task the filters let through and its pid, in listing
        # order (pid order, then thread order).
        if self.options.per_thread:
            groups = [table.tids[k] for k in rows.tolist()]
            tids = [tid for group in groups for tid in group]
            owners = [pid for pid, group in zip(pids, groups) for _ in group]
        else:
            tids = owners = pids
        visible = dict(zip(tids, range(len(tids))))

        # New and gone tasks by set difference: the loops below visit
        # only tasks that changed, new ones in listing order, gone ones
        # in attach order.
        attached: list[int] = []
        fresh = visible.keys() - self.tracked.keys() - self.denied
        for tid in sorted(fresh, key=visible.__getitem__):
            entry = self.quarantined.get(tid)
            if entry is not None and self.refresh_count < entry.eligible_at:
                continue
            if len(self.tracked) >= self.options.max_tasks:
                break
            group = self._attach(tid)
            if group is None:
                continue
            self.quarantined.pop(tid, None)
            health = "ok" if entry is None else "reattached"
            pid = owners[visible[tid]]
            self.tracked[tid] = self.tasks.alloc(tid, pid, group, health)
            attached.append(tid)

        detached: list[int] = []
        gone = self.tracked.keys() - visible.keys()
        tasks = self.tasks
        for tid in sorted(gone, key=lambda tid: tasks.serial[self.tracked[tid]]):
            tasks.free(self.tracked.pop(tid))
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

    def quarantine(self, tid: int, reason: str) -> None:
        """Bench a failing task: close its counters now, reattach later.

        The group close is guaranteed (exception-safe per counter), so a
        quarantined task never leaks handles. Repeat offenders wait
        exponentially longer: ``2**(failures-1)`` refreshes, capped at
        :data:`MAX_QUARANTINE_REFRESHES`.
        """
        row = self.tracked.pop(tid, None)
        if row is not None:
            self.tasks.free(row)
        failures = self.quarantine_history.get(tid, 0) + 1
        self.quarantine_history[tid] = failures
        backoff = min(2 ** (failures - 1), MAX_QUARANTINE_REFRESHES)
        self.quarantined[tid] = QuarantineEntry(
            failures=failures,
            eligible_at=self.refresh_count + backoff,
            reason=reason,
        )

    def health_report(self) -> dict[int, str]:
        """Lifecycle state of every known task (tracked and benched)."""
        report = {tid: self.tasks.health[row] for tid, row in self.tracked.items()}
        for tid in self.quarantined:
            report[tid] = "quarantined"
        return report

    def close(self) -> None:
        """Detach everything (shutdown)."""
        for row in self.tracked.values():
            self.tasks.free(row)
        self.tracked.clear()
