"""The sampling loop: counter deltas -> a columnar frame of derived metrics.

Tiptop is "basically an infinite loop that displays how many times the
requested events have happened for each task, and then goes idle until some
timeout expires" (§2.3). :class:`Sampler` owns one turn of that loop: list
/proc once, read every tracked task's counters against that listing,
compute per-interval deltas and the screen's derived columns, and emit one
:class:`~repro.core.frame.SnapshotFrame` — the columnar block the rest of
the pipeline consumes. Derived columns evaluate vectorised over whole
delta arrays (one numpy pass per column) rather than per task.
:meth:`Sampler.sample` hands the same frame to consumers wrapped in a
:class:`Snapshot`.

A pass works on the tracked rows of the process list's
:class:`~repro.core.proclist.TaskTable`: it finds every tracked task in
the columnar /proc listing with one ``searchsorted``, reads their
counters in one :func:`~repro.perf.counter.read_groups` call, and
computes %CPU and the scaled deltas of all of them in one numpy step
each; the frame's columns are rows of those arrays and of the table.
The pass pays Python per task that changed since the last pass, not per
task it tracks: the settle of the reads is array steps with Python only
for rows whose read failed, and the process list, the listing and the
backend's gather index each work only on tasks attached, detached or
placed since. Reads follow the resilience policy of
:mod:`repro.core.proclist`: transient perf errors are retried under the
same rule as attaches (:func:`~repro.perf.counter.retry_transient`), hard
per-task failures quarantine the task (counters closed immediately,
reattach after backoff), and each task's lifecycle state is published as
the HEALTH column when the screen carries one (``--chaos`` mode does this
automatically).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.core.columns import ColumnKind
from repro.core.expr import environment
from repro.core.frame import SnapshotFrame
from repro.core.options import Options
from repro.core.proclist import ProcessList
from repro.core.screen import Screen
from repro.errors import PerfError, TransientPerfError
from repro.perf.counter import Backend, GroupReads, read_groups
from repro.procfs.model import TaskProvider, cpu_percent


@dataclass(frozen=True)
class Snapshot:
    """One refresh as handed to consumers: the frame a sampling pass built."""

    frame: SnapshotFrame

    @property
    def time(self) -> float:
        """Snapshot timestamp (seconds since boot)."""
        return self.frame.time

    @property
    def interval(self) -> float:
        """Seconds since the previous snapshot (0.0 on the first)."""
        return self.frame.interval


@dataclass(frozen=True)
class SampleTiming:
    """Wall-time breakdown of one sampling pass (the ``--profile`` data).

    Attributes:
        read_seconds: finding the tracked tasks in the listing, the
            batched counter read, settling each task's outcome, %CPU,
            and scaling the deltas.
        eval_seconds: building the frame and evaluating derived columns.
        refresh_seconds: listing /proc and the process list's
            attach/detach bookkeeping.
        tasks: number of tasks sampled.
    """

    read_seconds: float
    eval_seconds: float
    refresh_seconds: float
    tasks: int


class Sampler:
    """Drives process tracking and delta computation.

    Args:
        backend: perf backend.
        tasks: /proc provider.
        screen: column layout (decides which counters are attached).
        options: filters, per-thread mode, sort order.
    """

    def __init__(
        self,
        backend: Backend,
        tasks: TaskProvider,
        screen: Screen,
        options: Options | None = None,
    ) -> None:
        self.options = options or Options()
        self.screen = screen
        self.tasks = tasks
        self.events = screen.required_events()
        self.proclist = ProcessList(backend, self.events, self.options)
        self._last_time: float | None = None
        self.last_timing: SampleTiming | None = None
        #: Successful-after-retry and given-up read tallies (chaos stats).
        self.read_retries = 0
        self.read_skips = 0
        self._health_header = next(
            (
                c.header
                for c in screen.columns
                if c.kind is ColumnKind.HEALTH
            ),
            None,
        )

    def sample(self) -> Snapshot:
        """Take one snapshot (:meth:`sample_frame`, wrapped)."""
        return Snapshot(self.sample_frame())

    def sample_frame(self) -> SnapshotFrame:
        """Take one columnar snapshot (read deltas, evaluate columns).

        /proc is listed once per pass, and both the process list and the
        counter reads work from that listing. Counters of already-tracked
        tasks are read *before* the process list is refreshed, so a task
        that exited during the interval (it is missing from the listing)
        still contributes its final deltas under its last known identity
        (the counter fd outlives the task, as on Linux); it is then
        detached. Newly discovered tasks get their counters attached at
        the end and contribute from the next interval on — monitoring sees
        only events after it starts (§2.2).
        """
        now = self.tasks.uptime()
        first = self._last_time is None
        interval = 0.0 if first else now - self._last_time
        self._last_time = now
        t0 = perf_counter()
        table = self.tasks.list_processes()
        if first:
            self.proclist.refresh(table)
        refresh_seconds = perf_counter() - t0

        t0 = perf_counter()
        tasks = self.proclist.tasks
        rows = np.fromiter(self.proclist.tracked.values(), np.intp)
        at, listed = table.locate(tasks.pid[rows])
        # A task missing from the listing exited during the interval: it
        # still reports its final deltas, unless it was never sampled.
        keep = listed | ~np.isnan(tasks.time[rows])
        rows, at, listed = rows[keep], at[keep], listed[keep]
        reads = read_groups(
            self.proclist.backend, [group.handles for group in tasks.group[rows]]
        )
        settled = self._settle(rows, reads)
        rows, at, listed = rows[settled], at[settled], listed[settled]
        # %CPU since each listed task's last sample; an exit row reads
        # 0.0 and keeps its last sample as its identity.
        pcts = np.zeros(len(rows))
        now_rows, now_at = rows[listed], at[listed]
        pcts[listed] = cpu_percent(
            table.cpu_seconds[now_at],
            tasks.cpu_seconds[now_rows],
            tasks.time[now_rows],
            table.start_time[now_at],
            now,
        )
        tasks.record(now_rows, table, now_at, now)
        shape = (len(reads.retries), len(self.events))
        deltas = tasks.fold(
            rows,
            reads.value.reshape(shape)[settled],
            reads.time_enabled.reshape(shape)[settled],
            reads.time_running.reshape(shape)[settled],
        )
        read_seconds = perf_counter() - t0

        t0 = perf_counter()
        frame = self._build_frame(now, interval, rows, pcts, deltas)
        frame = frame.take(self._sort_order(frame))
        eval_seconds = perf_counter() - t0

        if not first:
            t0 = perf_counter()
            self.proclist.refresh(table)
            refresh_seconds += perf_counter() - t0
        self.last_timing = SampleTiming(
            read_seconds=read_seconds,
            eval_seconds=eval_seconds,
            refresh_seconds=refresh_seconds,
            tasks=len(rows),
        )
        return frame

    def _settle(self, rows: np.ndarray, reads: GroupReads) -> np.ndarray:
        """Each read's outcome for its task; the positions of the clean
        reads in ``rows``.

        A failed read goes to :meth:`_read_failed`, in row order. A clean
        read after retries shows health "retry"; the first clean read of
        a reattached task keeps "reattached" once (``reported``); every
        other clean read shows "ok", and that full clean interval resets
        the task's quarantine backoff. Only failed rows cost Python.
        """
        tasks = self.proclist.tasks
        self.read_retries += int(reads.retries.sum())
        clean = np.ones(len(rows), dtype=bool)
        for k, error in reads.errors.items():
            clean[k] = False
            self._read_failed(int(rows[k]), error)
        settled = np.flatnonzero(clean)
        mine = rows[settled]
        retried = reads.retries[settled] > 0
        reattached = tasks.health[mine] == "reattached"
        first = ~retried & ~tasks.reported[mine] & reattached
        tasks.health[mine[retried]] = "retry"
        tasks.reported[mine[first]] = True
        fine = mine[~(retried | first)]
        tasks.health[fine] = "ok"
        history = self.proclist.quarantine_history
        if history:
            for tid in history.keys() & set(tasks.tid[fine].tolist()):
                del history[tid]
        return settled

    def _read_failed(self, row: int, error: PerfError) -> None:
        """Settle a task whose counter read failed once retries were spent.

        Transient errors (EINTR/EAGAIN/corrupt reads) skip the task's row
        for this interval but keep its counters attached (health
        "retrying"). Hard errors — stale handles, a target that the
        kernel says is gone — quarantine the task: counters are closed
        immediately and reattach happens after a backoff, so a failing
        task can never wedge the sampling loop or leak fds.
        """
        tasks = self.proclist.tasks
        if isinstance(error, TransientPerfError):
            tasks.health[row] = "retrying"
            self.read_skips += 1
        else:
            self.proclist.quarantine(int(tasks.tid[row]), type(error).__name__)

    def _build_frame(
        self,
        now: float,
        interval: float,
        rows: np.ndarray,
        cpu_pct: np.ndarray,
        deltas: np.ndarray,
    ) -> SnapshotFrame:
        n = len(rows)
        # Every tracked group opens ``self.events``; a frame with no rows
        # carries no delta columns.
        delta_cols = (
            {event.name: row for event, row in zip(self.events, deltas)}
            if n
            else {}
        )

        env = environment(delta_cols, interval, cpu_pct)
        metrics: dict[str, np.ndarray] = {}
        for column in self.screen.columns:
            if column.expression is not None:
                # With zero tasks there are no delta columns to evaluate
                # over (the row pipeline never evaluated either).
                metrics[column.header] = (
                    column.expression.evaluate_column(env, n)
                    if n
                    else np.empty(0)
                )

        tasks = self.proclist.tasks
        labels: dict[str, tuple[str, ...]] = {}
        if self._health_header is not None:
            labels[self._health_header] = tuple(tasks.health[rows])

        # Every sampled row's identity is its task's last sample: this
        # pass's table row if listed, else what it last listed.
        return SnapshotFrame(
            time=now,
            interval=interval,
            pids=tasks.pid[rows],
            tids=tasks.tid[rows],
            uids=tasks.uid[rows],
            users=tuple(tasks.user[rows]),
            comms=tuple(tasks.comm[rows]),
            cpu_pct=cpu_pct,
            cpu_time=tasks.cpu_seconds[rows],
            processors=tasks.processor[rows],
            deltas=delta_cols,
            metrics=metrics,
            labels=labels,
            columns=tuple((c.header, c.kind.value) for c in self.screen.columns),
        )

    def _sort_order(self, frame: SnapshotFrame) -> list[int]:
        """The descending sort permutation on ``options.sort_by``.

        ``%CPU`` always keys on ``cpu_pct``; other keys read
        :meth:`SnapshotFrame.numeric_column`, and string or absent
        columns key as 0.0. The sort is a stable timsort over Python
        scalars, so ties and NaN keys order the same way on every run.
        """
        key = self.options.sort_by
        column = frame.cpu_pct if key == "%CPU" else frame.numeric_column(key)
        values = [0.0] * len(frame) if column is None else column.tolist()
        return sorted(range(len(frame)), key=values.__getitem__, reverse=True)

    def close(self) -> None:
        """Detach all counters."""
        self.proclist.close()
