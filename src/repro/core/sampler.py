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

Reads follow the resilience policy of :mod:`repro.core.proclist`: transient
perf errors are retried under the same rule as attaches
(:func:`~repro.core.proclist.retry_transient`), hard per-task failures
quarantine the task (counters closed immediately, reattach after backoff),
and each task's lifecycle state is published as the HEALTH column when the
screen carries one (``--chaos`` mode does this automatically).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.core.columns import ColumnKind
from repro.core.expr import canonical_name
from repro.core.frame import SnapshotFrame
from repro.core.options import Options
from repro.core.proclist import ProcessList, TrackedTask, retry_transient
from repro.core.screen import Screen
from repro.errors import PerfError, TransientPerfError
from repro.perf.counter import Backend
from repro.procfs.model import ProcessInfo, TaskProvider, cpu_percent


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
        read_seconds: reading counters for all tasks.
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
        listing = {info.pid: info for info in self.tasks.list_processes()}
        if first:
            self.proclist.refresh(listing)
        refresh_seconds = perf_counter() - t0

        t0 = perf_counter()
        gathered: list[tuple[TrackedTask, ProcessInfo, dict[str, float], float]] = []
        for task in list(self.proclist.tracked.values()):
            info = listing.get(task.pid)
            if info is None and task.last_info is None:
                continue
            deltas = self._read_deltas(task)
            if deltas is None:
                continue
            if info is None:
                # Exited during the interval: final deltas, state X.
                gathered.append((task, task.last_info, deltas, 0.0))
            else:
                pct = cpu_percent(task.last_info, info, interval, uptime=now)
                task.last_info = info
                gathered.append((task, info, deltas, pct))
        read_seconds = perf_counter() - t0

        t0 = perf_counter()
        frame = self._build_frame(now, interval, gathered)
        frame = frame.take(self._sort_order(frame))
        eval_seconds = perf_counter() - t0

        if not first:
            t0 = perf_counter()
            self.proclist.refresh(listing)
            refresh_seconds += perf_counter() - t0
        self.last_timing = SampleTiming(
            read_seconds=read_seconds,
            eval_seconds=eval_seconds,
            refresh_seconds=refresh_seconds,
            tasks=len(gathered),
        )
        return frame

    def _read_deltas(self, task: TrackedTask) -> dict[str, float] | None:
        """Read one task's counter group under the lifecycle policy.

        Transient errors (EINTR/EAGAIN/corrupt reads) are retried under
        :func:`~repro.core.proclist.retry_transient`; exhaustion skips the
        task's row for this interval but keeps its counters attached
        (health "retrying"). Hard errors — stale handles, a target that
        the kernel says is gone — quarantine the task: counters are
        closed immediately and reattach happens after a backoff, so a
        failing task can never wedge the sampling loop or leak fds.
        """
        retries = self.read_retries
        try:
            deltas = retry_transient(task.group.read_deltas, self._count_read_retry)
        except TransientPerfError:
            task.health = "retrying"
            self.read_skips += 1
            return None
        except PerfError as exc:
            self.proclist.quarantine(task.tid, type(exc).__name__)
            return None
        if self.read_retries != retries:
            task.health = "retry"
        elif task.health == "reattached" and not task.reattach_reported:
            task.reattach_reported = True
        else:
            task.health = "ok"
            # A full clean interval resets the quarantine backoff.
            self.proclist.note_healthy(task.tid)
        return deltas

    def _count_read_retry(self) -> None:
        self.read_retries += 1

    def _build_frame(
        self,
        now: float,
        interval: float,
        gathered: list[tuple[TrackedTask, ProcessInfo, dict[str, float], float]],
    ) -> SnapshotFrame:
        n = len(gathered)
        # Every tracked group opens ``self.events``; a frame with no rows
        # carries no delta columns.
        delta_cols = {
            event.name: np.fromiter(
                (deltas[event.name] for _, _, deltas, _ in gathered),
                dtype=float,
                count=n,
            )
            for event in (self.events if n else ())
        }
        cpu_pct = np.fromiter((pct for *_, pct in gathered), dtype=float, count=n)

        env: dict[str, np.ndarray | float] = {
            canonical_name(k): v for k, v in delta_cols.items()
        }
        env["delta_t"] = interval if interval > 0 else math.nan
        env["cpu_pct"] = cpu_pct
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

        labels: dict[str, tuple[str, ...]] = {}
        if self._health_header is not None:
            labels[self._health_header] = tuple(
                task.health for task, _, _, _ in gathered
            )

        return SnapshotFrame(
            time=now,
            interval=interval,
            pids=np.fromiter(
                (info.pid for _, info, _, _ in gathered), dtype=np.int64, count=n
            ),
            tids=np.fromiter(
                (task.tid for task, _, _, _ in gathered), dtype=np.int64, count=n
            ),
            uids=np.fromiter(
                (info.uid for _, info, _, _ in gathered), dtype=np.int64, count=n
            ),
            users=tuple(info.user for _, info, _, _ in gathered),
            comms=tuple(info.comm for _, info, _, _ in gathered),
            cpu_pct=cpu_pct,
            cpu_time=np.fromiter(
                (info.cpu_seconds for _, info, _, _ in gathered),
                dtype=float,
                count=n,
            ),
            processors=np.fromiter(
                (info.processor for _, info, _, _ in gathered),
                dtype=np.int64,
                count=n,
            ),
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
