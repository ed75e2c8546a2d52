"""Process view shared by the real and simulated /proc providers."""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple, Protocol

import numpy as np


class ProcessInfo(NamedTuple):
    """What tiptop needs to know about one task from /proc: one row of a
    :class:`ProcessTable`, and what ``process(pid)`` returns.

    Attributes:
        pid: process id.
        tids: thread ids (== (pid,) for single-threaded processes).
        uid: owner uid.
        user: owner login name.
        comm: command name (truncated to 15 chars by the kernel, as in
            /proc/<pid>/comm).
        cpu_seconds: cumulative utime+stime in seconds.
        start_time: process start, in seconds since (machine) boot.
        processor: CPU the task last ran on.
    """

    pid: int
    tids: tuple[int, ...]
    uid: int
    user: str
    comm: str
    cpu_seconds: float
    start_time: float
    processor: int


@dataclass(frozen=True, eq=False)
class ProcessTable:
    """One /proc listing as columns: one row per live process, rows in
    pid order.

    Numeric fields are int64/float64 arrays, text fields and thread-id
    lists are tuples; every field has one entry per row.
    """

    pid: np.ndarray
    uid: np.ndarray
    cpu_seconds: np.ndarray
    start_time: np.ndarray
    processor: np.ndarray
    user: tuple[str, ...]
    comm: tuple[str, ...]
    tids: tuple[tuple[int, ...], ...]

    @classmethod
    def from_rows(cls, rows: Iterable[ProcessInfo]) -> ProcessTable:
        """The table of some listing rows: sorted by pid, transposed once."""
        ordered = sorted(rows, key=itemgetter(0))
        pid, tids, uid, user, comm, cpu, start, cpu_id = (
            zip(*ordered) if ordered else ((),) * len(ProcessInfo._fields)
        )
        return cls(
            pid=np.array(pid, dtype=np.int64),
            uid=np.array(uid, dtype=np.int64),
            cpu_seconds=np.array(cpu, dtype=np.float64),
            start_time=np.array(start, dtype=np.float64),
            processor=np.array(cpu_id, dtype=np.int64),
            user=user,
            comm=comm,
            tids=tids,
        )

    def __len__(self) -> int:
        return len(self.pid)

    def locate(self, pids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each pid's row (one ``searchsorted``), and whether it is listed."""
        at = np.searchsorted(self.pid, pids)
        listed = at < len(self.pid)
        listed[listed] = self.pid[at[listed]] == pids[listed]
        return at, listed

    def rows(self) -> list[ProcessInfo]:
        """The listing as :class:`ProcessInfo` rows, in pid order."""
        return [
            ProcessInfo._make(row)
            for row in zip(
                self.pid.tolist(), self.tids, self.uid.tolist(), self.user,
                self.comm, self.cpu_seconds.tolist(),
                self.start_time.tolist(), self.processor.tolist(),
            )
        ]


class TaskProvider(Protocol):
    """Provider interface over /proc (real or simulated).

    The sampler lists once per refresh and looks every tracked task up in
    that listing; a pid missing from it has exited.
    """

    def list_processes(self) -> ProcessTable:
        """All visible live processes, in pid order."""
        ...

    def uptime(self) -> float:
        """Seconds since boot (wall or virtual)."""
        ...


def cpu_percent(
    cpu_seconds: np.ndarray,
    base_cpu: np.ndarray,
    base_time: np.ndarray,
    start_time: np.ndarray,
    now: float,
) -> np.ndarray:
    """%CPU of many tasks since their last samples, the way top computes it.

    A task whose ``base_time`` is NaN was never sampled and gets its
    lifetime average instead: ``cpu_seconds`` over its age, the age
    floored at 1e-9 s. Any other task gets the CPU seconds it used since
    ``base_time`` over the time since then, and 0.0 when that window is
    not positive. Negative results read 0.0. Element for element, this is
    bit for bit the scalar rule ``max(0.0, 100.0 * used / window)``.
    """
    with np.errstate(all="ignore"):
        window = now - base_time
        recent = np.where(window > 0, 100.0 * (cpu_seconds - base_cpu) / window, 0.0)
        age = now - start_time
        age = np.where(age < 1e-9, 1e-9, age)
        pct = np.where(np.isnan(base_time), 100.0 * cpu_seconds / age, recent)
    return np.where(pct > 0.0, pct, 0.0)
