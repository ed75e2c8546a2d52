"""Process view shared by the real and simulated /proc providers."""

from __future__ import annotations

from typing import NamedTuple, Protocol


class ProcessInfo(NamedTuple):
    """What tiptop needs to know about one task from /proc.

    A named tuple: cheap to build once per process per listing, and a
    list of them transposes into columns with one ``zip``.

    Attributes:
        pid: process id.
        tids: thread ids (== (pid,) for single-threaded processes).
        uid: owner uid.
        user: owner login name.
        comm: command name (truncated to 15 chars by the kernel, as in
            /proc/<pid>/comm).
        state: one-letter state code (R/S/D/Z/X...).
        cpu_seconds: cumulative utime+stime in seconds.
        start_time: process start, in seconds since (machine) boot.
        processor: CPU the task last ran on.
    """

    pid: int
    tids: tuple[int, ...]
    uid: int
    user: str
    comm: str
    state: str
    cpu_seconds: float
    start_time: float
    processor: int


class TaskProvider(Protocol):
    """Provider interface over /proc (real or simulated).

    The sampler lists once per refresh and looks every tracked task up in
    that listing; a pid missing from it has exited.
    """

    def list_processes(self) -> list[ProcessInfo]:
        """All visible live processes."""
        ...

    def uptime(self) -> float:
        """Seconds since boot (wall or virtual)."""
        ...


def cpu_percent(
    previous: ProcessInfo | None,
    current: ProcessInfo,
    interval: float,
    uptime: float | None = None,
) -> float:
    """%CPU over a sampling interval, the way top computes it.

    With no previous sample the lifetime average is used instead
    (cpu_seconds over process age, which needs ``uptime``); without an
    uptime either, returns 0.0 for the first interval.
    """
    if previous is not None:
        if interval <= 0:
            return 0.0
        used = current.cpu_seconds - previous.cpu_seconds
        return max(0.0, 100.0 * used / interval)
    if uptime is None:
        return 0.0
    age = max(uptime - current.start_time, 1e-9)
    return max(0.0, 100.0 * current.cpu_seconds / age)
