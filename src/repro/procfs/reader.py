"""Real /proc parser.

Parses ``/proc/<pid>/stat`` (comm, utime/stime, starttime, processor),
``/proc/<pid>/status`` (uid, name), ``/proc/<pid>/task`` (thread ids) and
``/proc/uptime``. Exercised in tests against the test process's own
``/proc/self`` — the container has a real procfs even though it has no PMU.
"""

from __future__ import annotations

import os
import pwd
from pathlib import Path

from repro.errors import ProcfsError
from repro.procfs.model import ProcessInfo, ProcessTable


class ProcReader:
    """Task provider over the real /proc.

    Args:
        root: procfs mount point (overridable for tests with a fake tree).
        clock_ticks: kernel USER_HZ (``stat`` reports times in ticks).
    """

    def __init__(self, root: str = "/proc", clock_ticks: int | None = None) -> None:
        self.root = Path(root)
        self.clock_ticks = clock_ticks or os.sysconf("SC_CLK_TCK")

    def uptime(self) -> float:
        """Seconds since boot, from /proc/uptime."""
        try:
            text = (self.root / "uptime").read_text()
            return float(text.split()[0])
        except (OSError, ValueError, IndexError) as exc:
            raise ProcfsError(f"cannot read uptime from {self.root}: {exc}") from exc

    def _read_stat(self, pid: int) -> list[str]:
        try:
            text = (self.root / str(pid) / "stat").read_text()
        except OSError as exc:
            raise ProcfsError(f"no /proc entry for pid {pid}: {exc}") from exc
        # comm may contain spaces/parens; fields are after the last ')'.
        rparen = text.rfind(")")
        if rparen < 0:
            raise ProcfsError(f"malformed stat for pid {pid}")
        head, tail = text[:rparen], text[rparen + 1 :]
        lparen = head.find("(")
        comm = head[lparen + 1 :] if lparen >= 0 else "?"
        fields = [head.split()[0], comm, *tail.split()]
        if len(fields) < 40:
            raise ProcfsError(
                f"stat for pid {pid} has only {len(fields)} fields"
            )
        return fields

    def _read_uid(self, pid: int) -> int:
        try:
            for line in (self.root / str(pid) / "status").read_text().splitlines():
                if line.startswith("Uid:"):
                    return int(line.split()[1])
        except OSError as exc:
            raise ProcfsError(f"no status for pid {pid}: {exc}") from exc
        raise ProcfsError(f"no Uid line in status of pid {pid}")

    def _tids(self, pid: int) -> tuple[int, ...]:
        task_dir = self.root / str(pid) / "task"
        try:
            return tuple(sorted(int(t) for t in os.listdir(task_dir)))
        except (OSError, ValueError):
            return (pid,)

    @staticmethod
    def _user_name(uid: int) -> str:
        try:
            return pwd.getpwuid(uid).pw_name
        except KeyError:
            return str(uid)

    def process(self, pid: int) -> ProcessInfo:
        """Full :class:`ProcessInfo` for one pid.

        Raises:
            ProcfsError: when the pid has no /proc entry (exited).
        """
        fields = self._read_stat(pid)
        # stat(5) field numbers (1-based): 2 comm, 14 utime, 15 stime,
        # 22 starttime, 39 processor.
        comm = fields[1]
        utime = int(fields[13])
        stime = int(fields[14])
        starttime = int(fields[21])
        processor = int(fields[38])
        uid = self._read_uid(pid)
        return ProcessInfo(
            pid=pid,
            tids=self._tids(pid),
            uid=uid,
            user=self._user_name(uid),
            comm=comm,
            cpu_seconds=(utime + stime) / self.clock_ticks,
            start_time=starttime / self.clock_ticks,
            processor=processor,
        )

    def list_processes(self) -> ProcessTable:
        """Every live process visible in /proc, in pid order (races
        tolerated)."""
        out: list[ProcessInfo] = []
        try:
            entries = os.listdir(self.root)
        except OSError as exc:
            raise ProcfsError(f"cannot list {self.root}: {exc}") from exc
        for entry in entries:
            if not entry.isdigit():
                continue
            try:
                out.append(self.process(int(entry)))
            except ProcfsError:
                continue  # process exited between listdir and read
        return ProcessTable.from_rows(out)
