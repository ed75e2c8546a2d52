"""Simulated /proc: the TaskProvider view over a SimMachine.

A listing costs one comprehension per column over the live processes
and Python per changed process only: each process's CPU time and
processor are the figures :meth:`SimMachine.listing` keeps, re-tallied
for the processes placed since the last listing, so no row walks its
threads.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ProcfsError
from repro.procfs.model import ProcessInfo, ProcessTable
from repro.sim.machine import SimMachine
from repro.sim.process import SimProcess


class SimProcReader:
    """Task provider backed by a simulated machine."""

    def __init__(self, machine: SimMachine) -> None:
        self.machine = machine

    def uptime(self) -> float:
        """Virtual seconds since machine boot."""
        return self.machine.now

    @staticmethod
    def _table(procs: list[SimProcess]) -> ProcessTable:
        """The /proc view of ``procs``, one comprehension per column.

        CPU time and processor are the figures the machine's listing
        keeps (:meth:`SimMachine.listing`): no row walks its threads.
        """
        return ProcessTable(
            pid=np.array([p.pid for p in procs], dtype=np.int64),
            uid=np.array([p.uid for p in procs], dtype=np.int64),
            cpu_seconds=np.array([p.listed_cpu for p in procs], dtype=np.float64),
            start_time=np.array([p.start_time for p in procs], dtype=np.float64),
            processor=np.array([p.listed_pu for p in procs], dtype=np.int64),
            user=tuple([p.user for p in procs]),
            comm=tuple([p.command[:15] for p in procs]),
            tids=tuple([p.tids for p in procs]),
        )

    def process(self, pid: int) -> ProcessInfo:
        """One live process.

        Raises:
            ProcfsError: unknown pid or already-exited process (its /proc
                entry is gone).
        """
        self.machine.listing()
        proc = self.machine.processes.get(pid)
        if proc is None or not proc.alive:
            raise ProcfsError(f"no /proc entry for pid {pid}")
        return self._table([proc]).rows()[0]

    def list_processes(self) -> ProcessTable:
        """All live simulated processes, in pid order."""
        return self._table(self.machine.listing())
