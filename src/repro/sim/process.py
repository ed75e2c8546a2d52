"""Simulated processes and threads.

A :class:`SimProcess` owns one or more :class:`SimThread` objects; each
thread executes the process's :class:`~repro.sim.workload.Workload`
independently (its own retired-instruction cursor). The fields mirror what
tiptop reads from ``/proc``: pid/tid, owner, command name, CPU times, the
processor a task last ran on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.errors import SimulationError
from repro.sim.workload import Phase, Workload
from repro.util.stats import left_sum


class TaskState(enum.Enum):
    """Scheduler-visible task states (a subset of Linux's)."""

    RUNNABLE = "R"
    DEAD = "X"


@dataclass(eq=False, slots=True)
class SimThread:
    """One schedulable hardware-thread of work.

    Slotted: a thousand-task node keeps a thousand of these alive for the
    whole run, and the columnar kernel touches them on every dispatch, so
    the dict-free layout pays in both peak RSS and access latency.

    Attributes:
        tid: thread id (equals the pid for single-threaded processes).
        process: owning process.
        retired: instructions retired since thread start.
        cycles: core cycles consumed while scheduled.
        state: RUNNABLE/DEAD.
        cpu_time: seconds of CPU consumed (utime+stime equivalent).
        last_pu: PU the thread last ran on (-1 before first dispatch).
        vruntime: scheduler fairness clock (CFS-like).
        context_switches: number of times the thread was switched in.
    """

    tid: int
    process: "SimProcess"
    retired: float = 0.0
    cycles: float = 0.0
    state: TaskState = TaskState.RUNNABLE
    cpu_time: float = 0.0
    last_pu: int = -1
    vruntime: float = 0.0
    context_switches: int = 0
    duty_rng: np.random.Generator | None = None
    #: (retired, locate result) memo — ``locate`` is pure in ``retired``.
    _located: tuple | None = field(default=None, repr=False)

    def current_phase(self) -> tuple[Phase, float] | None:
        """Active phase and remaining budget, or None when finished.

        Memoised per ``retired`` cursor position: between retirement steps
        the workload lookup is pure, and an idle thread is asked for its
        phase on every tick it is considered for dispatch.
        """
        cached = self._located
        retired = self.retired
        if cached is not None and cached[0] == retired:
            return cached[1]
        located = self.process.workload.locate(retired)
        self._located = (retired, located)
        return located

    @property
    def alive(self) -> bool:
        """True until the thread's workload completes."""
        return self.state is not TaskState.DEAD

    def mark_dead(self) -> None:
        """Terminate the thread."""
        self.state = TaskState.DEAD


@dataclass(eq=False, slots=True)
class SimProcess:
    """A simulated process: identity plus workload.

    Attributes:
        pid: process id.
        uid: numeric owner id.
        user: owner's login name (tiptop's USER column).
        command: executable name (tiptop's COMMAND column).
        workload: the behavioural program every thread executes.
        affinity: PU ids this process may run on (None = all; the paper's
            §3.4 uses ``taskset`` to pin mcf copies to chosen cores).
        nice: scheduling weight bias (positive = lower priority).
        duty_cycle: fraction of time the process is runnable (1.0 = pure
            CPU burner; < 1 models I/O or lock waits, producing the paper's
            sub-100 %CPU rows like process11 at 43.7 % in Fig. 1).
        start_time: virtual time the process was spawned.
        threads: the schedulable threads.
        tids: their thread ids, fixed at spawn (threads never change
            after it).
        listed_cpu: :attr:`cpu_time` as of the machine's last listing.
        listed_pu: the first thread's PU as of that listing (0 before
            its first dispatch).
        rng: per-process deterministic noise source.
    """

    pid: int
    uid: int
    user: str
    command: str
    workload: Workload
    affinity: frozenset[int] | None = None
    nice: int = 0
    duty_cycle: float = 1.0
    start_time: float = 0.0
    threads: list[SimThread] = field(default_factory=list)
    tids: tuple[int, ...] = ()
    listed_cpu: float = 0.0
    listed_pu: int = 0
    rng: np.random.Generator = field(
        default_factory=lambda: np.random.default_rng(0)
    )

    def spawn_threads(self, count: int, first_tid: int) -> None:
        """Create ``count`` threads with ids starting at ``first_tid``.

        The first thread of a process conventionally has ``tid == pid``.
        """
        if count < 1:
            raise SimulationError(f"process {self.pid} needs >= 1 thread")
        if self.threads:
            raise SimulationError(f"process {self.pid} already has threads")
        self.tids = tuple(range(first_tid, first_tid + count))
        self.threads = [SimThread(tid=tid, process=self) for tid in self.tids]

    @property
    def alive(self) -> bool:
        """True while any thread is alive."""
        return any(t.alive for t in self.threads)

    @property
    def retired(self) -> float:
        """Total instructions retired by all threads."""
        return left_sum(t.retired for t in self.threads)

    @property
    def cpu_time(self) -> float:
        """Total CPU seconds across threads, added in thread order."""
        return left_sum(t.cpu_time for t in self.threads)

    def tally(self) -> None:
        """Bring :attr:`listed_cpu` and :attr:`listed_pu` up to date."""
        self.listed_cpu = self.cpu_time
        self.listed_pu = max(self.threads[0].last_pu, 0)
