"""Simulated kernel backend: perf_event semantics over a SimMachine.

Implements the same :class:`~repro.perf.counter.Backend` protocol as the
real syscall backend, against :class:`~repro.sim.machine.SimMachine`'s
counter table. Kernel behaviours modelled:

* **Permission** (paper footnote 1): a non-root monitoring uid may only
  open counters on tasks it owns — EPERM otherwise.
* **Liveness**: opening on a dead/unknown task raises ESRCH.
* **PMU capability**: raw events absent from the architecture's PMU fail
  at open, like programming an unknown event select.
* **Inherit**: ``inherit=True`` on a process's leader counts all of its
  current threads (per-process mode, §2.2 "events can be counted per
  thread, or per process"); the returned handle fans reads out over the
  per-thread kernel counters and sums them.
* **Multiplexing**: handled by the machine's counter table; ``read``
  returns ``time_enabled``/``time_running`` so user space can scale.
* **Batched reads**: :meth:`SimBackend.read_groups` serves a whole
  sampling pass as one gather over the counter table's columns.
* **Faults**: an optional :class:`~repro.perf.faults.FaultPlan` injects
  seeded failures (ESRCH, EMFILE, EINTR, EAGAIN, corrupt reads,
  multiplex starvation) into open/enable/read/close — the misbehaving
  kernel the tool must survive, replayable from one seed.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import (
    CounterStateError,
    EventError,
    NoSuchTaskError,
    PerfPermissionError,
    SimulationError,
)
from repro.perf.counter import GroupReads, Reading, read_each_group
from repro.perf.events import EventSpec
from repro.perf.faults import FaultPlan
from repro.sim.counters import KernelCounter
from repro.sim.machine import SimMachine

#: uid 0 may watch anyone, as in Linux.
ROOT_UID = 0


@dataclass
class _Handle:
    handle_id: int
    tid: int
    kernel_counters: list[KernelCounter]
    closed: bool = False
    last_reading: Reading | None = None


class _GatherIndex(dict):
    """Read group (a tuple of open handles) -> what a batched read gathers
    for it: the handles' kernel slots in order (row 0) and which slot
    starts a handle (row 1).

    A group's entry is built at its first lookup and kept until one of
    its handles closes (:meth:`drop`), so a pass builds entries only for
    groups that are new since the last pass.

    Raises:
        KeyError: on the lookup of a group with a handle that is not open.
    """

    def __init__(self, slots: dict[int, tuple[int, ...]]) -> None:
        super().__init__()
        self.slots = slots
        self.groups_of: dict[int, list[tuple[int, ...]]] = {}

    def __missing__(self, group: tuple[int, ...]) -> np.ndarray:
        owned = [self.slots[handle] for handle in group]
        entry = np.array(
            [
                [slot for slots in owned for slot in slots],
                [k == 0 for slots in owned for k in range(len(slots))],
            ],
            dtype=np.intp,
        )
        self[group] = entry
        for handle in group:
            self.groups_of.setdefault(handle, []).append(group)
        return entry

    def drop(self, handle: int) -> None:
        """Forget every group of ``handle`` (at its close)."""
        for group in self.groups_of.pop(handle, ()):
            self.pop(group, None)


class SimBackend:
    """perf backend over a simulated machine.

    Args:
        machine: the simulated node.
        monitor_uid: uid of the monitoring process (tiptop itself). Tiptop
            requires no privilege (§2.2); like the kernel, the backend
            enforces that an unprivileged monitor only watches its own
            processes unless ``monitor_uid`` is ROOT_UID.
        faults: optional seeded fault plan consulted on every backend
            call (None = a well-behaved kernel).
    """

    def __init__(
        self,
        machine: SimMachine,
        monitor_uid: int = ROOT_UID,
        *,
        faults: FaultPlan | None = None,
    ) -> None:
        self.machine = machine
        self.monitor_uid = monitor_uid
        self.faults = faults
        self._handles: dict[int, _Handle] = {}
        #: Column slots of each open handle's kernel counters, fixed until
        #: close.
        self._slots: dict[int, tuple[int, ...]] = {}
        #: What :meth:`read_groups` gathers, per read group.
        self._index = _GatherIndex(self._slots)
        self._ids = itertools.count(100)
        #: lifetime open/close tally, for leak accounting in tests.
        self.opened_total = 0
        self.closed_total = 0

    # -- helpers ---------------------------------------------------------
    def _target_tids(self, tid: int, inherit: bool) -> list[int]:
        # A tid names a process leader or one of its threads; permission
        # is checked before liveness on both paths.
        proc = self.machine.processes.get(tid)
        if proc is not None:
            self._check_permission(proc.uid)
            if not proc.alive:
                raise NoSuchTaskError(f"task {tid} has exited")
            if inherit:
                return [t.tid for t in proc.threads if t.alive]
            return [proc.threads[0].tid]
        try:
            thread = self.machine.thread(tid)
        except SimulationError:
            raise NoSuchTaskError(f"no such task {tid}") from None
        self._check_permission(thread.process.uid)
        if not thread.alive:
            raise NoSuchTaskError(f"task {tid} has exited")
        return [tid]

    def _check_permission(self, owner_uid: int) -> None:
        if self.monitor_uid != ROOT_UID and self.monitor_uid != owner_uid:
            raise PerfPermissionError(
                f"uid {self.monitor_uid} may not monitor tasks of uid {owner_uid}"
            )

    def _get(self, handle: int) -> _Handle:
        h = self._handles.get(handle)
        if h is None or h.closed:
            raise CounterStateError(f"no such open handle {handle}")
        return h

    def _inject(self, op: str, tid: int) -> str | None:
        """Consult the fault plan; raising classes raise from here."""
        if self.faults is None:
            return None
        return self.faults.raise_for(op, tid)

    # -- Backend protocol -------------------------------------------------
    def open(
        self,
        event: EventSpec,
        tid: int,
        *,
        inherit: bool = False,
        sample_period: int | None = None,
    ) -> int:
        """Open ``event`` on ``tid``; see the module docstring for semantics.

        ``sample_period`` switches the counter into sampling mode (§2.5):
        the value is reconstructed from PMU interrupts every ``period``
        events rather than counted exactly.

        A partial open never leaks: if opening the per-thread kernel
        counter k of n fails (dead thread, injected fault), the k-1
        already-open kernel counters are closed before the error
        propagates.
        """
        self._inject("open", tid)
        if not self.machine.arch.supports_event(event.sim_event):
            raise EventError(
                f"PMU of {self.machine.arch.name} cannot count {event.name!r}"
            )
        tids = self._target_tids(tid, inherit)
        kcs: list[KernelCounter] = []
        try:
            for t in tids:
                kcs.append(
                    self.machine.counters.open(
                        event.sim_event,
                        t,
                        self.monitor_uid,
                        sample_period=sample_period,
                    )
                )
        except Exception:
            for kc in kcs:
                if not kc.closed:
                    self.machine.counters.close(kc.counter_id)
            raise
        handle = next(self._ids)
        self._handles[handle] = _Handle(handle, tid, kcs)
        self._slots[handle] = tuple(kc.slot for kc in kcs)
        self.opened_total += 1
        return handle

    def _read_handle(self, h: _Handle) -> Reading:
        """One clean (fault-free) read of a handle's kernel counters.

        Served incrementally from the counter table's accumulator columns
        (:meth:`CounterTable.read_group`) — the read never recomputes or
        walks simulation state, whichever advance path produced it.
        """
        value, enabled, running = self.machine.counters.read_group(
            h.kernel_counters
        )
        reading = Reading(value, enabled, running)
        h.last_reading = reading
        return reading

    def _starved_reading(self, h: _Handle) -> Reading:
        """What a multiplex-starved interval reads as: no progress.

        The counter never reached the PMU since the last read, so the
        value and ``time_running`` are frozen at their previous snapshot
        (delta scaling then yields 0 for the interval, as on Linux).
        """
        if h.last_reading is not None:
            return h.last_reading
        return Reading(0, 0.0, 0.0)

    def read(self, handle: int) -> Reading:
        """Sum the per-thread kernel counters behind this handle."""
        return self._read_group([handle])[0]

    def read_groups(self, groups: Sequence[Sequence[int]]) -> GroupReads:
        """A whole sampling pass, one handle list per task (see
        :func:`repro.perf.counter.read_groups`).

        Without a fault plan the pass is one gather over the counter
        table's columns through the groups' kept gather indices (built
        for a group at its first read), with the arithmetic of
        :meth:`CounterTable.read_group`: each kernel counter truncates to
        an int before an inherit handle sums its threads, and the clocks
        are the per-handle maximum, floored at 0.0. No read can starve
        without a plan, so this path records no ``last_reading``.

        With a plan, each group is one :meth:`_read_group` under the retry
        rule: every handle consults the plan in order, and a task's
        retries happen before the next task's first read. A stale handle
        fails only its own group, either way.
        """
        if self.faults is not None:
            return read_each_group(self._read_group, groups)
        index = self._index
        try:
            try:
                parts = [index[group] for group in groups]
            except TypeError:  # groups given as lists
                parts = [index[tuple(group)] for group in groups]
        except KeyError:
            # A stale handle: let the per-group path fail just its group.
            return read_each_group(self._read_group, groups)
        if not parts:
            parts = [np.empty((2, 0), dtype=np.intp)]
        flat, starts = np.concatenate(parts, axis=1)
        columns = self.machine.counters.columns
        value = columns.value[flat].astype(np.int64)
        enabled = columns.time_enabled[flat]
        running = columns.time_running[flat]
        if not starts.all():
            # Inherit handles fan out over threads (always >= 1 each).
            starts = np.flatnonzero(starts)
            value = np.add.reduceat(value, starts)
            enabled = np.maximum.reduceat(enabled, starts)
            running = np.maximum.reduceat(running, starts)
        return GroupReads(
            value,
            np.maximum(enabled, 0.0),
            np.maximum(running, 0.0),
            {},
            np.zeros(len(groups), dtype=np.int64),
        )

    def _read_group(self, handles: Sequence[int]) -> list[Reading]:
        """One attempt at one group under the fault plan: every handle is
        resolved first, then each consults the plan and reads (or starves)
        in order; an injected error aborts the group."""
        resolved = [self._get(handle) for handle in handles]
        readings: list[Reading] = []
        for h in resolved:
            if self._inject("read", h.tid) == "starve":
                readings.append(self._starved_reading(h))
            else:
                readings.append(self._read_handle(h))
        return readings

    def enable(self, handle: int) -> None:
        """Arm all underlying kernel counters."""
        h = self._get(handle)
        self._inject("enable", h.tid)
        for kc in h.kernel_counters:
            kc.enabled = True

    def disable(self, handle: int) -> None:
        """Disarm all underlying kernel counters."""
        h = self._get(handle)
        self._inject("disable", h.tid)
        for kc in h.kernel_counters:
            kc.enabled = False

    def reset(self, handle: int) -> None:
        """Zero all underlying kernel counter values."""
        h = self._get(handle)
        self._inject("reset", h.tid)
        for kc in h.kernel_counters:
            kc.value = 0.0

    def close(self, handle: int) -> None:
        """Release the handle and its kernel counters.

        Mirrors ``close(2)`` on Linux: the descriptor is released even
        when the call reports EINTR, so an injected interrupt fires
        *after* the kernel counters are gone and nothing leaks.
        """
        h = self._get(handle)
        for kc in h.kernel_counters:
            if not kc.closed:
                self.machine.counters.close(kc.counter_id)
        h.closed = True
        del self._handles[handle]
        del self._slots[handle]
        self._index.drop(handle)
        self.closed_total += 1
        self._inject("close", h.tid)

    def open_handle_count(self) -> int:
        """Number of live handles (for leak tests)."""
        return len(self._handles)

    def live_handles(self) -> list[dict]:
        """Kernel-side state of every open handle (conformance hook).

        Fault-free introspection for the invariant oracles: per handle,
        the target tid and each underlying kernel counter's simulated
        event plus its current ``reading()`` triple and enable bit. Reads
        here do not consult the fault plan and move no delta baselines.
        """
        out = []
        for h in self._handles.values():
            out.append(
                {
                    "handle": h.handle_id,
                    "tid": h.tid,
                    "counters": tuple(
                        (kc.event, *kc.reading(), kc.enabled)
                        for kc in h.kernel_counters
                    ),
                }
            )
        return out
