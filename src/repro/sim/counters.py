"""Per-task hardware-counter state kept by the simulated kernel.

Models the kernel side of ``perf_event``: each open counter targets one
task and one event, accumulates while the task is scheduled *and* the
counter is programmed into the PMU, and tracks ``time_enabled`` /
``time_running`` exactly as Linux reports them so that user space can scale
multiplexed counts (``value * time_enabled / time_running``).

Storage is columnar: the accumulator and both kernel clocks of every open
counter live in the table's :class:`~repro.sim.columns.CounterColumns`
arrays, and a :class:`KernelCounter` is a slotted handle whose properties
index into them. :meth:`CounterTable.accrue` and the vectorised landing
in :class:`~repro.sim.columns.ColumnKernel` therefore mutate the *same*
storage — reads are always served incrementally from the columns, never
recomputed.

Multiplexing: when a task has more enabled counters than the PMU width
(sixteen on the modelled Xeon W3550, §2.6), the kernel rotates a window of
``pmu_width`` counters one position per tick — the same round-robin
behaviour Linux exhibits.

Counting vs sampling (§2.5/§4): a counter opened with a ``sample_period``
runs in *sampling* mode — the PMU interrupts every ``period`` events and
the kernel tallies samples, so the reported value is quantised to the
period and loses occasional samples to interrupt coalescing/throttling
(Moore [29] compares the two modes' accuracy; tiptop itself uses
counting). The loss process is deterministic per table seed.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.errors import CounterStateError
from repro.sim.columns import CounterColumns
from repro.sim.events import EVENT_CODE, Event

#: Probability that one sampling interrupt is lost (coalescing/throttling).
SAMPLE_LOSS_PROBABILITY = 0.002

#: ``tid_slots`` answer for a tid without open counters.
_NO_SLOTS = (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), True)


class KernelCounter:
    """Kernel-side state of one opened counter.

    The hot fields (``value``, ``time_enabled``, ``time_running``,
    ``enabled``) are properties into one slot of the owning table's
    :class:`~repro.sim.columns.CounterColumns`; everything else lives on
    the handle itself. A closed counter keeps its final reading in a
    private one-slot holder of plain lists, so it stays stable while the
    shared slot is recycled.

    Attributes:
        counter_id: fd-like handle returned to user space.
        event: the counted hardware event.
        tid: target thread id.
        owner_uid: uid of the opening user (permission checks happen at
            open time in the backend).
        closed: handle has been released.
        sample_period: None for counting mode; otherwise the PMU interrupt
            period in events.
        samples: sampling-mode interrupts delivered so far.
    """

    __slots__ = (
        "counter_id",
        "event",
        "tid",
        "owner_uid",
        "closed",
        "sample_period",
        "samples",
        "_carry",
        "_cols",
        "_slot",
    )

    def __init__(
        self,
        counter_id: int,
        event: Event,
        tid: int,
        owner_uid: int,
        *,
        sample_period: int | None = None,
        columns: CounterColumns | None = None,
        slot: int | None = None,
    ) -> None:
        if columns is None:
            # Standalone counter (tests, ad-hoc use): own a private slot.
            columns = CounterColumns(capacity=1)
            slot = columns.alloc()
        elif slot is None:
            raise CounterStateError(
                f"counter {counter_id} shares columns but has no slot"
            )
        self.counter_id = counter_id
        self.event = event
        self.tid = tid
        self.owner_uid = owner_uid
        self.closed = False
        self.sample_period = sample_period
        self.samples = 0
        self._carry = 0.0
        self._cols = columns
        self._slot = slot

    # -- column-backed hot state ------------------------------------------
    @property
    def value(self) -> float:
        """Accumulated event count (sampling mode: samples x period)."""
        return float(self._cols.value[self._slot])

    @value.setter
    def value(self, v: float) -> None:
        self._cols.value[self._slot] = v

    @property
    def time_enabled(self) -> float:
        """Seconds the counter was enabled with a live target."""
        return float(self._cols.time_enabled[self._slot])

    @time_enabled.setter
    def time_enabled(self, v: float) -> None:
        self._cols.time_enabled[self._slot] = v

    @property
    def time_running(self) -> float:
        """Seconds the event was actually counted (target scheduled and
        counter resident in the PMU)."""
        return float(self._cols.time_running[self._slot])

    @time_running.setter
    def time_running(self, v: float) -> None:
        self._cols.time_running[self._slot] = v

    @property
    def enabled(self) -> bool:
        """Counting is armed."""
        return bool(self._cols.enabled[self._slot])

    @enabled.setter
    def enabled(self, v: bool) -> None:
        cols = self._cols
        if bool(cols.enabled[self._slot]) != bool(v):
            cols.enabled[self._slot] = bool(v)
            # Enabled bits participate in the per-tid slot caches.
            cols.version += 1

    @property
    def slot(self) -> int:
        """This counter's index in the table's columns (fixed until close)."""
        return self._slot

    @property
    def sampling(self) -> bool:
        """True when the counter runs in sampling mode."""
        return self.sample_period is not None

    def reading(self) -> tuple[int, float, float]:
        """Snapshot as (value, time_enabled, time_running), served from
        the accumulator columns.

        Raises:
            CounterStateError: on a closed counter.
        """
        if self.closed:
            raise CounterStateError(f"counter {self.counter_id} is closed")
        cols, slot = self._cols, self._slot
        return (
            int(cols.value[slot]),
            float(cols.time_enabled[slot]),
            float(cols.time_running[slot]),
        )

    def _detach(self) -> None:
        """Move this counter's state onto a private slot (at close)."""
        shared, slot = self._cols, self._slot
        self._cols, self._slot = _FinalReading(shared, slot), 0
        shared.free(slot)


class _FinalReading:
    """A closed counter's last state as one-slot columns (slot 0), read
    and written through the same properties as a shared slot."""

    __slots__ = ("value", "time_enabled", "time_running", "enabled", "version")

    def __init__(self, shared: CounterColumns, slot: int) -> None:
        self.value = [shared.value.item(slot)]
        self.time_enabled = [shared.time_enabled.item(slot)]
        self.time_running = [shared.time_running.item(slot)]
        self.enabled = [shared.enabled.item(slot)]
        self.version = 0


class CounterTable:
    """All open counters of the simulated kernel, indexed by task.

    Args:
        pmu_width: number of simultaneously countable events per task.
    """

    def __init__(self, pmu_width: int, seed: int = 0) -> None:
        if pmu_width < 1:
            raise CounterStateError(f"pmu_width must be >= 1, got {pmu_width}")
        self.pmu_width = pmu_width
        self.columns = CounterColumns()
        self._ids = itertools.count(3)  # skip fds 0-2, like a real process
        self._by_id: dict[int, KernelCounter] = {}
        self._by_tid: dict[int, list[KernelCounter]] = {}
        self._rotation: dict[int, int] = {}
        self._rng = np.random.default_rng((seed, 0xC0))
        # tid -> (columns.version, slots, codes, simple) for tids with open
        # counters. ``simple`` means the kernel may land this tid's deltas
        # with one vector add: every counter enabled, none sampling, and
        # the set fits the PMU without multiplexing.
        self._tid_cache: dict[int, tuple[int, np.ndarray, np.ndarray, bool]] = {}

    def open(
        self,
        event: Event,
        tid: int,
        owner_uid: int,
        *,
        sample_period: int | None = None,
    ) -> KernelCounter:
        """Create a counter on ``tid`` and return it (enabled by default).

        Raises:
            CounterStateError: for a non-positive sample period.
        """
        if sample_period is not None and sample_period < 1:
            raise CounterStateError(
                f"sample_period must be >= 1, got {sample_period}"
            )
        counter = KernelCounter(
            counter_id=next(self._ids),
            event=event,
            tid=tid,
            owner_uid=owner_uid,
            sample_period=sample_period,
            columns=self.columns,
            slot=self.columns.alloc(tid),
        )
        self._by_id[counter.counter_id] = counter
        self._by_tid.setdefault(tid, []).append(counter)
        self._rotation.setdefault(tid, 0)
        return counter

    def get(self, counter_id: int) -> KernelCounter:
        """Look up a counter by handle.

        Raises:
            CounterStateError: for an unknown or closed handle.
        """
        try:
            counter = self._by_id[counter_id]
        except KeyError as exc:
            raise CounterStateError(f"no such counter {counter_id}") from exc
        if counter.closed:
            raise CounterStateError(f"counter {counter_id} is closed")
        return counter

    def close(self, counter_id: int) -> None:
        """Release a counter handle (idempotent errors raise)."""
        counter = self.get(counter_id)
        counter.closed = True
        counter.enabled = False
        remaining = self._by_tid[counter.tid]
        remaining.remove(counter)
        if not remaining:
            # Nothing per tid outlives its last counter but the rotation
            # phase, which a reattached task resumes from.
            del self._by_tid[counter.tid]
            self._tid_cache.pop(counter.tid, None)
        del self._by_id[counter_id]
        counter._detach()

    def counters_for(self, tid: int) -> list[KernelCounter]:
        """Open counters targeting ``tid`` (may be empty)."""
        return list(self._by_tid.get(tid, ()))

    def tid_slots(self, tid: int) -> tuple[np.ndarray, np.ndarray, bool]:
        """Column slots, event codes and fast-path eligibility for ``tid``.

        Cached against ``columns.version``, which moves on every open,
        close, and enable/disable toggle. ``simple`` is True when one
        vector add lands this tid's deltas exactly as :meth:`accrue`
        would: all counters enabled (the active window is the whole set),
        no sampling counters (whose RNG draws :meth:`accrue` makes), and
        no multiplexing rotation. A tid without counters is not cached.
        """
        counters = self._by_tid.get(tid)
        if not counters:
            return _NO_SLOTS
        entry = self._tid_cache.get(tid)
        version = self.columns.version
        if entry is not None and entry[0] == version:
            return entry[1], entry[2], entry[3]
        slots = np.fromiter(
            (c._slot for c in counters), dtype=np.intp, count=len(counters)
        )
        codes = np.fromiter(
            (EVENT_CODE[c.event] for c in counters),
            dtype=np.intp,
            count=len(counters),
        )
        simple = (
            len(counters) <= self.pmu_width
            and all(c.enabled for c in counters)
            and not any(c.sampling for c in counters)
        )
        self._tid_cache[tid] = (version, slots, codes, simple)
        return slots, codes, simple

    def _active_window(self, tid: int) -> set[int]:
        """Handles currently resident in the PMU for ``tid``."""
        counters = [c for c in self._by_tid.get(tid, ()) if c.enabled]
        if len(counters) <= self.pmu_width:
            return {c.counter_id for c in counters}
        start = self._rotation.get(tid, 0) % len(counters)
        window = [
            counters[(start + i) % len(counters)] for i in range(self.pmu_width)
        ]
        return {c.counter_id for c in window}

    def rotate(self, tid: int) -> None:
        """Advance the multiplexing window of ``tid`` by one counter."""
        self._rotation[tid] = self._rotation.get(tid, 0) + 1

    def accrue(
        self,
        tid: int,
        deltas: np.ndarray | None,
        *,
        wall_dt: float,
        scheduled_dt: float,
        alive: bool,
    ) -> None:
        """Fold one tick's events into the counters of ``tid``.

        Args:
            tid: target thread.
            deltas: event counts produced during the tick (already scaled
                by the scheduled time), one float64 lane per
                :data:`~repro.sim.events.EVENT_CODE`; None for a tick the
                task sat idle. Lanes are read through one ``tolist()``, so
                the counters' scalar state stays Python floats.
            wall_dt: tick duration (advances ``time_enabled``).
            scheduled_dt: seconds the task was actually on a PU.
            alive: whether the task is still alive (dead tasks freeze).
        """
        counters = self._by_tid.get(tid)
        if not counters:
            return
        lanes = None if deltas is None else deltas.tolist()
        window = self._active_window(tid)
        for counter in counters:
            if not counter.enabled or not alive:
                continue
            counter.time_enabled += wall_dt
            if counter.counter_id in window and scheduled_dt > 0:
                counter.time_running += scheduled_dt
                delta = lanes[EVENT_CODE[counter.event]] if lanes else 0.0
                if counter.sampling:
                    self._accrue_sampled(counter, delta)
                else:
                    counter.value += delta
        if len([c for c in counters if c.enabled]) > self.pmu_width:
            self.rotate(tid)

    def _accrue_sampled(self, counter: KernelCounter, delta: float) -> None:
        """Sampling-mode accrual: period quantisation plus interrupt loss."""
        period = counter.sample_period or 1
        counter._carry += delta
        due = int(counter._carry // period)
        counter._carry -= due * period
        if due > 0:
            delivered = due - int(
                self._rng.binomial(due, SAMPLE_LOSS_PROBABILITY)
            )
            counter.samples += delivered
            counter.value = counter.samples * period

    def read_group(self, counters: list[KernelCounter]) -> tuple[int, float, float]:
        """Aggregate reading over a handle's kernel counters.

        Values sum; the kernel clocks take the per-counter maximum (the
        inherit fan-out reads each thread's counter once and user space
        scales against the widest window). Served from the accumulator
        columns like :meth:`KernelCounter.reading`.

        Raises:
            CounterStateError: when any counter is closed.
        """
        value = 0
        enabled = 0.0
        running = 0.0
        for counter in counters:
            v, te, tr = counter.reading()
            value += v
            if te > enabled:
                enabled = te
            if tr > running:
                running = tr
        return value, enabled, running

    def open_count(self) -> int:
        """Number of currently open counters (for leak tests)."""
        return len(self._by_id)
