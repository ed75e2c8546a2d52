"""The TipTop application object and its hosts.

A *host* bundles what the tool needs from its environment: a perf backend,
a /proc provider, and a way to let time pass. :class:`SimHost` wraps a
:class:`~repro.sim.machine.SimMachine` (sleeping advances the virtual
clock); :class:`RealHost` wraps the live kernel (sleeping sleeps). The
:class:`TipTop` object itself is host-agnostic — precisely the property the
paper's design gets from building on ``perf_event``.
"""

from __future__ import annotations

import sys
import time
from collections.abc import Callable, Iterator
from typing import Protocol

from repro.core import formatter
from repro.core.columns import HEALTH_COLUMN, ColumnKind
from repro.core.options import Options
from repro.core.recorder import Recorder
from repro.core.sampler import Sampler, Snapshot
from repro.core.screen import Screen, get_screen
from repro.errors import PerfNotSupportedError
from repro.perf.counter import Backend
from repro.perf.faults import FaultPlan
from repro.perf.simbackend import SimBackend
from repro.perf.syscall import RealBackend, kernel_supports_perf_events
from repro.procfs.model import TaskProvider
from repro.procfs.reader import ProcReader
from repro.procfs.simproc import SimProcReader
from repro.sim.machine import SimMachine


class Host(Protocol):
    """Environment the tool runs against."""

    backend: Backend
    tasks: TaskProvider

    def sleep(self, seconds: float) -> None:
        """Let ``seconds`` of (virtual or wall) time pass."""
        ...


class SimHost:
    """Host over a simulated machine.

    Args:
        machine: the node to monitor.
        monitor_uid: uid tiptop runs as (0 = may watch everyone; see the
            paper's footnote 1 on unprivileged monitoring).
        faults: optional seeded fault plan the backend executes (chaos
            mode); None models a well-behaved kernel.
    """

    def __init__(
        self,
        machine: SimMachine,
        monitor_uid: int = 0,
        *,
        faults: FaultPlan | None = None,
    ) -> None:
        self.machine = machine
        self.backend: Backend = SimBackend(machine, monitor_uid, faults=faults)
        self.tasks: TaskProvider = SimProcReader(machine)

    def sleep(self, seconds: float) -> None:
        """Advance the virtual clock."""
        self.machine.run_for(seconds)


class RealHost:
    """Host over the running Linux kernel.

    Raises:
        PerfNotSupportedError: at construction when the kernel has no
            usable PMU (as in this reproduction's container), unless
            ``probe=False``.
    """

    def __init__(self, probe: bool = True) -> None:
        if probe and not kernel_supports_perf_events():
            raise PerfNotSupportedError(
                "this kernel exposes no usable PMU; use SimHost "
                "(perf_event_open probe failed)"
            )
        self.backend: Backend = RealBackend()
        self.tasks: TaskProvider = ProcReader()

    def sleep(self, seconds: float) -> None:
        """Wall-clock sleep."""
        time.sleep(seconds)


class TipTop:
    """The monitor: hardware performance counters for the masses.

    Args:
        host: a :class:`SimHost` or :class:`RealHost`.
        options: tool options.
        screen: a Screen object (overrides ``options.screen`` by name).
    """

    def __init__(
        self,
        host: Host,
        options: Options | None = None,
        screen: Screen | None = None,
    ) -> None:
        self.host = host
        self.options = options or Options()
        screen = screen or get_screen(self.options.screen)
        if self.options.chaos is not None:
            # Chaos mode: seed the backend's fault plan (unless the host
            # already carries one) and surface per-task lifecycle state
            # as a HEALTH column. Both derive from the one seed, so a
            # rerun with the same options replays byte-identically.
            backend = host.backend
            if isinstance(backend, SimBackend) and backend.faults is None:
                backend.faults = FaultPlan.from_seed(self.options.chaos)
            if not any(
                c.kind is ColumnKind.HEALTH for c in screen.columns
            ):
                screen = screen.with_columns(HEALTH_COLUMN)
        self.screen = screen
        self.sampler = Sampler(
            host.backend, host.tasks, self.screen, self.options
        )
        self._advance_seconds = 0.0

    def snapshots(self, iterations: int | None = None) -> Iterator[Snapshot]:
        """Yield snapshots forever (or ``iterations`` times).

        The first snapshot attaches counters and establishes baselines; the
        paper's semantics hold: only events after tiptop starts are seen.
        Each subsequent snapshot follows one refresh delay.
        """
        limit = iterations if iterations is not None else self.options.iterations
        count = 0
        # Baseline pass: attach counters, zero-length interval.
        yield self.sampler.sample()
        while limit is None or count < limit:
            t0 = time.perf_counter()
            self.host.sleep(self.options.delay)
            self._advance_seconds = time.perf_counter() - t0
            yield self.sampler.sample()
            count += 1

    def _emit_profile(self, render_seconds: float) -> None:
        """One ``--profile`` line per refresh: where the wall time went.

        ``advance`` is the host sleep (virtual-machine simulation time for
        a SimHost, idle wall time for a RealHost); ``read``/``eval``/
        ``refresh`` come from the sampler's timing of counter+/proc reads,
        frame building with derived-metric evaluation, and process-list
        maintenance; ``render`` is text formatting. The paper's §2.5
        overhead claim is about exactly this breakdown.
        """
        if not self.options.profile:
            return
        timing = self.sampler.last_timing
        if timing is None:
            return
        print(
            f"profile: advance={self._advance_seconds * 1e3:8.2f}ms "
            f"read={timing.read_seconds * 1e3:7.2f}ms "
            f"eval={timing.eval_seconds * 1e3:7.2f}ms "
            f"refresh={timing.refresh_seconds * 1e3:7.2f}ms "
            f"render={render_seconds * 1e3:7.2f}ms "
            f"tasks={timing.tasks}",
            file=sys.stderr,
        )

    def run_collect(self, iterations: int, recorder: Recorder | None = None) -> Recorder:
        """Sample ``iterations`` intervals into a :class:`Recorder`.

        The baseline snapshot is taken but not recorded (its interval is
        empty).
        """
        recorder = recorder or Recorder()
        for i, snapshot in enumerate(self.snapshots(iterations)):
            if i == 0:
                continue
            recorder.record(snapshot)
            self._emit_profile(0.0)
        return recorder

    def run_batch(
        self,
        iterations: int,
        write: Callable[[str], object] | None = None,
    ) -> list[str]:
        """Batch mode: stream one text block per interval (like ``top -b``).

        Args:
            iterations: number of intervals.
            write: sink for each block (default: stdout).

        Returns:
            The emitted blocks.
        """
        sink = write or (lambda s: sys.stdout.write(s + "\n"))
        blocks: list[str] = []
        for i, snapshot in enumerate(self.snapshots(iterations)):
            if i == 0:
                continue
            t0 = time.perf_counter()
            block = formatter.render_batch(self.screen, snapshot)
            self._emit_profile(time.perf_counter() - t0)
            blocks.append(block)
            sink(block)
        return blocks

    def run_live(
        self,
        iterations: int,
        paint: Callable[[str], object] | None = None,
    ) -> list[str]:
        """Live mode: repaint a full frame each interval.

        Without a real terminal the frames go to ``paint`` (default: stdout
        preceded by an ANSI clear), and are returned for inspection.
        """
        def default_paint(frame: str) -> None:
            sys.stdout.write("\x1b[H\x1b[2J" + frame + "\n")
            sys.stdout.flush()

        sink = paint or default_paint
        frames: list[str] = []
        for i, snapshot in enumerate(self.snapshots(iterations)):
            if i == 0:
                continue
            t0 = time.perf_counter()
            frame = formatter.render_frame(
                self.screen, snapshot, idle_threshold=self.options.idle_threshold
            )
            self._emit_profile(time.perf_counter() - t0)
            frames.append(frame)
            sink(frame)
        return frames

    def close(self) -> None:
        """Detach all counters."""
        self.sampler.close()

    def __enter__(self) -> "TipTop":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
