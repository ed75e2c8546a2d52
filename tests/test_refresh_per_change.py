"""The refresh pass pays Python per changed task, not per tracked task.

Each test keeps the rule the pass used before inside the test, as its
oracle:

* floats on the simulator's output path add left to right, as ``sum()``
  does up to Python 3.11 (3.12 compensates its rounding);
* the one-step renderer prints what ``format_values`` followed by
  ``fit`` printed;
* the array settle gives the per-row settle loop's health, ``reported``,
  quarantine history, retries and skips under fault plans;
* the listing's CPU column is the left-to-right per-thread sum, and its
  processor the first thread's, through thread deaths, kills and kernel
  compactions;
* a closed kernel counter reads its final state, and the backend's
  per-group gather index never outlives a handle.
"""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columns import Column, ColumnKind
from repro.core.expr import Expression
from repro.core.formatter import render_frame_table
from repro.core.sampler import Sampler
from repro.core.screen import builtin_screens, get_screen
from repro.perf.counter import read_each_group
from repro.perf.events import resolve_event
from repro.perf.faults import FaultPlan, FaultSpec, default_specs
from repro.perf.simbackend import SimBackend
from repro.procfs.simproc import SimProcReader
from repro.sim import NEHALEM, SimMachine
from repro.sim.cache import CacheInstance
from repro.sim.counters import CounterTable
from repro.sim.events import EVENT_CODE, N_EVENT_CODES, Event
from repro.util.tabulate import Align
from repro.verify import reference


def _left_to_right(values) -> float:
    total = 0
    for value in values:
        total = total + value
    return total


# -- one rule for summing floats ---------------------------------------------


class TestLeftToRightSums:
    def test_process_cpu_time(self, nehalem_machine, endless_workload):
        proc = nehalem_machine.spawn("p", endless_workload, nthreads=3)
        for thread, seconds in zip(proc.threads, (0.1, 0.2, 0.3)):
            thread.cpu_time = seconds
        assert proc.cpu_time == (0.1 + 0.2) + 0.3
        # Python 3.12's compensated sum() would read 0.6.
        assert proc.cpu_time != 0.6

    def test_effective_capacity(self):
        spec = NEHALEM.cache_levels[-1]
        cache = CacheInstance(spec, 2, frozenset({0, 1, 2}))
        pressures = {1: 0.1, 2: 0.2, 3: 0.3}
        total = (0.1 + 0.2) + 0.3
        eps = 0.02 * total
        expected = spec.size * ((0.1 + eps) / (total + eps * 3))
        assert cache.effective_capacity(pressures, 1) == expected


# -- the renderer: one format per cell ---------------------------------------


def _old_cells(column: Column, values, *, text: bool = False) -> list[str]:
    """``Column.format_values`` followed by ``ColumnFormat.fit``."""
    if text or column.kind in (
        ColumnKind.USER, ColumnKind.COMMAND, ColumnKind.HEALTH
    ):
        texts = list(map(str, values))
    elif column.kind in (ColumnKind.PID, ColumnKind.PROCESSOR):
        texts = [str(int(v)) for v in values]
    else:
        fixed = f"{{:.{column.decimals}f}}".format
        texts = ["-" if v != v else fixed(v) for v in values]
    width = column.width
    if column.truncate:
        texts = [t[:width] for t in texts]
    if column.align is Align.LEFT:
        return [t.ljust(width) for t in texts]
    return [t.rjust(width) for t in texts]


_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(
        [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, -1e300, 0.05]
    ),
)


def _column(kind, width, decimals, align, truncate) -> Column:
    expression = Expression("a / b") if kind is ColumnKind.EXPR else None
    return Column(
        "H", kind, expression=expression, width=width, decimals=decimals,
        align=align, truncate=truncate,
    )


_LAYOUT = (
    st.integers(1, 12),
    st.integers(0, 6),
    st.sampled_from(list(Align)),
    st.booleans(),
)


class TestOneStepCells:
    @given(st.lists(_FLOATS, max_size=12), *_LAYOUT)
    @settings(max_examples=300)
    def test_floats(self, values, width, decimals, align, truncate):
        for kind in (ColumnKind.EXPR, ColumnKind.CPU_PCT, ColumnKind.TIME):
            column = _column(kind, width, decimals, align, truncate)
            assert column.cells(values) == _old_cells(column, values)

    @given(st.lists(st.integers(-(10**15), 10**15), max_size=12), *_LAYOUT)
    @settings(max_examples=150)
    def test_ints(self, values, width, decimals, align, truncate):
        for kind in (ColumnKind.PID, ColumnKind.PROCESSOR):
            column = _column(kind, width, decimals, align, truncate)
            assert column.cells(values) == _old_cells(column, values)

    @given(st.lists(st.text(max_size=30), max_size=12), *_LAYOUT)
    @settings(max_examples=150)
    def test_text(self, values, width, decimals, align, truncate):
        for kind in (ColumnKind.USER, ColumnKind.COMMAND, ColumnKind.HEALTH):
            column = _column(kind, width, decimals, align, truncate)
            assert column.cells(values) == _old_cells(column, values)
            # Labels of any column print as text.
            assert column.to_format().cells(values) == _old_cells(
                column, values, text=True
            )

    def test_repeated_floats_keep_their_own_text(self):
        """Floats are formatted once per distinct bit pattern: -0.0 and
        0.0 stay apart, and NaN of any payload prints the dash."""
        payload = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000123))[0]
        values = [0.0, -0.0, math.nan, -math.nan, payload, 0.0, 1e300, -0.0]
        for align in Align:
            column = _column(ColumnKind.EXPR, 6, 1, align, False)
            assert column.cells(values) == _old_cells(column, values)
            assert column.cells(np.array(values)) == _old_cells(column, values)

    def test_header_is_a_text_cell(self):
        column = _column(ColumnKind.EXPR, 4, 2, Align.LEFT, True)
        layout = column.to_format()
        old = _old_cells(column, ["HEADER"], text=True)
        assert layout.spec() % "HEADER" == old[0] == "HEAD"


def _old_table(screen, frame) -> str:
    """The renderer before one-step cells: texts, then fit, header first."""
    fields = {
        ColumnKind.PID: lambda: frame.pids.tolist(),
        ColumnKind.USER: lambda: frame.users,
        ColumnKind.CPU_PCT: lambda: frame.cpu_pct.tolist(),
        ColumnKind.TIME: lambda: frame.cpu_time.tolist(),
        ColumnKind.COMMAND: lambda: frame.comms,
        ColumnKind.PROCESSOR: lambda: frame.processors.tolist(),
    }
    columns = []
    for c in screen.columns:
        if c.kind in fields:
            texts = _old_cells(c, fields[c.kind]())
        elif c.header in frame.metrics:
            texts = _old_cells(c, frame.metrics[c.header].tolist())
        else:
            labels = frame.labels.get(c.header, ("",) * len(frame))
            texts = _old_cells(c, labels, text=True)
        columns.append([_old_cells(c, [c.header], text=True)[0], *texts])
    return "\n".join(" ".join(line).rstrip() for line in zip(*columns))


@pytest.mark.parametrize("screen", builtin_screens(), ids=lambda s: s.name)
def test_every_builtin_screen_renders_as_before(screen, endless_workload):
    machine = SimMachine(NEHALEM, cores_per_socket=2, tick=0.5, seed=5)
    for i in range(6):
        machine.spawn(f"task-with-a-long-name-{i}", endless_workload,
                      nthreads=1 + i % 3, duty_cycle=0.5 + 0.1 * i)
    backend = SimBackend(machine, faults=FaultPlan.from_seed(3, 4.0))
    sampler = Sampler(backend, SimProcReader(machine), screen.with_health())
    for _ in range(4):
        frame = sampler.sample_frame()
        assert render_frame_table(sampler.screen, frame) == _old_table(
            sampler.screen, frame
        )
        machine.run_for(1.0)
    sampler.close()


# -- the settle: array steps against the per-row loop -------------------------


class _PerRowSampler(Sampler):
    """The settle loop the array steps replaced."""

    def _settle(self, rows, reads):
        tasks = self.proclist.tasks
        history = self.proclist.quarantine_history
        clean = []
        for k, row in enumerate(rows.tolist()):
            retries = int(reads.retries[k])
            error = reads.errors.get(k)
            self.read_retries += retries
            if error is not None:
                self._read_failed(row, error)
                continue
            if retries:
                tasks.health[row] = "retry"
            elif tasks.health[row] == "reattached" and not tasks.reported[row]:
                tasks.reported[row] = True
            else:
                tasks.health[row] = "ok"
                if history:
                    history.pop(int(tasks.tid[row]), None)
            clean.append(k)
        return np.array(clean, dtype=np.intp)


def _settle_run(sampler_type, seed: int, plan_specs, workload) -> list:
    machine = SimMachine(NEHALEM, cores_per_socket=2, tick=0.5, seed=seed)
    for i in range(10):
        machine.spawn(f"t{i}", workload, nthreads=1 + i % 3,
                      duty_cycle=1.0 if i % 2 else 0.6)
    backend = SimBackend(machine, faults=FaultPlan(seed, plan_specs))
    screen = get_screen("default").with_health()
    sampler = sampler_type(backend, SimProcReader(machine), screen)
    seen = []
    for step in range(14):
        if step == 6:
            machine.kill(min(machine._live))
        frame = sampler.sample_frame()
        proclist = sampler.proclist
        tasks = proclist.tasks
        rows = {tid: (tasks.health[row], bool(tasks.reported[row]))
                for tid, row in proclist.tracked.items()}
        seen.append((
            frame.tids.tolist(), frame.labels,
            {name: delta.tolist() for name, delta in frame.deltas.items()},
            rows, dict(proclist.quarantine_history),
            sorted(proclist.quarantined), sampler.read_retries,
            sampler.read_skips,
        ))
        machine.run_for(1.0)
    sampler.close()
    return seen


_READ_FAULTS = (
    FaultSpec("read", "eintr", 0.3),
    FaultSpec("read", "eagain", 0.05),
    FaultSpec("read", "corrupt", 0.05),
    FaultSpec("read", "esrch", 0.06),
    FaultSpec("read", "starve", 0.05),
    FaultSpec("open", "eagain", 0.05),
)


class TestArraySettle:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "specs", [_READ_FAULTS, default_specs(6.0)], ids=["reads", "mix"]
    )
    def test_matches_the_per_row_loop(self, seed, specs, endless_workload):
        array = _settle_run(Sampler, seed, specs, endless_workload)
        per_row = _settle_run(_PerRowSampler, seed, specs, endless_workload)
        assert array == per_row
        if specs is _READ_FAULTS:
            # Every branch runs: retries, skips, quarantine, reattach.
            assert array[-1][6] > 0 and array[-1][7] > 0
            assert any(step[4] for step in array)
            assert any(
                health == "reattached"
                for step in array
                for health, _ in step[3].values()
            )


# -- the listing: per-process figures without walking threads -----------------


def _check_listing(machine) -> None:
    table = SimProcReader(machine).list_processes()
    procs = machine.live_processes()
    assert table.pid.tolist() == [p.pid for p in procs]
    for proc, cpu, pu in zip(procs, table.cpu_seconds.tolist(),
                             table.processor.tolist()):
        expected = _left_to_right(t.cpu_time for t in proc.threads)
        assert cpu == expected and type(cpu) is float
        assert pu == max(proc.threads[0].last_pu, 0)


class TestListing:
    @pytest.mark.parametrize("engine", ["kernel", "reference"])
    def test_cpu_column_is_the_left_to_right_thread_sum(
        self, engine, basic_phase, endless_workload
    ):
        from repro.sim.workload import Workload

        machine = SimMachine(NEHALEM, cores_per_socket=2, tick=0.1, seed=9)
        # Short workloads whose threads end at different ticks (duty
        # gates and a crowded node), so processes lose threads one by one.
        short = Workload("short", (basic_phase.with_budget(3.07e9 * 0.3),))
        for i in range(24):
            machine.spawn(f"s{i}", short, nthreads=1 + i % 4,
                          duty_cycle=0.4 + 0.05 * (i % 7))
        victims = [machine.spawn(f"e{i}", endless_workload, nthreads=3).pid
                   for i in range(3)]
        advance = machine.run_for if engine == "kernel" else (
            lambda s: reference.run_for(machine, s)
        )
        partial = compacted = False
        slots = len(machine._kernel.threads)
        for step in range(30):
            if step in (5, 12, 19):
                machine.kill(victims[(step - 5) // 7])
            advance(0.5)
            _check_listing(machine)
            partial |= any(
                p.alive and not all(t.alive for t in p.threads)
                for p in machine.live_processes()
            )
            if engine == "kernel":
                compacted |= len(machine._kernel.threads) < slots
                slots = len(machine._kernel.threads)
        assert partial
        if engine == "kernel":
            assert compacted
        # Nothing pins a dead process.
        assert all(p.alive for p in machine.scheduler.placed)

    def test_single_process_lookup_is_current(self, coarse_machine,
                                              endless_workload):
        proc = coarse_machine.spawn("mt", endless_workload, nthreads=3)
        reader = SimProcReader(coarse_machine)
        assert reader.process(proc.pid).cpu_seconds == 0.0
        coarse_machine.run_for(2.0)
        info = reader.process(proc.pid)
        assert info.cpu_seconds == _left_to_right(t.cpu_time for t in proc.threads)
        assert info.cpu_seconds > 0
        assert info.processor == proc.threads[0].last_pu


# -- closed counters and the gather index -------------------------------------


def _lanes(values: dict) -> np.ndarray:
    vec = np.zeros(N_EVENT_CODES)
    for event, value in values.items():
        vec[EVENT_CODE[event]] = value
    return vec


class TestClosedCounter:
    def test_final_reading_survives_the_recycled_slot(self):
        table = CounterTable(4)
        a = table.open(Event.CYCLES, 1, 0)
        table.accrue(1, _lanes({Event.CYCLES: 42.5}), wall_dt=1.0,
                     scheduled_dt=0.25, alive=True)
        before = (a.value, a.time_enabled, a.time_running)
        table.close(a.counter_id)
        b = table.open(Event.LOADS, 2, 0)  # recycles a's slot
        assert b.slot == 0
        table.accrue(2, _lanes({Event.LOADS: 7.0}), wall_dt=0.5,
                     scheduled_dt=0.5, alive=True)
        assert (a.value, a.time_enabled, a.time_running) == before
        assert a.enabled is False and type(a.value) is float
        # Writes to the closed handle stay private.
        a.value = 1.0
        assert b.value == 7.0 and a.value == 1.0


class TestGatherIndex:
    def _setup(self, machine, workload):
        procs = [machine.spawn(f"p{i}", workload, nthreads=1 + i)
                 for i in range(3)]
        backend = SimBackend(machine)
        events = [resolve_event(name) for name in ("cycles", "instructions")]
        groups = [
            tuple(backend.open(e, p.pid, inherit=True) for e in events)
            for p in procs
        ]
        return backend, groups

    def test_batched_equals_per_handle_and_index_follows_close(
        self, coarse_machine, endless_workload
    ):
        backend, groups = self._setup(coarse_machine, endless_workload)
        for _ in range(3):
            coarse_machine.run_for(1.0)
            batched = backend.read_groups(groups)
            single = read_each_group(backend._read_group, groups)
            assert batched.value.tolist() == single.value.tolist()
            assert batched.time_enabled.tolist() == single.time_enabled.tolist()
            assert batched.time_running.tolist() == single.time_running.tolist()
            # Regrouped lists read the same handles alike.
            flat = [[h] for group in groups for h in group]
            assert backend.read_groups(flat).value.tolist() == batched.value.tolist()
        assert set(backend._index) >= set(groups)
        backend.close(groups[1][0])
        assert groups[1] not in backend._index
        reads = backend.read_groups(groups)
        assert list(reads.errors) == [1]
        for handle in (h for g in groups for h in g if h != groups[1][0]):
            backend.close(handle)
        assert backend._index == {} and backend._index.groups_of == {}
