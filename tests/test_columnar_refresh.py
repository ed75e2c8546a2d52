"""The columnar refresh: one batched counter read per sampling pass into
the task table, frames built from its arrays, tables rendered per column.

Each test pins one contract of that path: the pass makes one
``read_groups`` call and no per-handle read; retries happen in place, so
fault schedules keep their meaning; a starved handle reads as its last
clean reading even from an aborted attempt; the array scaling is
bit for bit :meth:`Counter._delta_from`; task rows are recycled; and
the column renderer prints what a per-cell renderer prints.
"""

from __future__ import annotations

import math
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columns import (
    COMMAND_COLUMN,
    CPU_COLUMN,
    HEALTH_COLUMN,
    PID_COLUMN,
    PROCESSOR_COLUMN,
    TIME_COLUMN,
    USER_COLUMN,
    ColumnKind,
    expr_column,
)
from repro.core.formatter import render_frame_table
from repro.core.frame import SnapshotFrame
from repro.core.proclist import TaskTable
from repro.core.sampler import Sampler
from repro.core.screen import Screen, get_screen
from repro.perf.counter import Counter as PerfCounter, Reading
from repro.perf.events import resolve_event
from repro.perf.faults import FaultPlan, FaultSpec
from repro.perf.simbackend import SimBackend
from repro.procfs.simproc import SimProcReader
from repro.sim import NEHALEM, SimMachine
from repro.util.tabulate import Align
from repro.verify.runner import _SequentialBackend

#: Counter events of the default screen, each task's group width.
WIDTH = len(get_screen("default").required_events())


class CountingBackend(SimBackend):
    """A sim backend that counts its read calls."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.calls: Counter[str] = Counter()

    def read(self, handle):
        self.calls["read"] += 1
        return super().read(handle)

    def read_groups(self, groups):
        self.calls["read_groups"] += 1
        return super().read_groups(groups)


def _sampler(machine, backend):
    return Sampler(backend, SimProcReader(machine), get_screen("default"))


def _machine():
    """A fresh copy of the ``coarse_machine`` fixture's node."""
    return SimMachine(NEHALEM, sockets=1, cores_per_socket=4, tick=0.5, seed=11)


class TestOneReadPerPass:
    def test_one_batched_read_and_no_per_handle_reads(
        self, coarse_machine, basic_workload, endless_workload
    ):
        """First pass, steady state, churn and exits alike: one
        ``read_groups`` call per pass, no ``SimBackend.read``."""
        coarse_machine.spawn("brief", basic_workload)  # exits after ~10 s
        coarse_machine.spawn("mt", endless_workload, nthreads=3)
        backend = CountingBackend(coarse_machine)
        sampler = _sampler(coarse_machine, backend)
        sampler.sample_frame()
        assert backend.calls == {"read_groups": 1}
        coarse_machine.spawn("late", endless_workload)
        for seconds in (5.0, 10.0, 5.0):
            coarse_machine.run_for(seconds)
            backend.calls.clear()
            frame = sampler.sample_frame()
            assert backend.calls == {"read_groups": 1}
            assert len(frame) >= 2
        sampler.close()


class TestStaleHandle:
    @pytest.mark.parametrize("plan", [None, FaultPlan(0)])
    def test_stale_handle_fails_only_its_group(
        self, coarse_machine, endless_workload, plan
    ):
        """A handle closed behind the sampler's back quarantines its own
        task, with or without a fault plan; the other task reads on."""
        a = coarse_machine.spawn("a", endless_workload)
        b = coarse_machine.spawn("b", endless_workload)
        backend = SimBackend(coarse_machine, faults=plan)
        sampler = _sampler(coarse_machine, backend)
        sampler.sample_frame()
        proclist = sampler.proclist
        backend.close(proclist.tasks.group[proclist.tracked[a.pid]].handles[1])
        coarse_machine.run_for(2.0)
        frame = sampler.sample_frame()
        assert frame.pids.tolist() == [b.pid]
        assert frame.deltas["cycles"][0] > 0
        # Quarantined with a one-refresh backoff: reattached at once.
        assert proclist.quarantine_history == {a.pid: 1}
        assert proclist.tasks.health[proclist.tracked[a.pid]] == "reattached"
        sampler.close()
        assert backend.open_handle_count() == 0


def _second_pass(workload, tasks, plan=None, *, sequential=False):
    """Sample ``tasks`` fresh tasks twice on a fresh node.

    Returns (sampler, frame of the second pass, pids in spawn order)."""
    machine = _machine()
    pids = [machine.spawn(f"t{i}", workload).pid for i in range(tasks)]
    backend = SimBackend(machine, faults=plan)
    sampler = _sampler(
        machine, _SequentialBackend(backend) if sequential else backend
    )
    sampler.sample_frame()
    machine.run_for(2.0)
    return sampler, sampler.sample_frame(), pids


def _row(frame, pid):
    (i,) = np.flatnonzero(frame.pids == pid)
    return {k: v[i] for k, v in frame.deltas.items()}


class TestInPlaceRetry:
    @pytest.mark.parametrize("sequential", [False, True])
    def test_retry_precedes_the_next_task(
        self, endless_workload, sequential
    ):
        """EINTR on A's second handle, ESRCH at the next global read: the
        retry re-reads A before B, so A is quarantined after one counted
        retry and B's row is exactly a clean pass's."""
        # The baseline pass reads 2 * WIDTH handles; A is read first.
        second = 2 * WIDTH + 2
        plan = FaultPlan(
            0,
            (
                FaultSpec("read", "eintr", at_calls=frozenset({second})),
                FaultSpec("read", "esrch", at_calls=frozenset({second + 1})),
            ),
        )
        sampler, frame, (a, b) = _second_pass(
            endless_workload, 2, plan, sequential=sequential
        )
        _, clean, _ = _second_pass(endless_workload, 2)
        assert sampler.read_retries == 1
        assert sampler.read_skips == 0
        assert sampler.proclist.quarantine_history == {a: 1}
        assert frame.pids.tolist() == [b]
        row = _row(frame, b)
        assert row == _row(clean, b)
        assert row["cycles"] > 0 and row["instructions"] > 0

    def test_starve_in_retry_reads_the_aborted_attempt(self, endless_workload):
        """EINTR on handle 2, then starve on handle 1 in the retry: the
        starved handle reads as the clean value handle 1 read in the
        aborted attempt, on the batched and the per-handle path alike."""
        results = []
        for sequential in (False, True):
            # Reads 1..WIDTH are the baseline pass.
            plan = FaultPlan(
                0,
                (
                    FaultSpec("read", "eintr", at_calls=frozenset({WIDTH + 2})),
                    FaultSpec("read", "starve", at_calls=frozenset({WIDTH + 3})),
                ),
            )
            sampler, frame, _ = _second_pass(
                endless_workload, 1, plan, sequential=sequential
            )
            assert sampler.read_retries == 1
            assert len(frame) == 1
            results.append({k: v.tolist() for k, v in frame.deltas.items()})
        assert results[0] == results[1]
        # Handle 1 (cycles) starved in the retry yet keeps its interval.
        assert results[0]["cycles"][0] > 0
        assert results[0]["instructions"][0] > 0


class _OneHandleBackend:
    """Just enough backend for a standalone :class:`Counter`."""

    def open(self, event, tid, *, inherit=False, sample_period=None):
        return 1


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestArrayScaling:
    READINGS = [
        # (baseline, now): multiplexed, never ran, Δvalue above 2**53.
        (Reading(1_000, 1.0, 0.5), Reading(7_777_777, 3.0, 1.1)),
        (Reading(5_000, 1.0, 0.7), Reading(9_000, 2.5, 0.7)),
        (Reading(3, 0.25, 0.125), Reading(2**53 + 2**40 + 7, 10.0, 3.0)),
    ]

    def _scalar(self, base: Reading, now: Reading) -> float:
        counter = PerfCounter(_OneHandleBackend(), resolve_event("cycles"), 1)
        counter._delta_from(base)
        return counter._delta_from(now)

    def test_fold_equals_delta_from_bitwise(self):
        table = TaskTable(len(self.READINGS))
        row = table.alloc(1, 1, None, "ok")
        rows = np.array([row])
        for k, pick in enumerate((0, 1)):
            readings = [pair[pick] for pair in self.READINGS]
            scaled = table.fold(
                rows,
                np.array([[r.value for r in readings]], dtype=np.int64),
                np.array([[r.time_enabled for r in readings]]),
                np.array([[r.time_running for r in readings]]),
            )
        assert scaled.shape == (len(self.READINGS), 1)
        for (base, now), got in zip(self.READINGS, scaled[:, 0].tolist()):
            assert _bits(got) == _bits(self._scalar(base, now))
        assert scaled[1, 0] == 0.0  # the counter never ran

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2**62),
                st.integers(0, 2**62),
                st.floats(0, 1e6),
                st.floats(0, 1e6),
                st.floats(0, 1e6),
                st.floats(0, 1e6),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_fold_matches_scalar_rule(self, cells):
        table = TaskTable(len(cells))
        rows = np.array([table.alloc(1, 1, None, "ok")])
        base = [Reading(v0, te0, tr0) for v0, _, te0, _, tr0, _ in cells]
        now = [Reading(v1, te1, tr1) for _, v1, _, te1, _, tr1 in cells]
        for readings in (base, now):
            scaled = table.fold(
                rows,
                np.array([[r.value for r in readings]], dtype=np.int64),
                np.array([[r.time_enabled for r in readings]]),
                np.array([[r.time_running for r in readings]]),
            )
        for b, n, got in zip(base, now, scaled[:, 0].tolist()):
            assert _bits(got) == _bits(self._scalar(b, n))


class TestBaselineRows:
    def test_rows_are_recycled_under_churn(
        self, coarse_machine, endless_workload
    ):
        """200 refreshes while tasks come and go: the table never holds
        more rows than the most tasks tracked at once."""
        from repro.sim.workload import Workload

        phase = endless_workload.phases[0]
        brief = Workload("brief", (phase.with_budget(phase.instructions / 4e3),))
        for i in range(4):
            coarse_machine.spawn(f"steady{i}", endless_workload)
        sampler = _sampler(coarse_machine, SimBackend(coarse_machine))
        proclist = sampler.proclist
        refresh = proclist.refresh
        peak = 0
        attaches = 0

        def counting_refresh(listing):
            nonlocal peak, attaches
            attached, detached = refresh(listing)
            attaches += len(attached)
            # Attaches land before detaches within one refresh.
            peak = max(peak, len(proclist.tracked) + len(detached))
            return attached, detached

        proclist.refresh = counting_refresh
        sampler.sample_frame()
        for i in range(200):
            coarse_machine.spawn(f"brief{i}", brief)
            coarse_machine.run_for(1.0)
            sampler.sample_frame()
        assert attaches > 150
        assert proclist.tasks.size <= peak
        sampler.close()
        assert coarse_machine.counters.open_count() == 0


# -- the column renderer against a per-cell reference -----------------------

def _fit_cell(column, text: str) -> str:
    if column.truncate and len(text) > column.width:
        text = text[: column.width]
    if column.align is Align.LEFT:
        return text.ljust(column.width)
    return text.rjust(column.width)


def _reference_cell(column, value) -> str:
    """How one cell printed before tables were rendered per column."""
    if column.kind in (ColumnKind.USER, ColumnKind.COMMAND, ColumnKind.HEALTH):
        text = str(value)
    elif column.kind in (ColumnKind.PID, ColumnKind.PROCESSOR):
        text = str(int(value))
    elif isinstance(value, float) and math.isnan(value):
        text = "-"
    elif isinstance(value, (int, float)):
        text = f"{value:.{column.decimals}f}"
    else:
        text = str(value)
    return _fit_cell(column, text)


def _reference_table(screen: Screen, frame: SnapshotFrame) -> str:
    def values(column):
        kind = column.kind
        if kind is ColumnKind.PID:
            return frame.pids.tolist()
        if kind is ColumnKind.USER:
            return list(frame.users)
        if kind is ColumnKind.CPU_PCT:
            return frame.cpu_pct.tolist()
        if kind is ColumnKind.TIME:
            return frame.cpu_time.tolist()
        if kind is ColumnKind.COMMAND:
            return list(frame.comms)
        if kind is ColumnKind.PROCESSOR:
            return frame.processors.tolist()
        if column.header in frame.metrics:
            return frame.metrics[column.header].tolist()
        return list(frame.labels.get(column.header, [""] * len(frame)))

    header = " ".join(_fit_cell(c, c.header) for c in screen.columns).rstrip()
    rows = zip(*(values(c) for c in screen.columns))
    lines = [header] + [
        " ".join(_reference_cell(c, v) for c, v in zip(screen.columns, row)).rstrip()
        for row in rows
    ]
    return "\n".join(lines)


_SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300])
_FLOATS = st.one_of(_SPECIAL, st.floats(-1e12, 1e12))
_TEXT = st.text(
    st.characters(min_codepoint=33, max_codepoint=126), min_size=0, max_size=22
)

_SCREEN = Screen(
    name="all-kinds",
    description="every column kind, narrow and wide",
    columns=(
        PID_COLUMN,
        USER_COLUMN,
        CPU_COLUMN,
        TIME_COLUMN,
        expr_column("IPC", "a / b"),
        expr_column("W", "a", width=3, decimals=4),
        expr_column("GONE", "b", decimals=0),
        PROCESSOR_COLUMN,
        HEALTH_COLUMN,
        COMMAND_COLUMN,
    ),
)


@st.composite
def _frames(draw):
    n = draw(st.integers(0, 5))
    ints = st.integers(-(2**40), 2**40)

    def floats():
        return np.array(draw(st.lists(_FLOATS, min_size=n, max_size=n)))

    metrics = {"IPC": floats(), "W": floats()}
    if draw(st.booleans()):
        metrics["GONE"] = floats()
    labels = {}
    if draw(st.booleans()):
        labels["HEALTH"] = tuple(draw(st.lists(_TEXT, min_size=n, max_size=n)))
    return SnapshotFrame(
        time=1.0,
        interval=1.0,
        pids=np.array(draw(st.lists(ints, min_size=n, max_size=n)), dtype=np.int64),
        tids=np.zeros(n, dtype=np.int64),
        uids=np.zeros(n, dtype=np.int64),
        users=tuple(draw(st.lists(_TEXT, min_size=n, max_size=n))),
        comms=tuple(draw(st.lists(_TEXT, min_size=n, max_size=n))),
        cpu_pct=floats(),
        cpu_time=floats(),
        processors=np.array(
            draw(st.lists(ints, min_size=n, max_size=n)), dtype=np.int64
        ),
        deltas={},
        metrics=metrics,
        labels=labels,
        columns=tuple((c.header, c.kind.value) for c in _SCREEN.columns),
    )


class TestColumnRenderer:
    @settings(max_examples=150, deadline=None)
    @given(_frames())
    def test_matches_per_cell_reference(self, frame):
        assert render_frame_table(_SCREEN, frame) == _reference_table(
            _SCREEN, frame
        )

    def test_empty_frame_is_the_header(self):
        frame = SnapshotFrame.empty()
        text = render_frame_table(_SCREEN, frame)
        assert text == _reference_table(_SCREEN, frame)
        assert "\n" not in text
