"""Simulated kernel backend: perf_event semantics."""

import pytest

from repro.errors import (
    CounterStateError,
    EventError,
    NoSuchTaskError,
    PerfPermissionError,
)
from repro.perf.events import resolve_event
from repro.perf.simbackend import SimBackend
from repro.sim import PPC970, SimMachine
from tests.strategies import NoScan


@pytest.fixture
def machine(nehalem_machine, endless_workload):
    nehalem_machine.spawn("job", endless_workload, user="alice", uid=1001)
    return nehalem_machine


@pytest.fixture
def backend(machine):
    return SimBackend(machine, monitor_uid=0)


def _pid(machine):
    return machine.live_processes()[0].pid


class TestOpen:
    def test_open_and_read(self, machine, backend):
        h = backend.open(resolve_event("cycles"), _pid(machine))
        machine.run_for(1.0)
        reading = backend.read(h)
        assert reading.value > 0
        assert reading.time_enabled == pytest.approx(1.0)
        assert reading.time_running == pytest.approx(1.0)

    def test_no_such_task(self, backend):
        with pytest.raises(NoSuchTaskError):
            backend.open(resolve_event("cycles"), 424242)

    def test_dead_task(self, machine, backend):
        pid = _pid(machine)
        machine.kill(pid)
        with pytest.raises(NoSuchTaskError):
            backend.open(resolve_event("cycles"), pid)

    def test_permission_enforced(self, machine):
        """Footnote 1: unprivileged monitors only watch their own tasks."""
        stranger = SimBackend(machine, monitor_uid=2002)
        with pytest.raises(PerfPermissionError):
            stranger.open(resolve_event("cycles"), _pid(machine))

    def test_owner_may_watch_own(self, machine):
        own = SimBackend(machine, monitor_uid=1001)
        own.open(resolve_event("cycles"), _pid(machine))

    def test_root_may_watch_anyone(self, machine, backend):
        backend.open(resolve_event("cycles"), _pid(machine))

    def test_pmu_capability_enforced(self, endless_workload):
        m = SimMachine(PPC970, tick=0.1)
        p = m.spawn("j", endless_workload)
        b = SimBackend(m)
        with pytest.raises(EventError):
            b.open(resolve_event("fp-assist"), p.pid)


class TestLifecycle:
    def test_enable_disable(self, machine, backend):
        h = backend.open(resolve_event("instructions"), _pid(machine))
        backend.disable(h)
        machine.run_for(1.0)
        assert backend.read(h).value == 0
        backend.enable(h)
        machine.run_for(1.0)
        assert backend.read(h).value > 0

    def test_reset_zeroes_value(self, machine, backend):
        h = backend.open(resolve_event("instructions"), _pid(machine))
        machine.run_for(1.0)
        backend.reset(h)
        assert backend.read(h).value == 0

    def test_close_releases(self, machine, backend):
        h = backend.open(resolve_event("cycles"), _pid(machine))
        backend.close(h)
        with pytest.raises(CounterStateError):
            backend.read(h)
        assert backend.open_handle_count() == 0
        assert machine.counters.open_count() == 0

    def test_double_close_raises(self, machine, backend):
        h = backend.open(resolve_event("cycles"), _pid(machine))
        backend.close(h)
        with pytest.raises(CounterStateError):
            backend.close(h)


class TestInherit:
    def test_inherit_sums_threads(self, nehalem_machine, endless_workload):
        p = nehalem_machine.spawn("mt", endless_workload, nthreads=4)
        b = SimBackend(nehalem_machine)
        whole = b.open(resolve_event("instructions"), p.pid, inherit=True)
        single = b.open(resolve_event("instructions"), p.threads[1].tid)
        nehalem_machine.run_for(2.0)
        total = b.read(whole).value
        one = b.read(single).value
        assert total > one  # 4 threads beat 1
        assert total == pytest.approx(4 * one, rel=0.1)

    def test_thread_tid_addressable(self, nehalem_machine, endless_workload):
        p = nehalem_machine.spawn("mt", endless_workload, nthreads=2)
        b = SimBackend(nehalem_machine)
        h = b.open(resolve_event("cycles"), p.threads[1].tid)
        nehalem_machine.run_for(0.5)
        assert b.read(h).value > 0


class TestTargetLookup:
    """``open`` finds its target by tid, checking permission before
    liveness on both the leader and the thread path."""

    def _opened_tids(self, backend, handle):
        (entry,) = [h for h in backend.live_handles() if h["handle"] == handle]
        return len(entry["counters"])

    def test_leader_tid_fans_out_over_threads(
        self, nehalem_machine, endless_workload
    ):
        p = nehalem_machine.spawn("mt", endless_workload, nthreads=3)
        nehalem_machine.processes = NoScan(nehalem_machine.processes)
        b = SimBackend(nehalem_machine)
        whole = b.open(resolve_event("cycles"), p.pid, inherit=True)
        lead = b.open(resolve_event("cycles"), p.pid)
        assert self._opened_tids(b, whole) == 3
        assert self._opened_tids(b, lead) == 1

    def test_thread_tid_with_inherit_is_one_thread(
        self, nehalem_machine, endless_workload
    ):
        p = nehalem_machine.spawn("mt", endless_workload, nthreads=3)
        nehalem_machine.processes = NoScan(nehalem_machine.processes)
        b = SimBackend(nehalem_machine)
        tid = p.threads[2].tid
        h = b.open(resolve_event("cycles"), tid, inherit=True)
        assert self._opened_tids(b, h) == 1
        assert nehalem_machine.counters.counters_for(tid)

    def test_exited_leader_and_thread(self, nehalem_machine, endless_workload):
        p = nehalem_machine.spawn("mt", endless_workload, nthreads=2)
        nehalem_machine.kill(p.pid)
        b = SimBackend(nehalem_machine)
        with pytest.raises(NoSuchTaskError, match=f"task {p.pid} has exited"):
            b.open(resolve_event("cycles"), p.pid)
        tid = p.threads[1].tid
        with pytest.raises(NoSuchTaskError, match=f"task {tid} has exited"):
            b.open(resolve_event("cycles"), tid)

    def test_unknown_tid(self, machine, backend):
        with pytest.raises(NoSuchTaskError, match="no such task 987654"):
            backend.open(resolve_event("cycles"), 987654)

    def test_denied_uid_before_liveness(self, nehalem_machine, endless_workload):
        p = nehalem_machine.spawn(
            "mt", endless_workload, nthreads=2, user="alice", uid=1001
        )
        b = SimBackend(nehalem_machine, monitor_uid=1002)
        for tid in (p.pid, p.threads[1].tid):
            with pytest.raises(PerfPermissionError, match="uid 1001"):
                b.open(resolve_event("cycles"), tid)
        nehalem_machine.kill(p.pid)
        for tid in (p.pid, p.threads[1].tid):
            with pytest.raises(PerfPermissionError):
                b.open(resolve_event("cycles"), tid)


class TestCounterSemantics:
    def test_events_only_after_attach(self, machine, backend):
        """Monitoring can start at any time; only later events are seen."""
        machine.run_for(2.0)
        h = backend.open(resolve_event("instructions"), _pid(machine))
        first = backend.read(h).value
        assert first == 0
        machine.run_for(1.0)
        assert backend.read(h).value > 0

    def test_unscheduled_task_enabled_grows_running_does_not(
        self, nehalem_machine, endless_workload
    ):
        # 9 jobs pinned to one PU: mostly waiting.
        procs = [
            nehalem_machine.spawn(f"j{i}", endless_workload, affinity={0})
            for i in range(9)
        ]
        b = SimBackend(nehalem_machine)
        h = b.open(resolve_event("cycles"), procs[0].pid)
        nehalem_machine.run_for(9.0)
        r = b.read(h)
        assert r.time_enabled == pytest.approx(9.0)
        assert r.time_running < r.time_enabled
