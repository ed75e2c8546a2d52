"""Failure injection: the tool must survive a misbehaving kernel.

Real monitors race the kernel constantly — tasks die between listing and
attach, reads hit stale fds, opens fail transiently. These tests drive the
first-class fault subsystem (:mod:`repro.perf.faults`) wired natively into
:class:`~repro.perf.simbackend.SimBackend` and assert the sampler's
lifecycle policy: bounded retry for transient errors, quarantine and
reattach for per-task failures, and guaranteed fd cleanup throughout.

The first three classes keep the assertions of the original ad-hoc
``FlakyBackend`` tests as regressions (same scenarios, now expressed as
seeded fault plans).
"""

import pytest

from repro.core.columns import HEALTH_COLUMN
from repro.core.sampler import Sampler
from repro.core.screen import get_screen
from repro.errors import FdLimitError
from repro.perf.counter import CounterGroup
from repro.perf.events import resolve_event
from repro.perf.faults import FaultPlan, FaultSpec
from repro.perf.simbackend import SimBackend
from repro.procfs.model import ProcessInfo, ProcessTable
from repro.procfs.simproc import SimProcReader
from repro.sim import NEHALEM, SimMachine
from repro.sim.workloads import datacenter


def make_sampler(machine, *, faults=None, screen=None, options=None,
                 monitor_uid=0):
    backend = SimBackend(machine, monitor_uid, faults=faults)
    sampler = Sampler(
        backend,
        SimProcReader(machine),
        screen or get_screen("default"),
        options,
    )
    return backend, sampler


class VanishingTasks:
    """A /proc provider that lists a pid the kernel no longer has (the
    classic exit-between-listdir-and-open race)."""

    def __init__(self, inner, ghost_pid):
        self.inner = inner
        self.ghost_pid = ghost_pid

    def uptime(self):
        return self.inner.uptime()

    def list_processes(self):
        procs = self.inner.list_processes().rows()
        ghost = ProcessInfo(
            pid=self.ghost_pid,
            tids=(self.ghost_pid,),
            uid=0,
            user="ghost",
            comm="ghost",
            cpu_seconds=0.0,
            start_time=0.0,
            processor=0,
        )
        return ProcessTable.from_rows([*procs, ghost])


class TestAttachFailures:
    def test_transient_open_failure_skips_task_then_recovers(
        self, coarse_machine, endless_workload
    ):
        coarse_machine.spawn("a", endless_workload)
        coarse_machine.spawn("b", endless_workload)
        # EAGAIN on the first attempt and both bounded retries: the attach
        # budget (1 + retry_limit) is exhausted for task a's first group.
        faults = FaultPlan(
            0, [FaultSpec("open", "eagain", at_calls=frozenset({1, 2, 3}))]
        )
        backend, sampler = make_sampler(coarse_machine, faults=faults)
        snap = sampler.sample()
        # One task failed to attach this round; the other is monitored.
        assert len(snap.frame) == 1
        assert sampler.proclist.attach_errors == 1
        assert sampler.proclist.attach_retries == 2
        coarse_machine.run_for(2.0)
        # The failure was transient: the task attaches on a later refresh.
        snap = sampler.sample()
        coarse_machine.run_for(2.0)
        snap = sampler.sample()
        assert len(snap.frame) == 2
        sampler.close()
        assert coarse_machine.counters.open_count() == 0
        assert backend.opened_total == backend.closed_total

    def test_ghost_task_attach_does_not_crash(
        self, coarse_machine, endless_workload
    ):
        coarse_machine.spawn("real", endless_workload)
        backend = SimBackend(coarse_machine)
        tasks = VanishingTasks(SimProcReader(coarse_machine), ghost_pid=99999)
        sampler = Sampler(backend, tasks, get_screen("default"))
        snap = sampler.sample()
        assert snap.frame.comms == ("real",)
        assert sampler.proclist.attach_errors >= 1
        sampler.close()

    def test_retry_succeeds_within_budget(
        self, coarse_machine, endless_workload
    ):
        """One EAGAIN, then success: the retry hides the fault entirely."""
        coarse_machine.spawn("a", endless_workload)
        faults = FaultPlan(
            0, [FaultSpec("open", "eagain", at_calls=frozenset({1}))]
        )
        backend, sampler = make_sampler(coarse_machine, faults=faults)
        snap = sampler.sample()
        assert len(snap.frame) == 1
        assert sampler.proclist.attach_errors == 0
        assert sampler.proclist.attach_retries == 1
        sampler.close()
        assert coarse_machine.counters.open_count() == 0

    def test_transient_then_denied_counts_the_retry(
        self, coarse_machine, endless_workload
    ):
        """EAGAIN, then a permission denial on the retry: the retry is
        counted, the denial cached, and no attach failure charged."""
        proc = coarse_machine.spawn("root-owned", endless_workload, uid=0)
        faults = FaultPlan(
            0, [FaultSpec("open", "eagain", at_calls=frozenset({1}))]
        )
        backend, sampler = make_sampler(
            coarse_machine, faults=faults, monitor_uid=1001
        )
        snap = sampler.sample()
        assert len(snap.frame) == 0
        assert sampler.proclist.attach_retries == 1
        assert sampler.proclist.attach_errors == 0
        assert sampler.proclist.denied == {proc.pid}
        opens = faults.call_count("open")
        coarse_machine.run_for(2.0)
        sampler.sample()
        assert faults.call_count("open") == opens  # not retried
        sampler.close()

    def test_fd_limit_is_retried_next_refresh_not_denied(
        self, coarse_machine, endless_workload
    ):
        coarse_machine.spawn("a", endless_workload)
        faults = FaultPlan(
            0, [FaultSpec("open", "emfile", at_calls=frozenset({1}))]
        )
        backend, sampler = make_sampler(coarse_machine, faults=faults)
        snap = sampler.sample()
        assert len(snap.frame) == 0
        assert sampler.proclist.attach_errors == 1
        assert not sampler.proclist.denied  # EMFILE is not a denial
        coarse_machine.run_for(2.0)
        sampler.sample()
        coarse_machine.run_for(2.0)
        snap = sampler.sample()
        assert len(snap.frame) == 1
        sampler.close()


class TestReadFailures:
    def test_stale_read_drops_row_keeps_others(
        self, coarse_machine, endless_workload
    ):
        coarse_machine.spawn("a", endless_workload)
        coarse_machine.spawn("b", endless_workload)
        faults = FaultPlan(0)
        backend, sampler = make_sampler(coarse_machine, faults=faults)
        sampler.sample()
        coarse_machine.run_for(2.0)
        # The kernel declares task a's target gone on the very next read.
        faults.add(
            FaultSpec(
                "read",
                "esrch",
                at_calls=frozenset({faults.call_count("read") + 1}),
            )
        )
        snap = sampler.sample()
        assert len(snap.frame) == 1  # victim skipped, not fatal
        coarse_machine.run_for(2.0)
        snap = sampler.sample()
        assert len(snap.frame) == 2  # back to normal
        sampler.close()
        assert coarse_machine.counters.open_count() == 0
        assert backend.opened_total == backend.closed_total

    def test_transient_read_retries_within_interval(
        self, coarse_machine, endless_workload
    ):
        """EINTR once mid-read: retried immediately, row survives."""
        coarse_machine.spawn("a", endless_workload)
        faults = FaultPlan(0)
        backend, sampler = make_sampler(coarse_machine, faults=faults)
        sampler.sample()
        coarse_machine.run_for(2.0)
        faults.add(
            FaultSpec(
                "read",
                "eintr",
                at_calls=frozenset({faults.call_count("read") + 1}),
            )
        )
        snap = sampler.sample()
        assert len(snap.frame) == 1
        assert sampler.read_retries == 1
        proclist = sampler.proclist
        row = proclist.tracked[int(snap.frame.tids[0])]
        assert proclist.tasks.health[row] == "retry"
        sampler.close()

    def test_transient_then_esrch_counts_the_retry(
        self, coarse_machine, endless_workload
    ):
        """EINTR, then ESRCH on the retry: the retry is counted and the
        task is quarantined, not skipped."""
        proc = coarse_machine.spawn("a", endless_workload)
        faults = FaultPlan(0)
        backend, sampler = make_sampler(coarse_machine, faults=faults)
        sampler.sample()
        coarse_machine.run_for(2.0)
        nxt = faults.call_count("read")
        faults.add(FaultSpec("read", "eintr", at_calls=frozenset({nxt + 1})))
        faults.add(FaultSpec("read", "esrch", at_calls=frozenset({nxt + 2})))
        snap = sampler.sample()
        assert len(snap.frame) == 0
        assert sampler.read_retries == 1
        assert sampler.read_skips == 0
        assert sampler.proclist.quarantine_history == {proc.pid: 1}
        sampler.close()
        assert backend.opened_total == backend.closed_total

    def test_exhausted_transient_reads_skip_but_keep_counters(
        self, coarse_machine, endless_workload
    ):
        coarse_machine.spawn("a", endless_workload)
        faults = FaultPlan(0)
        backend, sampler = make_sampler(coarse_machine, faults=faults)
        sampler.sample()
        coarse_machine.run_for(2.0)
        nxt = faults.call_count("read")
        faults.add(
            FaultSpec(
                "read",
                "corrupt",
                at_calls=frozenset({nxt + 1, nxt + 2, nxt + 3}),
            )
        )
        snap = sampler.sample()
        assert len(snap.frame) == 0
        assert sampler.read_skips == 1
        # Counters stayed attached: the next clean interval just works.
        assert len(sampler.proclist.tracked) == 1
        coarse_machine.run_for(2.0)
        snap = sampler.sample()
        assert len(snap.frame) == 1
        sampler.close()

    def test_multiplex_starvation_reads_as_zero_delta(
        self, coarse_machine, endless_workload
    ):
        coarse_machine.spawn("a", endless_workload)
        faults = FaultPlan(0, [FaultSpec("read", "starve", 1.0)])
        backend, sampler = make_sampler(coarse_machine, faults=faults)
        sampler.sample()
        coarse_machine.run_for(2.0)
        snap = sampler.sample()
        assert len(snap.frame) == 1
        assert all(col[0] == 0.0 for col in snap.frame.deltas.values())
        sampler.close()

    def test_cpu_after_a_skipped_read_spans_both_intervals(
        self, endless_workload
    ):
        """A skipped row leaves the task's last sample two intervals old:
        the next row divides two intervals of CPU time by both of them,
        not by one (a full-time burner reads 100 %, never 200 %)."""
        machine = SimMachine(NEHALEM, sockets=1, cores_per_socket=2, tick=0.25, seed=3)
        machine.spawn("burn", endless_workload)
        faults = FaultPlan(
            0, [FaultSpec("read", "eintr", at_calls=frozenset({4, 5, 6}))]
        )
        _backend, sampler = make_sampler(machine, faults=faults)
        rows = []
        for _ in range(4):
            frame = sampler.sample_frame()
            rows.append(frame.cpu_pct.tolist())
            machine.run_for(2.0)
        assert rows == [[0.0], [], [100.0], [100.0]]
        assert sampler.read_skips == 1
        sampler.close()


class TestQuarantine:
    def test_quarantine_then_reattach_lifecycle(
        self, coarse_machine, endless_workload
    ):
        proc = coarse_machine.spawn("a", endless_workload)
        faults = FaultPlan(0)
        screen = get_screen("default").with_columns(HEALTH_COLUMN)
        backend, sampler = make_sampler(
            coarse_machine, faults=faults, screen=screen
        )
        sampler.sample()
        coarse_machine.run_for(2.0)
        faults.add(
            FaultSpec(
                "read",
                "esrch",
                at_calls=frozenset({faults.call_count("read") + 1}),
            )
        )
        snap = sampler.sample()
        assert len(snap.frame) == 0
        # First offense: benched for one refresh, so the end-of-sample
        # rescan already brought it back.
        assert sampler.proclist.health_report() == {proc.pid: "reattached"}
        assert not sampler.proclist.quarantined
        coarse_machine.run_for(2.0)
        # Second offense right after reattach: the episode count survived,
        # so the backoff escalates and the bench is now observable.
        faults.add(
            FaultSpec(
                "read",
                "esrch",
                at_calls=frozenset({faults.call_count("read") + 1}),
            )
        )
        snap = sampler.sample()
        assert len(snap.frame) == 0
        assert sampler.proclist.health_report() == {proc.pid: "quarantined"}
        assert backend.open_handle_count() == 0
        entry = sampler.proclist.quarantined[proc.pid]
        assert entry.failures == 2
        assert entry.reason == "NoSuchTaskError"
        # Serve out the bench, reattach, and recover.
        coarse_machine.run_for(2.0)
        snap = sampler.sample()
        coarse_machine.run_for(2.0)
        snap = sampler.sample()
        assert len(snap.frame) == 1
        assert snap.frame.labels["HEALTH"] == ("reattached",)
        coarse_machine.run_for(2.0)
        snap = sampler.sample()
        assert snap.frame.labels["HEALTH"] == ("ok",)
        # The clean interval wiped the history: backoff starts over.
        assert proc.pid not in sampler.proclist.quarantine_history
        sampler.close()
        assert coarse_machine.counters.open_count() == 0
        assert backend.opened_total == backend.closed_total

    def test_repeat_offender_backoff_escalates(
        self, coarse_machine, endless_workload
    ):
        proc = coarse_machine.spawn("a", endless_workload)
        backend, sampler = make_sampler(coarse_machine, faults=FaultPlan(0))
        sampler.sample()
        sampler.proclist.quarantine(proc.pid, "CounterStateError")
        first = sampler.proclist.quarantined[proc.pid]
        sampler.proclist.quarantine(proc.pid, "CounterStateError")
        second = sampler.proclist.quarantined[proc.pid]
        assert second.failures == 2
        assert (second.eligible_at - sampler.proclist.refresh_count) > (
            first.eligible_at - sampler.proclist.refresh_count - 1
        )
        sampler.close()

    def test_dead_quarantined_task_entry_is_purged(
        self, coarse_machine, endless_workload
    ):
        proc = coarse_machine.spawn("a", endless_workload)
        backend, sampler = make_sampler(coarse_machine, faults=FaultPlan(0))
        sampler.sample()
        sampler.proclist.quarantine(proc.pid, "CounterStateError")
        coarse_machine.kill(proc.pid)
        coarse_machine.run_for(2.0)
        sampler.sample()
        assert proc.pid not in sampler.proclist.quarantined
        sampler.close()


class TestPartialGroupOpen:
    def test_partial_group_open_closes_earlier_handles(
        self, coarse_machine, endless_workload
    ):
        """If event k of n fails to open, the k-1 opened ones are closed."""
        proc = coarse_machine.spawn("a", endless_workload)
        faults = FaultPlan(
            0, [FaultSpec("open", "emfile", at_calls=frozenset({2}))]
        )
        backend = SimBackend(coarse_machine, faults=faults)
        events = [
            resolve_event(n)
            for n in ("cycles", "instructions", "cache-misses")
        ]
        with pytest.raises(FdLimitError):
            CounterGroup(backend, events, proc.pid)
        assert coarse_machine.counters.open_count() == 0
        assert backend.open_handle_count() == 0
        assert backend.opened_total == backend.closed_total == 1

    def test_partial_open_unwind_survives_interrupted_close(
        self, coarse_machine, endless_workload
    ):
        """EINTR during the cleanup closes must not strand handles."""
        proc = coarse_machine.spawn("a", endless_workload)
        faults = FaultPlan(
            0,
            [
                FaultSpec("open", "emfile", at_calls=frozenset({3})),
                FaultSpec("close", "eintr", 1.0),
            ],
        )
        backend = SimBackend(coarse_machine, faults=faults)
        events = [
            resolve_event(n)
            for n in ("cycles", "instructions", "cache-misses")
        ]
        with pytest.raises(FdLimitError):
            CounterGroup(backend, events, proc.pid)
        assert coarse_machine.counters.open_count() == 0
        assert backend.open_handle_count() == 0

    def test_partial_kernel_counter_open_is_unwound(
        self, coarse_machine, endless_workload, monkeypatch
    ):
        """Inherit-mode opens fan out per thread; a mid-fan failure must
        close the kernel counters already created for earlier threads."""
        from repro.errors import CounterStateError

        proc = coarse_machine.spawn("a", endless_workload, nthreads=3)
        backend = SimBackend(coarse_machine)
        table = coarse_machine.counters
        real_open = table.open
        calls = {"n": 0}

        def flaky_open(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 3:
                raise CounterStateError("injected kernel-side failure")
            return real_open(*args, **kwargs)

        monkeypatch.setattr(table, "open", flaky_open)
        with pytest.raises(CounterStateError):
            backend.open(
                resolve_event("cycles"), proc.pid, inherit=True
            )
        assert table.open_count() == 0
        assert backend.open_handle_count() == 0


class TestPermanentDenial:
    def test_denied_tasks_not_retried(self, coarse_machine, endless_workload):
        coarse_machine.spawn("mine", endless_workload, uid=1001)
        coarse_machine.spawn("theirs", endless_workload, uid=1002)
        backend, sampler = make_sampler(coarse_machine, monitor_uid=1001)
        sampler.sample()
        denied_after_first = set(sampler.proclist.denied)
        coarse_machine.run_for(2.0)
        sampler.sample()
        # The denial is cached; no repeated attach storm.
        assert sampler.proclist.denied == denied_after_first
        assert len(denied_after_first) == 1
        sampler.close()

    def test_denials_end_with_their_tasks(self):
        """A denied tid is forgotten once it is no longer listed, so the
        set stays as small as the other users' live tasks (on a real
        kernel a recycled tid may belong to the monitoring user)."""
        machine = datacenter.make_node(tick=0.5)
        short = datacenter.compute_job("short", 1.0, duration_hint=1.5)
        _backend, sampler = make_sampler(machine, monitor_uid=500)
        sampler.sample()
        for _ in range(20):
            machine.spawn("theirs", short, uid=1002)
            machine.run_for(1.0)
            sampler.sample()
        listed = set(SimProcReader(machine).list_processes().pid.tolist())
        assert 0 < len(sampler.proclist.denied) <= 2
        assert sampler.proclist.denied <= listed
        sampler.close()
