"""Sampler + process list over the simulated host."""

from collections import Counter
from dataclasses import replace

import pytest

from repro.core.columns import PROCESSOR_COLUMN, TIME_COLUMN
from repro.core.options import Options
from repro.core.sampler import Sampler
from repro.core.screen import get_screen
from repro.perf.simbackend import SimBackend
from repro.procfs.simproc import SimProcReader
from repro.sim.arch import NEHALEM
from repro.sim.machine import SimMachine
from repro.sim.workloads import synthetic


def _sampler(machine, options=None, screen="default"):
    return Sampler(
        SimBackend(machine),
        SimProcReader(machine),
        get_screen(screen),
        options,
    )


class GroupCountingBackend(SimBackend):
    """A sim backend that remembers how many groups its last batch read."""

    def read_groups(self, groups):
        self.groups_read = len(groups)
        return super().read_groups(groups)


class TestSampling:
    def test_first_sample_attaches_baselines(self, coarse_machine, endless_workload):
        coarse_machine.spawn("j", endless_workload)
        s = _sampler(coarse_machine)
        snap = s.sample()
        assert len(snap.frame) == 1
        assert snap.interval == 0.0

    def test_second_sample_has_deltas(self, coarse_machine, endless_workload):
        coarse_machine.spawn("j", endless_workload)
        s = _sampler(coarse_machine)
        s.sample()
        coarse_machine.run_for(5.0)
        frame = s.sample().frame
        assert frame.interval == pytest.approx(5.0)
        assert frame.deltas["cycles"][0] > 0
        assert 0.5 < frame.metrics["IPC"][0] < 3.0

    def test_cpu_percent_full_load(self, coarse_machine, endless_workload):
        coarse_machine.spawn("j", endless_workload)
        s = _sampler(coarse_machine)
        s.sample()
        coarse_machine.run_for(5.0)
        frame = s.sample().frame
        assert frame.cpu_pct[0] == pytest.approx(100.0, abs=1.0)

    def test_new_process_discovered(self, coarse_machine, endless_workload):
        s = _sampler(coarse_machine)
        s.sample()
        coarse_machine.spawn("late", endless_workload)
        coarse_machine.run_for(2.0)
        # The refresh at the end of this sample attaches the newcomer...
        assert len(s.sample().frame) == 0
        coarse_machine.run_for(2.0)
        # ...which contributes from the following interval on (§2.2: only
        # events after monitoring starts are observed).
        frame = s.sample().frame
        assert frame.comms == ("late",)
        assert frame.deltas["instructions"][0] > 0

    def test_dead_process_final_row_then_dropped(self, coarse_machine, basic_workload):
        coarse_machine.spawn("brief", basic_workload)
        s = _sampler(coarse_machine)
        s.sample()
        coarse_machine.run_for(30.0)  # workload is ~10 s
        final = s.sample().frame
        # The exit interval still reports the final deltas (like reading
        # the counter fd of an exited task on Linux), under the last known
        # identity and with no CPU share...
        assert len(final) == 1
        assert final.deltas["instructions"][0] == pytest.approx(
            basic_workload.total_instructions, rel=1e-6
        )
        assert final.comms == ("brief",)
        assert final.cpu_pct.tolist() == [0.0]
        # ...then the task is gone and its counters are released.
        assert coarse_machine.counters.open_count() == 0
        coarse_machine.run_for(5.0)
        assert len(s.sample().frame) == 0

    @pytest.mark.parametrize("per_thread", [False, True])
    def test_attached_then_exited_before_its_first_sample_has_no_row(
        self, coarse_machine, basic_workload, endless_workload, per_thread
    ):
        """A task attached at the end of one pass that exits before the
        next was never sampled: it has no identity to report, so it gets
        no row (its counters are not read) and is detached."""
        coarse_machine.spawn("steady", endless_workload)
        backend = GroupCountingBackend(coarse_machine)
        s = Sampler(
            backend,
            SimProcReader(coarse_machine),
            get_screen("default"),
            Options(per_thread=per_thread),
        )
        s.sample()
        brief = coarse_machine.spawn("brief", basic_workload, nthreads=2)
        coarse_machine.run_for(1.0)
        s.sample()  # lists brief and attaches it at the end
        tids = {t.tid for t in brief.threads} if per_thread else {brief.pid}
        assert tids <= set(s.proclist.tracked)
        coarse_machine.run_for(30.0)  # brief's ~10 s of work end
        assert not brief.alive
        frame = s.sample().frame
        assert frame.comms == ("steady",)
        assert backend.groups_read == 1
        assert not tids & set(s.proclist.tracked)
        s.close()

    def test_uid_filter(self, coarse_machine, endless_workload):
        coarse_machine.spawn("mine", endless_workload, uid=1000)
        coarse_machine.spawn("theirs", endless_workload, uid=1001)
        s = _sampler(coarse_machine, Options(watch_uid=1000))
        assert s.sample().frame.comms == ("mine",)

    def test_permission_denied_skipped_silently(self, coarse_machine, endless_workload):
        """An unprivileged monitor sees only its own processes attach."""
        coarse_machine.spawn("mine", endless_workload, uid=1001)
        coarse_machine.spawn("root-owned", endless_workload, uid=0)
        s = Sampler(
            SimBackend(coarse_machine, monitor_uid=1001),
            SimProcReader(coarse_machine),
            get_screen("default"),
        )
        assert s.sample().frame.comms == ("mine",)
        assert len(s.proclist.denied) == 1

    def test_sort_by_cpu_default(self, coarse_machine, endless_workload):
        coarse_machine.spawn("busy", endless_workload)
        coarse_machine.spawn("lazy", endless_workload, duty_cycle=0.3)
        s = _sampler(coarse_machine)
        s.sample()
        coarse_machine.run_for(10.0)
        assert s.sample().frame.comms[0] == "busy"

    def test_sort_by_metric(self, coarse_machine, endless_workload):
        coarse_machine.spawn("a", endless_workload)
        coarse_machine.spawn("b", endless_workload)
        s = _sampler(coarse_machine, Options(sort_by="IPC"))
        s.sample()
        coarse_machine.run_for(5.0)
        ipcs = s.sample().frame.metrics["IPC"].tolist()
        assert ipcs == sorted(ipcs, reverse=True)

    def test_sort_keys_follow_their_columns(self):
        machine = SimMachine(
            NEHALEM, sockets=1, cores_per_socket=2, tick=0.25, seed=3
        )
        for spec in synthetic.generate_specs(6, seed=3):
            machine.spawn(spec.name, synthetic.build(spec, NEHALEM, seed=11))
        screen = get_screen("default").with_columns(TIME_COLUMN, PROCESSOR_COLUMN)
        s = Sampler(SimBackend(machine), SimProcReader(machine), screen)
        s.sample()
        machine.run_for(4.0)
        frame = s.sample().frame
        columns = {
            "PID": frame.pids.tolist(),
            "P": frame.processors.tolist(),
            "TIME+": frame.cpu_time.tolist(),
            "IPC": frame.metrics["IPC"].tolist(),
        }
        assert all(len(set(values)) > 1 for values in columns.values())
        for key, values in columns.items():
            s.options = replace(s.options, sort_by=key)
            order = s._sort_order(frame)
            assert [values[i] for i in order] == sorted(values, reverse=True)
        # A string column keys every row as 0.0: the stable sort keeps
        # the frame's order.
        s.options = replace(s.options, sort_by="USER")
        assert s._sort_order(frame) == list(range(len(frame)))

    def test_per_thread_mode(self, coarse_machine, endless_workload):
        coarse_machine.spawn("mt", endless_workload, nthreads=3)
        s = _sampler(coarse_machine, Options(per_thread=True))
        frame = s.sample().frame
        assert len(frame) == 3
        assert len(set(frame.tids.tolist())) == 3

    def test_per_process_folds_threads(self, coarse_machine, endless_workload):
        coarse_machine.spawn("mt", endless_workload, nthreads=3)
        per_proc = _sampler(coarse_machine)
        per_proc.sample()
        coarse_machine.run_for(3.0)
        instructions = per_proc.sample().frame.deltas["instructions"][0]
        # Three threads on distinct cores: ~3x one thread's instructions.
        one_thread = instructions / 3
        assert instructions > 2.5 * one_thread

    def test_max_tasks_cap(self, coarse_machine, endless_workload):
        for i in range(6):
            coarse_machine.spawn(f"j{i}", endless_workload)
        s = _sampler(coarse_machine, Options(max_tasks=4))
        assert len(s.sample().frame) == 4

    def test_row_metric_helper(self, coarse_machine, endless_workload):
        coarse_machine.spawn("j", endless_workload)
        s = _sampler(coarse_machine)
        s.sample()
        coarse_machine.run_for(2.0)
        frame = s.sample().frame
        assert frame.numeric_column("IPC") is frame.metrics["IPC"]
        assert frame.numeric_column("%CPU") is frame.cpu_pct
        assert frame.numeric_column("COMMAND") is None
        assert frame.numeric_column("NOPE") is None

    def test_close_releases_counters(self, coarse_machine, endless_workload):
        coarse_machine.spawn("j", endless_workload)
        s = _sampler(coarse_machine)
        s.sample()
        s.close()
        assert coarse_machine.counters.open_count() == 0


class CountingTasks:
    """A /proc provider that counts the calls made on it."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = Counter()

    def uptime(self):
        return self.inner.uptime()

    def list_processes(self):
        self.calls["list_processes"] += 1
        return self.inner.list_processes()

    def process(self, pid):
        self.calls["process"] += 1
        return self.inner.process(pid)


class TestOnePass:
    def test_one_listing_and_no_lookups_per_pass(
        self, coarse_machine, basic_workload, endless_workload
    ):
        """Every pass lists /proc once and fetches no task on its own,
        first pass, steady state and an exit interval alike."""
        coarse_machine.spawn("brief", basic_workload)  # exits after ~10 s
        coarse_machine.spawn("mt", endless_workload, nthreads=2)
        tasks = CountingTasks(SimProcReader(coarse_machine))
        s = Sampler(SimBackend(coarse_machine), tasks, get_screen("default"))
        s.sample_frame()
        assert tasks.calls == {"list_processes": 1}
        coarse_machine.spawn("late", endless_workload)
        for seconds in (5.0, 10.0, 5.0):
            coarse_machine.run_for(seconds)
            tasks.calls.clear()
            s.sample_frame()
            assert tasks.calls == {"list_processes": 1}
        s.close()
