"""procfs providers: the real /proc (against ourselves) and the sim view."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProcfsError
from repro.procfs.model import cpu_percent
from repro.procfs.reader import ProcReader
from repro.procfs.simproc import SimProcReader
from repro.sim import NEHALEM, SimMachine
from repro.sim.workload import Workload
from tests.strategies import NoScan
from tests.test_chaos_property import ENDLESS


class TestRealProc:
    """The container has a real /proc; exercise it on our own process."""

    def test_uptime_positive(self):
        assert ProcReader().uptime() > 0

    def test_self_process(self):
        info = ProcReader().process(os.getpid())
        assert info.pid == os.getpid()
        assert info.uid == os.getuid()
        assert "python" in info.comm or info.comm  # interpreter name
        assert info.cpu_seconds >= 0
        assert os.getpid() in info.tids

    def test_missing_pid_raises(self):
        with pytest.raises(ProcfsError):
            ProcReader().process(2**22 - 1)

    def test_list_includes_self(self):
        pids = set(ProcReader().list_processes().pid.tolist())
        assert os.getpid() in pids

    def test_listing_is_pid_ordered_rows_of_process(self, tmp_path):
        """A fake tree listed out of order: the table's rows come back by
        pid, each equal to ``process(pid)``; entries that are not pids or
        whose stat is unreadable are skipped."""
        for pid, uid, name in ((300, 0, "c"), (12, 1000, "a b"), (77, 7, "b")):
            (tmp_path / str(pid) / "task" / str(pid)).mkdir(parents=True)
            # stat(5) fields 4..40; utime 14, stime 15, starttime 22, processor 39.
            fields = ["0"] * 37
            fields[10], fields[11] = str(pid), "3"
            fields[18], fields[35] = str(10 * pid), "1"
            (tmp_path / str(pid) / "stat").write_text(
                f"{pid} ({name}) S " + " ".join(fields) + "\n"
            )
            (tmp_path / str(pid) / "status").write_text(
                f"Name: {name}\nUid:\t{uid}\t{uid}\t{uid}\t{uid}\n"
            )
        (tmp_path / "9").mkdir()  # exited before its stat was read
        (tmp_path / "self").mkdir()
        reader = ProcReader(root=str(tmp_path), clock_ticks=100)
        table = reader.list_processes()
        assert table.pid.tolist() == [12, 77, 300]
        assert table.rows() == [reader.process(pid) for pid in (12, 77, 300)]
        assert table.comm == ("a b", "b", "c")
        assert table.cpu_seconds.tolist() == [0.15, 0.8, 3.03]

    def test_comm_with_spaces_parsed(self, tmp_path):
        """stat's comm field may contain spaces and parens."""
        pid_dir = tmp_path / "123"
        (pid_dir / "task").mkdir(parents=True)
        (pid_dir / "task" / "123").mkdir()
        stat = (
            "123 (my (we)ird name) S 1 123 123 0 -1 4194304 "
            + " ".join(["0"] * 32)
            + "\n"
        )
        (pid_dir / "stat").write_text(stat)
        (pid_dir / "status").write_text("Name: x\nUid:\t0\t0\t0\t0\n")
        (tmp_path / "uptime").write_text("100.0 50.0\n")
        reader = ProcReader(root=str(tmp_path), clock_ticks=100)
        info = reader.process(123)
        assert info.comm == "my (we)ird name"

    def test_malformed_stat_raises(self, tmp_path):
        pid_dir = tmp_path / "77"
        pid_dir.mkdir()
        (pid_dir / "stat").write_text("garbage without parens")
        with pytest.raises(ProcfsError):
            ProcReader(root=str(tmp_path)).process(77)


class TestSimProc:
    def test_lists_live_processes(self, nehalem_machine, endless_workload):
        nehalem_machine.spawn("svc", endless_workload, user="bob", uid=1002)
        reader = SimProcReader(nehalem_machine)
        procs = reader.list_processes()
        assert len(procs) == 1
        info = procs.rows()[0]
        assert info.user == "bob"
        assert info.uid == 1002
        assert info.comm == "svc"

    def test_uptime_is_virtual(self, nehalem_machine):
        reader = SimProcReader(nehalem_machine)
        nehalem_machine.run_for(3.0)
        assert reader.uptime() == pytest.approx(3.0)

    def test_dead_process_disappears(self, nehalem_machine, endless_workload):
        p = nehalem_machine.spawn("x", endless_workload)
        reader = SimProcReader(nehalem_machine)
        nehalem_machine.kill(p.pid)
        with pytest.raises(ProcfsError):
            reader.process(p.pid)
        assert reader.list_processes().rows() == []

    def test_comm_truncated_to_15(self, nehalem_machine, endless_workload):
        nehalem_machine.spawn("a-very-long-command-name", endless_workload)
        info = SimProcReader(nehalem_machine).list_processes().rows()[0]
        assert len(info.comm) == 15

    def test_cpu_seconds_accrue(self, nehalem_machine, endless_workload):
        p = nehalem_machine.spawn("x", endless_workload)
        reader = SimProcReader(nehalem_machine)
        nehalem_machine.run_for(2.0)
        assert reader.process(p.pid).cpu_seconds == pytest.approx(2.0, rel=0.05)


    def test_listing_rows_equal_process(self, nehalem_machine, endless_workload):
        """Each column of the listing follows the rule ``process`` applies
        to one row, multi-threaded and exited processes included."""
        a = nehalem_machine.spawn("a-very-long-command-name", endless_workload)
        nehalem_machine.spawn("mt", endless_workload, nthreads=3, user="u")
        gone = nehalem_machine.spawn("gone", endless_workload)
        nehalem_machine.run_for(1.5)
        nehalem_machine.kill(gone.pid)
        nehalem_machine.spawn("late", endless_workload, duty_cycle=0.5)
        nehalem_machine.run_for(0.5)
        reader = SimProcReader(nehalem_machine)
        table = reader.list_processes()
        assert gone.pid not in table.pid.tolist()
        assert table.pid[0] == a.pid
        assert table.rows() == [reader.process(pid) for pid in table.pid.tolist()]


def _finite(budget):
    """A job that retires ``budget`` instructions and exits."""
    return Workload("finite", (ENDLESS.phases[0].with_budget(budget),))


class TestLiveIndex:
    """``live_processes`` keeps a pid-ordered index instead of walking
    every process the machine ever spawned."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["spawn", "spawn_at", "kill_at", "run"]),
                st.integers(min_value=0, max_value=30),
                st.integers(min_value=1, max_value=3),
            ),
            max_size=25,
        )
    )
    def test_index_matches_a_full_walk(self, script):
        """Under random spawns (now and timed), timed kills and natural
        exits the index equals the old sorted walk over live processes,
        and the listing reads only live processes."""
        machine = SimMachine(NEHALEM, sockets=1, cores_per_socket=2, tick=0.1, seed=5)
        for op, k, nthreads in script:
            work = _finite((k % 4) * 2e8) if k % 4 else ENDLESS
            pids = sorted(machine.processes)
            if op == "spawn":
                machine.spawn(f"p{k}", work, nthreads=nthreads)
            elif op == "spawn_at":
                machine.spawn_at(machine.now + 0.1 * k, f"t{k}", work, nthreads=nthreads)
            elif op == "kill_at" and pids:
                machine.kill_at(machine.now + 0.1 * nthreads, pids[k % len(pids)])
            else:
                machine.run_for(0.1 * k)
            walked = sorted(
                (p for p in machine.processes.values() if p.alive),
                key=lambda p: p.pid,
            )
            assert machine.live_processes() == walked
            everything = machine.processes
            machine.processes = NoScan(everything)
            try:
                table = SimProcReader(machine).list_processes()
            finally:
                machine.processes = everything
            assert table.pid.tolist() == [p.pid for p in walked]


def _scalar_cpu_percent(cpu_seconds, base_cpu, base_time, start_time, now):
    """The per-task rule, as the sampler computed it one task at a time."""
    if not math.isnan(base_time):
        interval = now - base_time
        if interval <= 0:
            return 0.0
        used = cpu_seconds - base_cpu
        return max(0.0, 100.0 * used / interval)
    age = max(now - start_time, 1e-9)
    return max(0.0, 100.0 * cpu_seconds / age)


def _pct(cpu_seconds, base_cpu=0.0, base_time=math.nan, start=0.0, now=10.0):
    return cpu_percent(
        np.array([cpu_seconds]), np.array([base_cpu]), np.array([base_time]),
        np.array([start]), now,
    )[0]


_times = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False) | st.sampled_from(
    [0.0, -0.0, 1e-9, 5e-10, 1e-300]
)


class TestCpuPercent:
    def test_interval_based(self):
        assert _pct(2.0, base_cpu=1.0, base_time=8.0) == pytest.approx(50.0)

    def test_first_sample_uses_lifetime(self):
        assert _pct(5.0, start=10.0, now=20.0) == pytest.approx(50.0)

    def test_first_sample_at_birth(self):
        """A never-sampled task born this instant has no interval and no
        age: the 1e-9 s floor keeps it finite, and no CPU used reads 0.0."""
        assert _pct(0.0, start=20.0, now=20.0) == 0.0
        assert _pct(1e-12, start=20.0, now=20.0) == pytest.approx(1e-1)

    def test_negative_clamped(self):
        assert _pct(2.0, base_cpu=3.0, base_time=9.0) == 0.0

    def test_zero_interval(self):
        assert _pct(2.0, base_cpu=1.0, base_time=10.0) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                _times,
                _times,
                _times | st.just(math.nan),
                _times,
            ),
            max_size=12,
        ),
        _times,
    )
    def test_vector_is_bitwise_the_scalar_rule(self, rows, now):
        """Never-sampled rows (NaN base time), zero and negative windows,
        negative CPU used and rows whose task exited long ago (an old
        start or base time): every element has the scalar rule's bits."""
        cols = [np.array(c, dtype=np.float64) for c in zip(*rows)] or [
            np.empty(0)
        ] * 4
        got = cpu_percent(*cols, now)
        want = np.array(
            [_scalar_cpu_percent(*row, now) for row in rows], dtype=np.float64
        )
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
