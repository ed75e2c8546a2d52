"""Scheduler: fairness, core spreading, affinity, stickiness.

``TestDispatch`` drives placement through the scalar reference dispatch
(:func:`repro.verify.reference.dispatch`), which shares the scheduler's
placement walk with the kernel's columnar dispatch.
"""

import math

import pytest

from repro.sim import NEHALEM, SimMachine
from repro.sim.cpu_topology import Topology
from repro.sim.process import SimProcess, SimThread, TaskState
from repro.sim.scheduler import Scheduler
from repro.sim.workload import Workload
from repro.verify.reference import dispatch


def _threads(n, affinity=None, nice=0):
    out = []
    for i in range(n):
        proc = SimProcess.__new__(SimProcess)
        proc.pid = 100 + i
        proc.affinity = frozenset(affinity) if affinity else None
        proc.nice = nice
        thread = SimThread(tid=100 + i, process=proc)
        out.append(thread)
    return out


@pytest.fixture
def sched():
    return Scheduler(Topology(NEHALEM, 1, 4))


class TestDispatch:
    def test_spreads_over_idle_cores_first(self, sched):
        """Four runnable threads land on four distinct physical cores."""
        threads = _threads(4)
        d = dispatch(sched, threads, 0.1)
        cores = {sched.topology.pu(pu).core_id for pu in d}
        assert len(cores) == 4

    def test_fills_smt_after_cores(self, sched):
        threads = _threads(8)
        d = dispatch(sched, threads, 0.1)
        assert len(d) == 8  # all PUs used

    def test_oversubscription_waits(self, sched):
        threads = _threads(10)
        d = dispatch(sched, threads, 0.1)
        assert len(d) == 8
        scheduled = set(d.values())
        assert sum(1 for t in threads if t in scheduled) == 8

    def test_affinity_respected(self, sched):
        threads = _threads(2, affinity={0})
        d = dispatch(sched, threads, 0.1)
        assert set(d) == {0}  # only PU0 eligible; one thread waits

    def test_same_core_pinning(self, sched):
        """The Fig. 11d setup: two tasks pinned to PU0 and PU4."""
        a = _threads(1, affinity={0})[0]
        b = _threads(1, affinity={4})[0]
        b.tid = 200
        d = dispatch(sched, [a, b], 0.1)
        assert d[0] is a
        assert d[4] is b

    def test_fairness_rotates_waiters(self, sched):
        """Over many ticks, 10 threads on 8 PUs each get ~80 % of a PU."""
        threads = _threads(10)
        for _ in range(200):
            dispatch(sched, threads, 0.1)
        runs = sorted(t.vruntime for t in threads)
        assert runs[-1] - runs[0] <= 0.3  # tight spread

    def test_nice_reduces_share(self, sched):
        normal = _threads(8)
        nice = _threads(4, nice=5)
        for t in nice:
            t.tid += 1000
        allts = normal + nice
        got = {t.tid: 0 for t in allts}
        for _ in range(300):
            d = dispatch(sched, allts, 0.1)
            for t in d.values():
                got[t.tid] += 1
        avg_normal = sum(got[t.tid] for t in normal) / len(normal)
        avg_nice = sum(got[t.tid] for t in nice) / len(nice)
        assert avg_nice < avg_normal

    def test_sticky_placement(self, sched):
        threads = _threads(3)
        d1 = dispatch(sched, threads, 0.1)
        placement1 = {t.tid: pu for pu, t in d1.items()}
        d2 = dispatch(sched, threads, 0.1)
        placement2 = {t.tid: pu for pu, t in d2.items()}
        assert placement1 == placement2

    def test_context_switch_counted_once_for_steady_run(self, sched):
        t = _threads(1)[0]
        for _ in range(5):
            dispatch(sched, [t], 0.1)
        assert t.context_switches == 1  # only the initial switch-in

    def test_dead_threads_ignored(self, sched):
        t = _threads(1)[0]
        t.state = TaskState.DEAD
        d = dispatch(sched, [t], 0.1)
        assert not d

    def test_more_deserving_thread_takes_the_pu(self, sched):
        a = _threads(1, affinity={0})[0]
        dispatch(sched, [a], 0.1)
        b = _threads(1, affinity={0})[0]
        b.tid = 999
        b.vruntime = -10.0  # much more deserving
        d = dispatch(sched, [a, b], 0.1)
        assert d[0] is b


class TestMachineScheduling:
    def test_cpu_share_with_oversubscription(self, endless_workload):
        """17 single-thread jobs on 16 PUs: average %CPU ~= 16/17."""
        m = SimMachine(NEHALEM, sockets=2, cores_per_socket=4, tick=0.25, seed=5)
        procs = [m.spawn(f"j{i}", endless_workload) for i in range(17)]
        m.run_for(60.0)
        shares = [p.cpu_time / 60.0 for p in procs]
        assert sum(shares) == pytest.approx(16.0, rel=0.02)
        assert min(shares) > 0.8  # fair: nobody starves

    def test_affinity_limits_cpu(self, endless_workload):
        m = SimMachine(NEHALEM, sockets=1, cores_per_socket=4, tick=0.25, seed=5)
        a = m.spawn("a", endless_workload, affinity={0})
        b = m.spawn("b", endless_workload, affinity={0})
        m.run_for(40.0)
        assert a.cpu_time + b.cpu_time == pytest.approx(40.0, rel=0.02)
        assert a.cpu_time == pytest.approx(20.0, rel=0.2)

    def test_duty_cycle_converges(self):
        from repro.sim.workloads import datacenter

        m = datacenter.make_node(tick=0.5, seed=3)
        wl = datacenter.compute_job("j", 1.5)
        p = m.spawn("j", wl, duty_cycle=0.437)
        m.run_for(400.0)
        assert p.cpu_time / 400.0 == pytest.approx(0.437, abs=0.05)

    def test_bad_duty_cycle_rejected(self, endless_workload):
        from repro.errors import SimulationError

        m = SimMachine(NEHALEM, tick=0.5)
        with pytest.raises(SimulationError):
            m.spawn("x", endless_workload, duty_cycle=0.0)
