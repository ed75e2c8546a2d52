"""Scheduler: fairness, core spreading, affinity, stickiness.

``TestDispatch`` drives placement through the scalar reference dispatch
(:func:`repro.verify.reference.dispatch`), which shares the scheduler's
placement walk with the kernel's columnar dispatch.
``test_place_matches_the_old_walk`` checks that walk against the one it
replaced, which rebuilt its PU lists from the topology on every call.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import NEHALEM, SimMachine
from repro.sim.arch import CORE2
from repro.sim.cpu_topology import Topology
from repro.sim.process import SimProcess, SimThread, TaskState
from repro.sim.scheduler import NICE_WEIGHT_STEP, Scheduler
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


def _old_place(sched, order, dt):
    """The placement walk before the scheduler kept its PU tables: an
    eligible list and a ``topology.pu()`` lookup per candidate on every
    call (``_eligible_pus`` plus ``_pick_pu``), kept as the oracle."""
    topology = sched.topology

    def eligible_pus(thread):
        affinity = thread.process.affinity
        if affinity is None:
            return [p.pu_id for p in topology.pus]
        return [p.pu_id for p in topology.pus if p.pu_id in affinity]

    def pick_pu(thread, eligible, core_busy):
        def core_of(pu):
            return topology.pu(pu).core_id

        idle_core = [pu for pu in eligible if core_busy.get(core_of(pu), 0) == 0]
        pool = idle_core or eligible
        if thread.last_pu in pool:
            return thread.last_pu
        return min(pool)

    free_pus = {p.pu_id for p in topology.pus}
    core_busy = {}
    assignment = {}
    for thread in order:
        if not free_pus:
            break
        eligible = [pu for pu in eligible_pus(thread) if pu in free_pus]
        if not eligible:
            continue
        chosen = pick_pu(thread, eligible, core_busy)
        free_pus.discard(chosen)
        core = topology.pu(chosen).core_id
        core_busy[core] = core_busy.get(core, 0) + 1
        assignment[chosen] = thread

    previous = sched._last_assignment
    for pu, thread in assignment.items():
        if previous.get(pu) is not thread:
            thread.context_switches += 1
        thread.vruntime += dt * NICE_WEIGHT_STEP ** thread.process.nice
        thread.last_pu = pu
        sched.placed.add(thread.process)
    sched._last_assignment = dict(assignment)
    return assignment


@st.composite
def _placement_cases(draw):
    arch = draw(st.sampled_from([NEHALEM, CORE2]))
    topology = Topology(arch, draw(st.integers(1, 2)), draw(st.integers(1, 4)))
    pus = [p.pu_id for p in topology.pus]
    procs = draw(st.lists(
        st.tuples(
            st.none() | st.frozensets(st.sampled_from(pus), min_size=1),
            st.integers(-2, 3),
        ),
        min_size=1, max_size=8,
    ))
    threads = draw(st.lists(
        st.tuples(
            st.integers(0, len(procs) - 1),
            st.sampled_from([-1, *pus]),
        ),
        max_size=20,
    ))
    calls = draw(st.lists(
        st.permutations(range(len(threads))).flatmap(
            lambda order: st.integers(0, len(order)).map(lambda k: order[:k])
        ),
        min_size=1, max_size=5,
    ))
    return topology, procs, threads, calls


def _placement_state(sched, threads, assignment):
    return (
        [(pu, t.tid) for pu, t in assignment.items()],
        [(t.vruntime, t.last_pu, t.context_switches) for t in threads],
        sorted(p.pid for p in sched.placed),
        [(pu, t.tid) for pu, t in sched._last_assignment.items()],
    )


@given(_placement_cases())
@settings(max_examples=150, deadline=None)
def test_place_matches_the_old_walk(case):
    """``_place`` picks the PUs, in the order, of the walk it replaced,
    with the same side effects, call after call."""
    topology, procs, threads, calls = case

    def build():
        made = []
        for i, (affinity, nice) in enumerate(procs):
            proc = SimProcess.__new__(SimProcess)
            proc.pid = 100 + i
            proc.affinity = affinity
            proc.nice = nice
            made.append(proc)
        out = []
        for i, (owner, last_pu) in enumerate(threads):
            thread = SimThread(tid=500 + i, process=made[owner])
            thread.last_pu = last_pu
            out.append(thread)
        return Scheduler(topology), out

    new_sched, new_threads = build()
    old_sched, old_threads = build()
    for k, call in enumerate(calls):
        dt = 0.1 * (k + 1)
        got = new_sched._place((new_threads[i] for i in call), dt)
        want = _old_place(old_sched, (old_threads[i] for i in call), dt)
        assert _placement_state(new_sched, new_threads, got) == (
            _placement_state(old_sched, old_threads, want)
        ), f"call {k} diverged"
