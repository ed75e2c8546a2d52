"""Chaos properties: any seeded fault plan, any churn — no leaks, and
tasks the plan never touched are bitwise-identical to a fault-free run.

The second property is what makes the fault kernel trustworthy as a test
instrument: injection is keyed per (task, op, call-index), so a fault on
one task cannot shift another task's schedule or readings. We check it by
driving two identical machines — one behind a faulted backend, one behind
a clean backend — through the same spawn/kill churn and comparing every
untouched pid's rows exactly (``repr`` equality, so NaN compares equal).
After every pass, the process list's task table must also hold together
(:func:`check_task_table`).
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sampler import Sampler
from repro.core.screen import get_screen
from repro.perf.faults import FaultPlan, default_specs
from repro.perf.simbackend import SimBackend
from repro.procfs.simproc import SimProcReader
from repro.sim import NEHALEM, SimMachine
from repro.sim.branch import BranchBehavior
from repro.sim.cache import MemoryBehavior
from repro.sim.isa import InstructionMix
from repro.sim.workload import Phase, Workload

ENDLESS = Workload(
    "endless",
    (
        Phase(
            name="steady",
            instructions=math.inf,
            mix=InstructionMix.of(
                int_alu=0.5, load=0.2, store=0.05, branch=0.15, fp_sse=0.1
            ),
            memory=MemoryBehavior(working_set=1 * 1024 * 1024),
            branches=BranchBehavior(mispredict_ratio=0.02),
            exec_cpi=0.5,
            noise=0.0,
        ),
    ),
)

STEPS = 4
BASE_JOBS = 3

churn_strategy = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=STEPS),
        st.sampled_from(["kill0", "kill1", "kill2", "spawn"]),
    ),
    max_size=4,
)


def check_task_table(sampler: Sampler, backend: SimBackend) -> None:
    """One row per tracked task, holding that task's open counters.

    Tracked rows are distinct and carry their key's tid (and pid: this is
    per-process mode); each holds an open group with one handle per screen
    event, and those groups are every handle the backend has open; a row
    no tid maps to holds no group; and the health report reads each
    tracked task's health from its row.
    """
    proclist = sampler.proclist
    tasks = proclist.tasks
    tracked = proclist.tracked
    assert len(set(tracked.values())) == len(tracked)
    for tid, row in tracked.items():
        assert (tasks.tid[row], tasks.pid[row]) == (tid, tid)
        group = tasks.group[row]
        assert len(group.handles) == len(sampler.events)
        assert not any(counter.closed for counter in group.counters)
    assert backend.open_handle_count() == len(tracked) * len(sampler.events)
    for row in set(range(tasks.size)) - set(tracked.values()):
        assert tasks.group[row] is None
    report = proclist.health_report()
    for tid, row in tracked.items():
        assert report[tid] == tasks.health[row]


def run_monitored(plan: FaultPlan | None, churn) -> tuple:
    """Drive one machine through the churn script under ``plan``.

    Both members of a comparison pair call this with identical ``churn``;
    everything about the machine is deterministic from its own seed, so
    the *only* difference between the two runs is the fault plan.
    """
    machine = SimMachine(NEHALEM, sockets=1, cores_per_socket=2, tick=0.5,
                         seed=29)
    base = [machine.spawn(f"job{i}", ENDLESS).pid for i in range(BASE_JOBS)]
    backend = SimBackend(machine, faults=plan)
    sampler = Sampler(backend, SimProcReader(machine), get_screen("default"))
    snapshots = []
    sampler.sample()  # baseline: attach everyone
    check_task_table(sampler, backend)
    for step in range(1, STEPS + 1):
        for when, action in churn:
            if when != step:
                continue
            if action == "spawn":
                machine.spawn(f"churn{step}", ENDLESS)
            else:
                victim = base[int(action[-1])]
                proc = machine.processes.get(victim)
                if proc is not None and proc.alive:
                    machine.kill(victim)
        machine.run_for(1.0)
        snapshots.append(sampler.sample())
        check_task_table(sampler, backend)
    sampler.close()
    return machine, backend, snapshots


def rows_by_pid(snapshot) -> dict[int, tuple]:
    """Every task's cells as exact reprs, keyed by pid."""
    frame = snapshot.frame
    return {
        pid: (
            frame.users[i],
            frame.comms[i],
            repr(frame.cpu_pct[i].item()),
            {k: repr(v[i].item()) for k, v in frame.deltas.items()},
            {k: repr(v[i].item()) for k, v in frame.metrics.items()},
        )
        for i, pid in enumerate(frame.pids.tolist())
    }


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    intensity=st.sampled_from([0.5, 1.0, 3.0]),
    churn=churn_strategy,
)
@settings(max_examples=25, deadline=None)
def test_no_leaks_and_untouched_tasks_identical(seed, intensity, churn):
    plan = FaultPlan(seed, default_specs(intensity))
    machine, backend, chaotic = run_monitored(plan, churn)
    clean_machine, clean_backend, clean = run_monitored(None, churn)

    # Property 1: whatever was injected, every handle opened was closed
    # and nothing is left live anywhere in the stack.
    assert backend.opened_total == backend.closed_total
    assert backend.open_handle_count() == 0
    assert machine.counters.open_count() == 0
    assert clean_backend.opened_total == clean_backend.closed_total
    assert clean_machine.counters.open_count() == 0

    # Property 2: pids the plan never touched saw the exact same frames
    # as in the fault-free run — same rows present, bitwise-equal values.
    touched = plan.stats.touched_tids
    for snap_chaos, snap_clean in zip(chaotic, clean):
        got = rows_by_pid(snap_chaos)
        want = rows_by_pid(snap_clean)
        for pid in set(got) | set(want):
            if pid in touched:
                continue
            assert got.get(pid) == want.get(pid), (
                f"pid {pid} diverged despite never being injected "
                f"(touched={sorted(touched)})"
            )


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    churn=churn_strategy,
)
@settings(max_examples=10, deadline=None)
def test_same_seed_replays_bitwise(seed, churn):
    """Two runs from one seed are indistinguishable — the replay
    guarantee behind ``--chaos SEED``."""
    plan_a = FaultPlan(seed, default_specs(2.0))
    plan_b = plan_a.fork()
    _, backend_a, snaps_a = run_monitored(plan_a, churn)
    _, backend_b, snaps_b = run_monitored(plan_b, churn)
    assert backend_a.opened_total == backend_b.opened_total
    assert plan_a.stats.injected == plan_b.stats.injected
    for sa, sb in zip(snaps_a, snaps_b):
        assert rows_by_pid(sa) == rows_by_pid(sb)
