"""SGE-style preemption across the fleet of grid nodes.

Preemption is part of the dispatch state machine, so it must decide
identically on every engine: a preempting queue's stronger job evicts a
strictly weaker running job, the victim requeues, and dedicated nodes
are never targets.
"""

from repro.sim.grid import Grid, NodeSpec, QueueSpec
from repro.sim.workloads import datacenter

GiB = 1024**3


def _job(seconds=60.0, ipc=1.2, name="job"):
    return datacenter.compute_job(name, ipc, duration_hint=seconds)


def _endless(name="svc"):
    return datacenter.compute_job(name, 1.2)


def _fleet(n):
    return [
        NodeSpec(name=f"a{i}", sockets=1, cores_per_socket=1,
                 memory_bytes=4 * GiB)
        for i in range(n)
    ]


class TestPreemption:
    """SGE-style eviction: a preempting queue's stronger job may evict a
    strictly weaker running job; the victim requeues and restarts."""

    def _queues(self):
        return [
            QueueSpec("fast", max_wallclock=float("inf"),
                      memory_limit=4 * GiB, priority=2, preempting=True),
            QueueSpec("batch", max_wallclock=float("inf"),
                      memory_limit=4 * GiB, priority=1),
        ]

    def _script(self, grid):
        # A 1-core node still has 2 PUs (SMT): fill both slots so the
        # high-priority arrival finds no free slot and must evict.
        for name in ("lo0", "lo1", "lo2", "lo3"):
            grid.submit(name, _endless(name), queue="batch",
                        memory_bytes=GiB)
        grid.run_for(2.0)
        grid.submit("hi", _job(4.0, name="hi"), queue="fast",
                    memory_bytes=GiB, priority=2)
        grid.run_for(6.0)
        grid.run_for(4.0)

    def _run(self, engine, workers=1, **kw):
        grid = Grid(_fleet(2), self._queues(), tick=1.0, seed=9,
                    workers=workers, engine=engine, **kw)
        try:
            self._script(grid)
            jobs = {j.name: j for j in grid.jobs()}
            return grid.conformance_digest(), jobs, dict(grid.stats)
        finally:
            grid.close()

    def test_high_priority_evicts_and_victim_restarts(self):
        digest, jobs, stats = self._run("serial")
        assert stats["preemptions"] >= 1
        assert jobs["hi"].state in ("running", "done")
        assert jobs["hi"].started_at is not None
        victims = [j for j in jobs.values() if j.preemptions > 0]
        assert victims
        for victim in victims:
            # Eviction is not a kill: the job requeued and either
            # restarted (fresh started_at, new node allowed) or is
            # pending again — never marked killed by the stale timer.
            assert not victim.killed
            assert victim.state in ("running", "pending")

    def test_preemption_decides_identically_on_every_engine(self):
        reference, _, ref_stats = self._run("serial")
        for engine, workers, kw in [
            ("legacy", 1, {}),
            ("supervised", 2, {}),
        ]:
            digest, _, stats = self._run(engine, workers, **kw)
            assert digest == reference, f"{engine} {kw} diverged"
            assert stats["preemptions"] == ref_stats["preemptions"]

    def test_non_preempting_queue_waits_instead(self):
        queues = [
            QueueSpec("fast", max_wallclock=float("inf"),
                      memory_limit=4 * GiB, priority=2),
            QueueSpec("batch", max_wallclock=float("inf"),
                      memory_limit=4 * GiB, priority=1),
        ]
        grid = Grid(_fleet(2), queues, tick=1.0, seed=9)
        try:
            for name in ("lo0", "lo1", "lo2", "lo3"):
                grid.submit(name, _endless(name), queue="batch",
                            memory_bytes=GiB)
            grid.run_for(2.0)
            grid.submit("hi", _job(4.0, name="hi"), queue="fast",
                        memory_bytes=GiB, priority=2)
            grid.run_for(4.0)
            jobs = {j.name: j for j in grid.jobs()}
            assert jobs["hi"].state == "pending"
            assert grid.stats["preemptions"] == 0
        finally:
            grid.close()

    def test_equal_priority_never_preempts(self):
        grid = Grid(_fleet(2), self._queues(), tick=1.0, seed=9)
        try:
            for name in ("lo0", "lo1", "lo2", "lo3"):
                grid.submit(name, _endless(name), queue="fast",
                            memory_bytes=GiB)
            grid.run_for(2.0)
            # Same queue, same job priority: strictly-weaker rule says no.
            grid.submit("peer", _endless("peer"), queue="fast",
                        memory_bytes=GiB)
            grid.run_for(4.0)
            assert grid.stats["preemptions"] == 0
            assert {j.name: j.state for j in grid.jobs()}["peer"] == "pending"
        finally:
            grid.close()

    def test_job_priority_orders_dispatch_within_a_queue(self):
        grid = Grid(_fleet(1), self._queues(), tick=1.0, seed=9)
        try:
            # One endless job pins a slot; one finite job frees the other
            # slot mid-run, so exactly one slot opens at a time and the
            # dispatch order between the two waiters is observable.
            grid.submit("lo0", _endless("lo0"), queue="batch",
                        memory_bytes=GiB)
            grid.submit("lo1", _job(3.0, name="lo1"), queue="batch",
                        memory_bytes=GiB)
            grid.run_for(1.0)
            grid.submit("later-but-urgent", _job(3.0, name="later-but-urgent"),
                        queue="batch", memory_bytes=GiB, priority=5)
            grid.submit("first-but-meek", _job(3.0, name="first-but-meek"),
                        queue="batch", memory_bytes=GiB, priority=0)
            grid.run_for(20.0)
            jobs = {j.name: j for j in grid.jobs()}
            assert (jobs["later-but-urgent"].started_at
                    < jobs["first-but-meek"].started_at)
        finally:
            grid.close()

    def test_dedicated_nodes_are_not_preemption_targets(self):
        specs = _fleet(1) + [
            NodeSpec(name="pin", sockets=1, cores_per_socket=1,
                     dedicated_queue="pin", memory_bytes=4 * GiB),
        ]
        queues = self._queues() + [
            QueueSpec("pin", max_wallclock=float("inf"),
                      memory_limit=4 * GiB, dedicated_only=True),
        ]
        grid = Grid(specs, queues, tick=1.0, seed=9)
        try:
            grid.submit("pinned", _endless("pinned"), queue="pin",
                        memory_bytes=GiB)
            for name in ("lo0", "lo1"):
                grid.submit(name, _endless(name), queue="batch",
                            memory_bytes=GiB)
            grid.run_for(2.0)
            grid.submit("hi", _job(4.0, name="hi"), queue="fast",
                        memory_bytes=GiB, priority=2)
            grid.run_for(4.0)
            jobs = {j.name: j for j in grid.jobs()}
            # The pinned job keeps its dedicated node; only the shared
            # node's batch jobs were candidates.
            assert jobs["pinned"].preemptions == 0
            assert jobs["pinned"].state == "running"
        finally:
            grid.close()
