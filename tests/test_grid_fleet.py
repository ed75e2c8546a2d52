"""Fleet engine equivalence, host resurrection, and SGE-style preemption.

The two-level supervision tree (fleet supervisor over per-host
supervised engines) must be a pure failure-domain knob: for any fleet,
seed and churn script, ``Grid(hosts=N)`` is bitwise identical to the
serial engine — with chaos on, with hosts dying and being resurrected
from their engines' journals, and with the restart budget exhausted (the
host stays degraded-but-correct). Preemption is part of the dispatch state
machine, so it too must decide identically on every engine.
"""

import random

import pytest

from repro.core.cli import main
from repro.errors import SimulationError
from repro.sim.fleet import FleetEngine, FleetSupervision
from repro.sim.grid import Grid, NodeSpec, QueueSpec
from repro.sim.supervisor import GridFaultPlan, Supervision
from repro.sim.workloads import datacenter

GiB = 1024**3
FAST = Supervision(deadline=0.5, backoff_base=0.0)


def _job(seconds=60.0, ipc=1.2, name="job"):
    return datacenter.compute_job(name, ipc, duration_hint=seconds)


def _endless(name="svc"):
    return datacenter.compute_job(name, 1.2)


def _fleet(n=4):
    return [
        NodeSpec(name=f"a{i}", sockets=1, cores_per_socket=1,
                 memory_bytes=4 * GiB)
        for i in range(n)
    ]


def _queues():
    return [
        QueueSpec("quick", max_wallclock=6.0, memory_limit=2 * GiB,
                  priority=2),
        QueueSpec("slow", max_wallclock=float("inf"), memory_limit=4 * GiB,
                  priority=1),
    ]


def _churn(grid: Grid, seed: int) -> None:
    rng = random.Random(seed)
    for segment in range(2):
        for i in range(rng.randint(3, 5)):
            name = f"s{segment}j{i}"
            if rng.random() < 0.3:
                grid.submit(name, _endless(name), queue="quick",
                            memory_bytes=GiB)
            else:
                grid.submit(
                    name,
                    _job(seconds=rng.choice([2.0, 5.0, 9.0]), name=name),
                    queue=rng.choice(["quick", "slow"]),
                    memory_bytes=GiB,
                )
        grid.run_for(rng.choice([3.0, 4.5]))


def _digest(seed, engine, workers=1, **kw):
    with Grid(_fleet(), _queues(), tick=1.0, seed=seed, workers=workers,
              engine=engine, **kw) as grid:
        _churn(grid, seed)
        return grid.conformance_digest()


class TestFleetEquivalence:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_fleet_matches_serial_bitwise(self, seed):
        reference = _digest(seed, "serial")
        assert _digest(seed, "fleet", workers=4, hosts=2) == reference

    # fork is the default fabric, which the test above already runs.
    @pytest.mark.parametrize("transport", ["inproc"])
    def test_fleet_matches_serial_on_every_fabric(self, transport):
        reference = _digest(7, "serial")
        assert _digest(
            7, "fleet", workers=4, hosts=2, transport=transport
        ) == reference

    def test_odd_host_splits_are_still_exact(self):
        reference = _digest(5, "serial")
        for hosts, workers in [(1, 2), (3, 3), (4, 4)]:
            assert _digest(
                5, "fleet", workers=workers, hosts=hosts
            ) == reference, f"hosts={hosts} diverged"

    def test_hosts_implies_the_fleet_engine(self):
        with Grid(_fleet(), _queues(), workers=4, hosts=2) as grid:
            assert grid.engine.name == "fleet"
            assert grid.engine.hosts == 2
        with Grid(_fleet(), _queues(), workers=2) as grid:
            assert grid.engine.name != "fleet"

    def test_hosts_validation(self):
        with pytest.raises(SimulationError, match="hosts must be >= 1"):
            Grid(_fleet(), _queues(), workers=2, hosts=0)
        with pytest.raises(SimulationError, match="require the fleet engine"):
            Grid(_fleet(), _queues(), workers=2, engine="supervised", hosts=2)

    @pytest.mark.parametrize("workers,hosts", [(3, 2), (1, 2), (6, 4)])
    def test_workers_must_split_evenly_over_hosts(self, workers, hosts):
        # An uneven split used to round each host's share down (or up to
        # one) and silently run a different number of workers.
        with pytest.raises(SimulationError, match="multiple"):
            Grid(_fleet(), _queues(), workers=workers, hosts=hosts)

    def test_node_to_worker_map(self):
        # Node i goes to host h = i % H; that host's k-th node to global
        # worker h*(W/H) + k % (W/H). Chaos schedules key on these ids.
        specs = [
            NodeSpec(name=f"n{i}", sockets=1, cores_per_socket=1,
                     memory_bytes=4 * GiB)
            for i in range(8)
        ]
        engine = FleetEngine(specs, 1.0, 0, 4, hosts=2, transport="inproc")
        try:
            placed = {
                node: host.engine._states[slot].transport.worker_id
                for host in engine._hosts
                for node, slot in host.engine._node_worker.items()
            }
        finally:
            engine.close()
        assert placed == {
            "n0": 0, "n1": 2, "n2": 1, "n3": 3,
            "n4": 0, "n5": 2, "n6": 1, "n7": 3,
        }

    def test_fleet_stats_aggregate_host_counters(self):
        with Grid(_fleet(), _queues(), tick=1.0, seed=2, workers=4,
                  hosts=2) as grid:
            _churn(grid, 2)
            stats = grid.stats
            assert stats["host_restarts"] == 0
            assert stats["restarts"] == 0
            assert stats["bytes_sent"] > 0
            assert grid.engine.live_workers() == 4


class TestHostResurrection:
    def test_worker_chaos_inside_a_host_stays_exact(self):
        reference = _digest(7, "serial")
        chaos = GridFaultPlan.from_seed(1, intensity=2.0)
        with Grid(_fleet(), _queues(), tick=1.0, seed=7, workers=4,
                  hosts=2, grid_chaos=chaos, supervision=FAST) as grid:
            _churn(grid, 7)
            assert grid.conformance_digest() == reference

    def test_degraded_host_is_restarted_from_the_fleet_journal(self):
        # Worker restart budget 0: the first worker fault degrades its
        # host engine, which the fleet tier then tears down and
        # resurrects by replaying the retired engine's per-worker
        # journals — and the digest still matches.
        reference = _digest(7, "serial")
        chaos = GridFaultPlan.from_seed(1, intensity=8.0)
        tight = Supervision(deadline=0.5, backoff_base=0.0,
                            restart_budget=0)
        with Grid(_fleet(), _queues(), tick=1.0, seed=7, workers=4,
                  hosts=2, grid_chaos=chaos, supervision=tight) as grid:
            _churn(grid, 7)
            events = grid.supervisor_events
            kinds = [e["event"] for e in events]
            assert "host-restart" in kinds
            restart = events[kinds.index("host-restart")]
            assert {"host", "epoch", "replayed", "restarts"} <= set(restart)
            assert grid.stats["host_restarts"] >= 1
            assert grid.conformance_digest() == reference

    def test_exhausted_host_budget_degrades_but_stays_correct(self):
        reference = _digest(7, "serial")
        chaos = GridFaultPlan.from_seed(1, intensity=8.0)
        tight = Supervision(deadline=0.5, backoff_base=0.0,
                            restart_budget=0)
        engine_kw = dict(
            hosts=2, transport="inproc", chaos=chaos, config=tight,
            fleet=FleetSupervision(host_restart_budget=0),
        )
        grid = Grid(_fleet(), _queues(), tick=1.0, seed=7, workers=4,
                    hosts=2)
        grid.engine.close()
        grid.engine = FleetEngine(_fleet(), 1.0, 7, 4, **engine_kw)
        try:
            _churn(grid, 7)
            assert grid.engine.degraded
            kinds = [e["event"] for e in grid.supervisor_events]
            assert "fleet-degrade" in kinds
            # Degraded-but-correct: adopted shards answer serially.
            assert grid.conformance_digest() == reference
        finally:
            grid.close()

    def test_fleet_supervision_validation(self):
        with pytest.raises(SimulationError, match="host_restart_budget"):
            FleetSupervision(host_restart_budget=-1)


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
            ("fleet", 4, {"hosts": 2}),
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


class TestFleetCli:
    def test_hosts_flag_runs_the_fleet_engine(self, capsys):
        args = ["--sim", "--grid-workers", "4", "--grid-hosts", "2",
                "-d", "2", "-n", "6"]
        assert main(args) == 0
        fleet_out = capsys.readouterr().out
        assert "engine=fleet workers=4" in fleet_out.splitlines()[0]
        assert main(["--sim", "--grid-workers", "1", "-d", "2", "-n", "6"]) \
            == 0
        serial_out = capsys.readouterr().out
        # Same grid behaviour, different engine banner.
        assert serial_out.splitlines()[1:] == fleet_out.splitlines()[1:]

    def test_uneven_hosts_split_is_an_error(self, capsys):
        assert main(["--sim", "--grid-workers", "3", "--grid-hosts", "2",
                     "-d", "2", "-n", "6"]) == 1
        captured = capsys.readouterr()
        assert "engine=fleet" not in captured.out
        assert "positive multiple of 2 workers" in captured.err

    def test_hosts_requires_the_grid(self, capsys):
        assert main(["--grid-hosts", "2", "-n", "1"]) == 2
        assert "requires --sim and --grid-workers" in capsys.readouterr().err
