"""Engine equivalence and epoch semantics for the parallel grid.

The contract under test: the legacy per-tick loop, the in-process serial
epoch engine and the supervised multi-process engine produce *bitwise
identical* grids — job states, dispatch/finish times, per-node counter
tables — for any fleet, seed and churn script. Determinism is what
makes ``workers=N`` a pure performance knob.
"""

import gc
import math
import random
import weakref

import pytest

from repro.errors import SimulationError
from repro.sim.core import RateCache
from repro.sim.grid import Grid, NodeSpec, QueueSpec
from repro.sim.machine import SimMachine
from repro.sim.parallel import (
    ENGINE_NAMES,
    node_snapshot,
    proc_exit_lb,
    workload_exit_lb,
    workload_floor_cpi,
)
from repro.sim.workloads import datacenter

ENGINES = [("legacy", 1), ("serial", 1), ("supervised", 2)]


def _job(seconds=60.0, ipc=1.2, name="job"):
    return datacenter.compute_job(name, ipc, duration_hint=seconds)


def _endless(name="svc"):
    return datacenter.compute_job(name, 1.2)


def _small_fleet():
    from repro.sim.arch import NEHALEM

    return [
        NodeSpec(name="a0", sockets=1, cores_per_socket=1,
                 memory_bytes=4 * 1024**3),
        NodeSpec(name="a1", arch=NEHALEM, sockets=1, cores_per_socket=2,
                 memory_bytes=4 * 1024**3),
        NodeSpec(name="a2", sockets=1, cores_per_socket=1,
                 memory_bytes=2 * 1024**3),
        NodeSpec(name="pin", sockets=1, cores_per_socket=1,
                 dedicated_queue="pin", memory_bytes=8 * 1024**3),
    ]


def _small_queues():
    return [
        QueueSpec("quick", max_wallclock=9.0, memory_limit=2 * 1024**3,
                  priority=2),
        QueueSpec("slow", max_wallclock=float("inf"),
                  memory_limit=4 * 1024**3, priority=1),
        QueueSpec("pin", max_wallclock=float("inf"),
                  memory_limit=8 * 1024**3, dedicated_only=True),
    ]


def _churn(grid: Grid, seed: int) -> None:
    """A seeded submit/run script that overloads the fleet: queueing,
    wallclock kills, natural exits and fractional-tick tails all occur."""
    rng = random.Random(seed)
    for segment in range(3):
        n = rng.randint(2, 4)
        for i in range(n):
            kind = rng.random()
            name = f"s{segment}j{i}"
            if kind < 0.3:
                grid.submit(name, _endless(name), queue="quick",
                            memory_bytes=1024**3)
            elif kind < 0.8:
                grid.submit(
                    name,
                    _job(seconds=rng.choice([3.0, 6.0, 14.0]),
                         ipc=rng.choice([0.9, 1.2]), name=name),
                    queue=rng.choice(["quick", "slow"]),
                    memory_bytes=rng.choice([1, 2]) * 1024**3,
                )
            else:
                grid.submit(name, _endless(name), queue="pin",
                            memory_bytes=4 * 1024**3)
        # Dyadic durations keep the legacy and epoch float ladders equal.
        grid.run_for(rng.choice([4.0, 6.5, 10.25]))


def _fingerprint(grid: Grid):
    return [
        (j.job_id, j.queue, j.node, j.started_at, j.finished_at,
         j.killed, j.pid, j.state)
        for j in grid.jobs()
    ]


def _observables(grid: Grid):
    return (
        _fingerprint(grid),
        {spec.name: grid.snapshot(spec.name) for spec in grid.specs},
        grid.utilisation(),
        grid.now,
    )


class TestEngineEquivalence:
    @pytest.mark.parametrize("seed", range(24))
    def test_three_engines_bitwise_identical_under_churn(self, seed):
        results = {}
        for engine, workers in ENGINES:
            with Grid(_small_fleet(), _small_queues(), tick=1.0,
                      seed=seed, workers=workers, engine=engine) as grid:
                _churn(grid, seed)
                results[engine] = _observables(grid)
        assert results["legacy"] == results["serial"]
        assert results["serial"] == results["supervised"]

    def test_worker_count_does_not_change_results(self):
        results = []
        for workers in (1, 2, 3, 4):
            with Grid(_small_fleet(), _small_queues(), tick=1.0, seed=11,
                      workers=workers,
                      engine="supervised" if workers > 1 else "serial") as grid:
                _churn(grid, 11)
                results.append(_observables(grid))
        assert all(r == results[0] for r in results[1:])

    def test_fractional_tail_equivalence(self):
        results = {}
        for engine, workers in ENGINES:
            with Grid([NodeSpec(name="n", sockets=1, cores_per_socket=1)],
                      tick=1.0, seed=4, workers=workers,
                      engine=engine) as grid:
                grid.submit("j", _job(seconds=5.0), queue="short-2g-asap")
                grid.run_for(3.25)
                grid.run_for(0.5)
                grid.run_for(7.25)
                results[engine] = _observables(grid)
        assert results["legacy"] == results["serial"] == results["supervised"]


class TestEpochSemantics:
    @pytest.mark.parametrize("engine,workers", ENGINES)
    def test_wallclock_kill_lands_mid_epoch(self, engine, workers):
        """A kill due inside a long run must land on its exact boundary
        even though no dispatch epoch boundary was scheduled there."""
        queues = [QueueSpec("blink", max_wallclock=10.0,
                            memory_limit=2 * 1024**3)]
        with Grid([NodeSpec(name="n")], queues, tick=1.0, seed=2,
                  workers=workers, engine=engine) as grid:
            job = grid.submit("svc", _endless(), queue="blink")
            grid.run_for(30.0)
            assert job.state == "done"
            assert job.killed
            assert job.finished_at == 10.0

    @pytest.mark.parametrize("engine,workers", ENGINES)
    def test_utilisation_after_reap(self, engine, workers):
        with Grid([NodeSpec(name="n", sockets=1, cores_per_socket=1)],
                  tick=1.0, seed=2, workers=workers, engine=engine) as grid:
            grid.submit("j", _job(seconds=4.0, ipc=1.0), queue="short-2g-asap")
            grid.run_for(1.0)
            assert grid.utilisation()["n"] == 0.5
            grid.run_for(30.0)
            assert grid.utilisation()["n"] == 0.0
            assert grid.jobs("running") == []

    @pytest.mark.parametrize("engine,workers", ENGINES)
    def test_full_fleet_queues_until_slot_frees(self, engine, workers):
        with Grid([NodeSpec(name="n", sockets=1, cores_per_socket=1)],
                  tick=1.0, seed=2, workers=workers, engine=engine) as grid:
            a = grid.submit("a", _job(seconds=6.0, ipc=1.0),
                            queue="short-2g-asap")
            b = grid.submit("b", _endless("b"), queue="short-2g-asap")
            c = grid.submit("c", _job(seconds=5.0, ipc=1.0),
                            queue="short-2g-asap")
            grid.run_for(2.0)
            assert (a.state, b.state, c.state) == \
                ("running", "running", "pending")
            grid.run_for(30.0)
            # c dispatches at the exact boundary where a's exit freed the
            # slot: the epoch engine may not discover it late.
            assert a.state == "done"
            assert c.started_at == a.finished_at
            assert c.state in ("running", "done")

    @pytest.mark.parametrize("engine,workers", ENGINES)
    def test_job_state_transitions(self, engine, workers):
        with Grid([NodeSpec(name="n")], tick=1.0, seed=2,
                  workers=workers, engine=engine) as grid:
            job = grid.submit("j", _job(seconds=5.0, ipc=1.0),
                              queue="short-2g-asap")
            assert job.state == "pending"
            assert grid.jobs("pending") == [job]
            grid.run_for(1.0)
            assert job.state == "running"
            assert grid.jobs("running") == [job]
            assert job.pid is not None
            grid.run_for(30.0)
            assert job.state == "done"
            assert grid.jobs("done") == [job]
            assert job.finished_at is not None and not job.killed

    def test_idle_backlog_runs_in_one_epoch(self):
        """With an empty backlog nothing can need dispatch, so the whole
        run collapses into a single engine round-trip."""
        with Grid([NodeSpec(name="n")], tick=1.0, seed=2) as grid:
            grid.submit("svc", _endless(), queue="short-2g-asap")
            grid.run_for(50.0)
            epochs_before = grid.stats["epochs"]
            grid.run_for(100.0)
            assert grid.stats["epochs"] == epochs_before + 1


class TestExitBoundSoundness:
    """The epoch rule is only correct if the exit bound never overshoots."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("ipc", [0.8, 1.3])
    def test_lower_bound_never_exceeds_actual_exit(self, seed, ipc):
        machine = SimMachine(
            datacenter.WESTMERE_E5640, sockets=1, cores_per_socket=2,
            tick=0.5, seed=seed,
        )
        wl = _job(seconds=6.0, ipc=ipc)
        proc = machine.spawn("j", wl)
        lb = workload_exit_lb(machine.arch, wl)
        assert lb is not None and lb > 0.0
        floor_cpi = workload_floor_cpi(machine.arch, wl)
        while proc.alive and machine.now < 120.0:
            running = proc_exit_lb(machine, proc, floor_cpi)
            machine.run_ticks(1)
            if not proc.alive:
                died_at = machine.death_observed[proc.pid]
                # Death can only be observed at/after the bound's tick.
                assert died_at >= lb - machine.tick
                assert died_at + machine.tick >= running
        assert not proc.alive

    def test_endless_workload_has_no_bound(self):
        assert workload_exit_lb(
            datacenter.WESTMERE_E5640, _endless()
        ) is None

    def test_noise_free_bound_includes_exec_and_stays_sound(self):
        """With noise == 0 the lognormal multiplier is exactly 1 and issue
        sharing can only raise exec CPI, so the bound prices in the full
        solo CPI — strictly tighter than the noisy penalty-only floor —
        and must still never overshoot, even under SMT contention."""
        arch = datacenter.WESTMERE_E5640
        noisy = datacenter.compute_job("n", 1.0, duration_hint=6.0)
        exact = datacenter.compute_job("d", 1.0, duration_hint=6.0, noise=0.0)
        lb_noisy = workload_exit_lb(arch, noisy)
        lb_exact = workload_exit_lb(arch, exact)
        assert lb_noisy is not None and lb_exact is not None
        assert lb_exact > lb_noisy
        # Two deterministic jobs time-share one core: both exits must
        # still land at/after the solo bound's tick.
        machine = SimMachine(arch, sockets=1, cores_per_socket=1,
                             tick=0.5, seed=7)
        procs = [
            machine.spawn(f"d{i}",
                          datacenter.compute_job(
                              f"d{i}", 1.0, duration_hint=6.0, noise=0.0))
            for i in range(2)
        ]
        while any(p.alive for p in procs) and machine.now < 120.0:
            machine.run_ticks(1)
        for proc in procs:
            assert not proc.alive
            assert machine.death_observed[proc.pid] >= lb_exact - machine.tick


class TestExitBoundsPinNothing:
    """Each floor CPI lives with the job or dispatch that needs it, so a
    finished grid leaves no process-wide entry behind (resources stay
    bounded however many jobs a process dispatches)."""

    def test_finished_grids_pin_no_phase(self):
        phases = []

        def run(grid, n_jobs, span):
            for i in range(n_jobs):
                workload = _job(seconds=5.0, ipc=1.0, name=f"j{i}")
                phases.append(weakref.ref(workload.phases[0]))
                grid.submit(f"j{i}", workload, queue="slow",
                            memory_bytes=1024**3)
            grid.run_for(span)
            assert len(grid.jobs("done")) == n_jobs
            # The shard dropped every finished job's entry, floor included.
            assert grid.engine.shard._jobs == {}

        # One long serial run of many finite jobs, then several grids
        # built one after another in the same process.
        with Grid(_small_fleet(), _small_queues(), tick=1.0, seed=1) as grid:
            run(grid, 80, 160.0)
        for seed in range(3):
            fleet = [
                NodeSpec(name=f"n{i}", sockets=1, cores_per_socket=2,
                         memory_bytes=4 * 1024**3)
                for i in range(8)
            ]
            with Grid(fleet, _small_queues(), tick=1.0, seed=seed) as grid:
                run(grid, 10, 30.0)
        del grid
        gc.collect()
        assert sum(ref() is not None for ref in phases) == 0


class TestBatchedPathRouting:
    def test_serial_engine_shares_one_rate_cache(self):
        with Grid(_small_fleet(), _small_queues(), tick=1.0, seed=1) as grid:
            caches = {
                id(machine._rate_cache) for machine in grid.nodes.values()
            }
            assert len(caches) == 1

    def test_epoch_advance_exercises_rate_cache(self):
        with Grid([NodeSpec(name="n", sockets=1, cores_per_socket=2)],
                  tick=1.0, seed=1) as grid:
            grid.submit("a", _endless("a"), queue="short-2g-asap")
            grid.submit("b", _endless("b"), queue="short-2g-asap")
            grid.run_for(40.0)
            hits = grid.stats["rate_cache_hits"]
            misses = grid.stats["rate_cache_misses"]
            assert misses > 0
            # Steady state replays memoised rates (most repeats are
            # absorbed by the contention cache one layer up, so only the
            # residual reaches the RateCache — but it must hit there).
            assert hits > 0

    def test_epoch_batching_matches_scalar_node(self):
        """`test_run_ticks_equivalence` style, at grid granularity: a
        serial-engine node is bitwise equal to a scalar-stepped machine
        driven by the same spawn schedule."""
        with Grid([NodeSpec(name="n", sockets=1, cores_per_socket=1)],
                  tick=1.0, seed=9) as grid:
            grid.submit("j", _job(seconds=7.0, ipc=1.0),
                        queue="short-2g-asap")
            grid.run_for(20.0)
            batched = grid.snapshot("n")

        scalar = SimMachine(
            datacenter.WESTMERE_E5640, sockets=1, cores_per_socket=1,
            memory_bytes=24 * 1024**3, tick=1.0, seed=9,
        )
        scalar.spawn("j", _job(seconds=7.0, ipc=1.0))
        for _ in range(20):
            scalar.run_for(1.0)
        assert node_snapshot(scalar) == batched


class TestShardedEngineSurface:
    def test_node_access_requires_in_process_engine(self):
        with Grid(_small_fleet(), _small_queues(), tick=1.0, seed=1,
                  workers=2) as grid:
            with pytest.raises(SimulationError):
                grid.node("a0")
            with pytest.raises(SimulationError):
                grid.node("missing")
            # Snapshots still work: fetched from the owning worker.
            snap = grid.snapshot("a0")
            assert snap["now"] == 0.0

    def test_close_is_idempotent_and_workers_die(self):
        grid = Grid(_small_fleet(), _small_queues(), tick=1.0, seed=1,
                    workers=2)
        procs = list(grid.engine._procs)
        assert all(p.is_alive() for p in procs)
        grid.close()
        grid.close()
        assert all(not p.is_alive() for p in procs)

    def test_worker_error_surfaces_as_simulation_error(self):
        with Grid(_small_fleet(), _small_queues(), tick=1.0, seed=1,
                  workers=2) as grid:
            with pytest.raises(SimulationError):
                grid.engine.snapshot("nope")

    def test_invalid_engine_and_workers_rejected(self):
        for engine in ("warp", "sharded", "fleet"):
            with pytest.raises(SimulationError, match="unknown grid engine"):
                Grid(_small_fleet(), _small_queues(), engine=engine)
        with pytest.raises(SimulationError):
            Grid(_small_fleet(), _small_queues(), workers=0)
        assert ENGINE_NAMES == ("legacy", "serial", "supervised")

    def test_more_workers_than_nodes_is_clamped(self):
        with Grid([NodeSpec(name="n", sockets=1, cores_per_socket=1)],
                  tick=1.0, seed=1, workers=8) as grid:
            assert grid.engine.workers == 1
            grid.submit("j", _job(seconds=3.0, ipc=1.0),
                        queue="short-2g-asap")
            grid.run_for(10.0)
            assert grid.jobs("done")


class TestProfileObservability:
    def test_grid_profile_lines_on_stderr(self, capsys):
        with Grid([NodeSpec(name="n")], tick=1.0, seed=2,
                  profile=True) as grid:
            grid.submit("j", _job(seconds=4.0, ipc=1.0),
                        queue="short-2g-asap")
            grid.run_for(10.0)
        err = capsys.readouterr().err
        assert "grid-profile:" in err
        assert "wall_ms=" in err
        assert "rate_cache=" in err

    def test_stats_accumulate(self):
        with Grid(_small_fleet(), _small_queues(), tick=1.0, seed=3,
                  workers=2) as grid:
            _churn(grid, 3)
            assert grid.stats["epochs"] >= 3
            assert grid.stats["ticks"] >= 10
            # One message per worker per epoch round-trip.
            assert grid.stats["messages"] >= 2 * grid.stats["epochs"]
            assert grid.stats["shard_wall"] > 0.0


class TestDeathObservation:
    def test_kill_records_boundary_time(self):
        machine = SimMachine(datacenter.WESTMERE_E5640, tick=1.0, seed=1)
        proc = machine.spawn("j", _endless())
        machine.run_for(3.0)
        machine.kill(proc.pid)
        assert machine.death_observed[proc.pid] == machine.now
        machine.kill(proc.pid)  # second kill must not move the record
        assert machine.death_observed[proc.pid] == 3.0

    def test_natural_death_records_next_boundary(self):
        machine = SimMachine(
            datacenter.WESTMERE_E5640, sockets=1, cores_per_socket=1,
            tick=1.0, seed=1,
        )
        proc = machine.spawn("j", _job(seconds=4.0, ipc=1.0))
        machine.run_ticks(30)
        assert not proc.alive
        observed = machine.death_observed[proc.pid]
        assert observed == math.floor(observed)  # a whole-tick boundary
        assert 1.0 <= observed <= 30.0


class TestSharedRateCacheInjection:
    def test_machines_accept_shared_cache(self):
        shared = RateCache()
        machines = [
            SimMachine(datacenter.WESTMERE_E5640, sockets=1,
                       cores_per_socket=1, tick=1.0, seed=s,
                       rate_cache=shared)
            for s in (1, 2)
        ]
        for machine in machines:
            machine.spawn("j", _job(seconds=5.0, ipc=1.0))
            machine.run_ticks(3)
        assert shared.hits + shared.misses > 0
        assert all(m._rate_cache is shared for m in machines)
