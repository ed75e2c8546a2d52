"""Supervision tree for grid workers: detect, restart, adopt, degrade.

The contract under test: a SIGKILLed, hung or garbling worker never
deadlocks and never aborts ``Grid.run_for`` — the supervisor restarts the
worker and resurrects its shard from the epoch journal (bitwise-equal to
a never-crashed run), adopts poison shards in-process, and degrades the
whole engine to serial semantics when the restart budget runs out. Chaos
schedules (:class:`GridFaultPlan`) are pure functions of their seed, so
``--grid-chaos SEED`` runs replay byte-identically, event log included.
"""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.core.cli import main
from repro.errors import ConfigError, SimulationError, WorkerFailure
from repro.sim.grid import Grid, NodeSpec, QueueSpec
from repro.sim.parallel import create_engine
from repro.sim.supervisor import (
    CRASH_EXIT,
    GridFaultPlan,
    GridFaultSpec,
    Supervision,
    default_grid_specs,
    recovery_counts,
)
from repro.sim.workloads import datacenter

GiB = 1024**3

#: Fast supervision for tests: tight deadline, no backoff sleeps.
FAST = Supervision(deadline=0.5, backoff_base=0.0)


def _job(seconds, name="job", ipc=1.0):
    return datacenter.compute_job(name, ipc, duration_hint=seconds)


def _endless(name="svc"):
    return datacenter.compute_job(name, 1.2)


def _fleet():
    return [
        NodeSpec(name="a0", sockets=1, cores_per_socket=1, memory_bytes=4 * GiB),
        NodeSpec(name="a1", sockets=1, cores_per_socket=2, memory_bytes=4 * GiB),
        NodeSpec(name="a2", sockets=1, cores_per_socket=1, memory_bytes=4 * GiB),
    ]


def _queues():
    return [
        QueueSpec("quick", max_wallclock=6.0, memory_limit=2 * GiB, priority=2),
        QueueSpec("slow", max_wallclock=float("inf"), memory_limit=4 * GiB,
                  priority=1),
    ]


def _script(grid, pause=None):
    """Over-subscribe the fleet so exits/kills force several dispatch
    epochs — chaos at epoch N is meaningless unless epoch N exists.
    ``pause`` (if given) runs between the first and second run_for, i.e.
    between epochs — the hook the SIGKILL tests use."""
    grid.submit("svc0", _endless("svc0"), queue="quick", memory_bytes=GiB)
    grid.submit("svc1", _endless("svc1"), queue="quick", memory_bytes=GiB)
    for i, secs in enumerate([3.0, 5.0, 8.0, 4.0]):
        grid.submit(f"j{i}", _job(secs, name=f"j{i}"), queue="slow",
                    memory_bytes=GiB)
    grid.run_for(4.0)
    if pause is not None:
        pause(grid)
    grid.submit("late", _job(6.0, name="late"), queue="slow",
                memory_bytes=GiB)
    grid.run_for(8.5)
    grid.run_for(3.0)


def _run(engine, workers, *, chaos=None, supervision=None, pause=None):
    """One scripted run; returns (digest, events, supervisor stats)."""
    grid = Grid(_fleet(), _queues(), tick=1.0, seed=7, workers=workers,
                engine=engine, grid_chaos=chaos, supervision=supervision)
    try:
        _script(grid, pause=pause)
        stats = dict(getattr(grid.engine, "stats", {}))
        return grid.conformance_digest(), grid.supervisor_events, stats
    finally:
        grid.close()


def _kinds(events):
    return [e["event"] for e in events]


@pytest.fixture(scope="module")
def serial_digest():
    digest, events, _ = _run("serial", 1)
    assert events == []
    return digest


def _plan(*specs, seed=0):
    return GridFaultPlan(seed=seed, specs=tuple(specs))


def _assert_no_children():
    # active_children() joins exited processes as a side effect; a short
    # grace window absorbs the OS reaping a freshly-SIGKILLed child.
    for _ in range(50):
        if not multiprocessing.active_children():
            return
        time.sleep(0.02)
    assert multiprocessing.active_children() == []


class TestGridFaultPlan:
    def test_decide_is_a_pure_function_of_the_seed(self):
        a = GridFaultPlan.from_seed(3, intensity=8.0)
        b = GridFaultPlan.from_seed(3, intensity=8.0)
        grid = [(w, e, i) for w in range(3) for e in range(40)
                for i in range(2)]
        assert [a.decide(*k) for k in grid] == [b.decide(*k) for k in grid]

    def test_exact_epoch_fires_on_first_incarnation_only(self):
        plan = _plan(GridFaultSpec("crash", at_epochs={5}))
        assert plan.decide(0, 5, 0) == "crash"
        assert plan.decide(0, 5, 1) is None  # the restarted retry succeeds
        assert plan.decide(0, 4, 0) is None

    def test_persistent_epoch_refires_every_incarnation(self):
        plan = _plan(GridFaultSpec("crash", at_epochs={2}, persistent=True))
        assert all(plan.decide(1, 2, i) == "crash" for i in range(4))

    def test_worker_targeting(self):
        plan = _plan(GridFaultSpec("hang", at_epochs={0}, worker=1))
        assert plan.decide(1, 0, 0) == "hang"
        assert plan.decide(0, 0, 0) is None

    def test_rate_specs_partition_the_unit_interval(self):
        plan = _plan(
            GridFaultSpec("crash", rate=0.5), GridFaultSpec("garble", rate=0.5)
        )
        decisions = {plan.decide(0, e, 0) for e in range(200)}
        assert decisions == {"crash", "garble"}  # never None at total rate 1

    def test_overlapping_rates_are_rejected(self):
        # Rate specs split one draw: at 0.8 + 0.8, hang would fire on 0.2
        # of draws, not 0.8. Exact-epoch specs take no slice of the draw.
        with pytest.raises(ConfigError, match="> 1"):
            _plan(GridFaultSpec("crash", rate=0.8),
                  GridFaultSpec("hang", rate=0.8))
        plan = _plan(GridFaultSpec("crash", rate=0.8),
                     GridFaultSpec("hang", rate=0.8, at_epochs={1}))
        assert plan.decide(0, 1, 0) == "hang"

    def test_rates_sum_per_worker(self):
        # Specs aimed at different workers never share a draw; an
        # untargeted spec joins every worker's.
        plan = _plan(GridFaultSpec("crash", rate=0.6, worker=0),
                     GridFaultSpec("garble", rate=0.6, worker=1))
        assert {plan.decide(0, e, 0) for e in range(40)} == {"crash", None}
        assert {plan.decide(1, e, 0) for e in range(40)} == {"garble", None}
        with pytest.raises(ConfigError, match="> 1"):
            _plan(GridFaultSpec("crash", rate=0.6),
                  GridFaultSpec("garble", rate=0.6, worker=1))

    def test_zero_intensity_is_silent(self):
        plan = GridFaultPlan.from_seed(9, intensity=0.0)
        assert all(
            plan.decide(w, e, 0) is None for w in range(2) for e in range(100)
        )

    def test_default_specs_rates_are_capped(self):
        for spec in default_grid_specs(intensity=1e9):
            assert spec.rate <= 1.0 / 3.0

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            GridFaultSpec("explode")
        with pytest.raises(ConfigError):
            GridFaultSpec("crash", rate=1.5)
        with pytest.raises(ConfigError):
            GridFaultSpec("crash", at_epochs={-1})
        with pytest.raises(ConfigError):
            GridFaultSpec("crash", worker=-1)
        with pytest.raises(ConfigError):
            default_grid_specs(intensity=-1.0)

    def test_supervision_validation(self):
        with pytest.raises(ConfigError):
            Supervision(deadline=0.0)
        with pytest.raises(ConfigError):
            Supervision(restart_budget=-1)
        with pytest.raises(ConfigError):
            Supervision(poison_limit=0)
        with pytest.raises(ConfigError):
            Supervision(backoff_base=-0.1)

    def test_chaos_requires_the_supervised_engine(self):
        with pytest.raises(SimulationError, match="supervised engine"):
            create_engine("legacy", _fleet(), 1.0, 7, 1,
                          chaos=GridFaultPlan.from_seed(1))
        with pytest.raises(SimulationError):
            create_engine("serial", _fleet(), 1.0, 7, 1, supervision=FAST)

    def test_grid_chaos_implies_supervised_engine(self):
        with Grid(_fleet(), _queues(), tick=1.0, seed=7,
                  grid_chaos=3) as grid:
            assert grid.engine.name == "supervised"


class TestCrashRecovery:
    def test_sigkill_between_epochs_recovers_bitwise(self, serial_digest):
        def pause(grid):
            os.kill(grid.engine._procs[0].pid, signal.SIGKILL)
            time.sleep(0.05)

        digest, events, stats = _run("supervised", 2, supervision=FAST,
                                     pause=pause)
        assert digest == serial_digest
        assert "crash" in _kinds(events)
        assert "restart" in _kinds(events)
        assert stats["restarts"] >= 1
        assert stats["replayed_epochs"] >= 1
        _assert_no_children()

    def test_sigkill_mid_advance_recovers_bitwise(self):
        """A worker murdered *while computing* an epoch: the kill lands
        asynchronously during a long run_for, so it may hit mid-advance
        or between round-trips — recovery must be exact either way. The
        script is epoch-heavy (one submit + run per loop) so the run is
        long enough that the timer always lands inside it."""
        def busy(grid, pause=None):
            for i, secs in enumerate([3.0, 5.0, 4.0]):
                grid.submit(f"j{i}", _job(secs, name=f"j{i}"), queue="slow",
                            memory_bytes=GiB)
            grid.run_for(2.0)
            if pause is not None:
                pause(grid)
            for i in range(24):
                grid.submit(f"w{i}", _job(2.0 + i % 3, name=f"w{i}"),
                            queue="slow", memory_bytes=GiB)
                grid.run_for(1.5)

        def kill_quietly(pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:  # pragma: no cover - lost the race
                pass

        def pause(grid):
            pid = grid.engine._procs[0].pid
            threading.Timer(0.01, kill_quietly, args=(pid,)).start()

        results = {}
        for engine, workers, hook in [("serial", 1, None),
                                      ("supervised", 2, pause)]:
            grid = Grid(_fleet(), _queues(), tick=1.0, seed=7,
                        workers=workers, engine=engine, supervision=FAST
                        if engine == "supervised" else None)
            try:
                busy(grid, pause=hook)
                stats = dict(getattr(grid.engine, "stats", {}))
                results[engine] = grid.conformance_digest()
            finally:
                grid.close()
        assert results["supervised"] == results["serial"]
        assert stats["failures"]["crash"] >= 1
        _assert_no_children()

    def test_chaos_crash_replays_journal_exactly(self, serial_digest):
        plan = _plan(GridFaultSpec("crash", at_epochs={0, 2}, worker=0),
                     GridFaultSpec("garble", at_epochs={1}, worker=1))
        digest, events, stats = _run("supervised", 2, chaos=plan,
                                     supervision=FAST)
        assert digest == serial_digest
        assert stats["failures"]["crash"] >= 1
        assert stats["failures"]["garbled"] >= 1
        assert stats["restarts"] >= 2
        assert not stats["degraded"]

    @pytest.mark.parametrize("chaos_seed", [1, 2, 3, 4, 5, 11])
    def test_multi_seed_chaos_sweep_matches_serial(self, chaos_seed,
                                                   serial_digest):
        plan = _plan(
            GridFaultSpec("crash", rate=0.25),
            GridFaultSpec("garble", rate=0.20),
            GridFaultSpec("hang", rate=0.04),
            seed=chaos_seed,
        )
        digest, _, _ = _run("supervised", 2, chaos=plan, supervision=FAST)
        assert digest == serial_digest
        _assert_no_children()

    def test_chaos_replay_is_byte_identical(self):
        plan = GridFaultPlan.from_seed(3, intensity=8.0)
        runs = [_run("supervised", 2, chaos=plan, supervision=FAST)
                for _ in range(2)]
        assert runs[0][0] == runs[1][0]  # digests
        assert runs[0][1] == runs[1][1]  # event logs, field for field
        assert runs[0][2] == runs[1][2]  # supervisor stats


class TestHangAndGarble:
    def test_hang_detected_by_deadline_and_recovered(self, serial_digest):
        plan = _plan(GridFaultSpec("hang", at_epochs={0}, worker=1))
        digest, events, stats = _run("supervised", 2, chaos=plan,
                                     supervision=FAST)
        assert digest == serial_digest
        assert _kinds(events)[:2] == ["hang", "restart"]
        assert stats["failures"]["hang"] == 1
        _assert_no_children()  # the SIGTERM-immune hanger was SIGKILLed

    def test_garbled_reply_is_rejected_and_recovered(self, serial_digest):
        plan = _plan(GridFaultSpec("garble", at_epochs={0}, worker=0))
        digest, events, stats = _run("supervised", 2, chaos=plan,
                                     supervision=FAST)
        assert digest == serial_digest
        assert _kinds(events)[:2] == ["garbled", "restart"]
        assert stats["failures"]["garbled"] == 1


class TestPoisonAndDegrade:
    def test_poison_epoch_adopts_the_shard(self, serial_digest):
        plan = _plan(
            GridFaultSpec("crash", at_epochs={1}, worker=0, persistent=True)
        )
        digest, events, stats = _run("supervised", 2, chaos=plan,
                                     supervision=FAST)
        assert digest == serial_digest
        kinds = _kinds(events)
        assert "poison" in kinds and "adopt" in kinds
        assert stats["adopted_shards"] == 1
        assert not stats["degraded"]  # one bad shard must not degrade all
        # poison_limit=3: two restart attempts, then adoption.
        assert kinds.count("restart") == 2

    def test_restart_budget_exhaustion_degrades_to_serial(self, serial_digest):
        plan = _plan(GridFaultSpec("crash", at_epochs={0}, persistent=True))
        supervision = Supervision(deadline=0.5, backoff_base=0.0,
                                  restart_budget=0)
        digest, events, stats = _run("supervised", 2, chaos=plan,
                                     supervision=supervision)
        assert digest == serial_digest
        assert "degrade" in _kinds(events)
        assert stats["degraded"]
        assert stats["restarts"] == 0
        assert stats["adopted_shards"] == 2  # every shard now in-process
        _assert_no_children()

    def test_backoff_doubles_and_respects_the_cap(self, serial_digest):
        plan = _plan(
            GridFaultSpec("crash", at_epochs={0}, worker=0, persistent=True)
        )
        supervision = Supervision(deadline=0.5, backoff_base=0.01,
                                  backoff_cap=0.02, poison_limit=4)
        digest, events, _ = _run("supervised", 2, chaos=plan,
                                 supervision=supervision)
        assert digest == serial_digest
        backoffs = [e["backoff"] for e in events if e["event"] == "restart"]
        assert backoffs == [0.01, 0.02, 0.02]  # base, doubled, capped

    def test_event_log_is_deterministic_fields_only(self):
        plan = GridFaultPlan.from_seed(7, intensity=8.0)
        _, events, _ = _run("supervised", 2, chaos=plan, supervision=FAST)
        assert events
        allowed = {"event", "worker", "epoch", "incarnation", "replayed",
                   "backoff", "attempts", "reason"}
        for event in events:
            assert set(event) <= allowed  # no wall-times, no exit codes


class TestSnapshotRecovery:
    def test_snapshot_of_a_dead_worker_adopts_and_serves(self):
        with Grid(_fleet(), _queues(), tick=1.0, seed=7, workers=2,
                  engine="supervised", supervision=FAST) as grid:
            grid.submit("j0", _job(5.0, name="j0"), queue="slow",
                        memory_bytes=GiB)
            grid.run_for(3.0)
            reference = grid.snapshot("a0")
            os.kill(grid.engine._procs[0].pid, signal.SIGKILL)
            time.sleep(0.05)
            assert grid.snapshot("a0") == reference
            # The failure and the adoption count at once, not at the next
            # epoch.
            assert grid.stats["worker_failures"] == 1
            assert grid.stats["adopted_shards"] == 1
            kinds = _kinds(grid.supervisor_events)
            assert "adopt" in kinds
            reasons = [e.get("reason") for e in grid.supervisor_events]
            assert "snapshot" in reasons
            # The run continues on the adopted shard.
            grid.run_for(5.0)
            assert grid.jobs("done")

    def test_unknown_node_still_raises(self):
        with Grid(_fleet(), _queues(), tick=1.0, seed=7, workers=2,
                  engine="supervised") as grid:
            with pytest.raises(SimulationError):
                grid.engine.snapshot("nope")


class TestObservability:
    def test_grid_stats_carry_supervisor_counters(self):
        plan = _plan(GridFaultSpec("crash", at_epochs={0}, worker=0))
        grid = Grid(_fleet(), _queues(), tick=1.0, seed=7, workers=2,
                    engine="supervised", grid_chaos=plan, supervision=FAST)
        try:
            _script(grid)
            assert grid.stats["worker_failures"] >= 1
            assert grid.stats["restarts"] >= 1
            assert grid.stats["replayed_epochs"] >= 0
            assert grid.stats["degraded"] is False
        finally:
            grid.close()

    @pytest.mark.parametrize("chaos_seed", [1, 2, 3])
    def test_recovery_stats_are_the_event_log_counts(self, chaos_seed):
        """``grid.stats`` and the engine's ``stats`` read every recovery
        count off the event log, at every read. A budget of two restarts
        lets seeds 1 and 2 reach adoption and the degrade."""
        plan = GridFaultPlan.from_seed(chaos_seed, intensity=8.0)
        supervision = Supervision(deadline=0.5, backoff_base=0.0,
                                  restart_budget=2)

        def check(grid):
            counts = recovery_counts(grid.supervisor_events)
            assert grid.engine.stats == counts
            stats = grid.stats
            assert stats["restarts"] == counts["restarts"]
            assert stats["replayed_epochs"] == counts["replayed_epochs"]
            assert stats["adopted_shards"] == counts["adopted_shards"]
            assert stats["worker_failures"] == sum(
                counts["failures"].values()
            )
            assert stats["degraded"] is counts["degraded"]

        with Grid(_fleet(), _queues(), tick=1.0, seed=7, workers=2,
                  grid_chaos=plan, supervision=supervision,
                  transport="inproc") as grid:
            grid.submit("svc0", _endless("svc0"), queue="quick",
                        memory_bytes=GiB)
            for i, secs in enumerate([3.0, 5.0, 8.0, 4.0]):
                grid.submit(f"j{i}", _job(secs, name=f"j{i}"),
                            queue="slow", memory_bytes=GiB)
            for span in (4.0, 8.5, 3.0):
                grid.run_for(span)
                check(grid)
            grid.conformance_digest()
            check(grid)
            assert grid.stats["worker_failures"] >= 1

    def test_profile_lines_include_recovery_counters(self, capsys):
        plan = _plan(GridFaultSpec("crash", at_epochs={0}, worker=0))
        grid = Grid(_fleet(), _queues(), tick=1.0, seed=7, workers=2,
                    engine="supervised", grid_chaos=plan, supervision=FAST,
                    profile=True)
        try:
            _script(grid)
        finally:
            grid.close()
        err = capsys.readouterr().err
        assert "restarts=" in err
        assert "adopted=" in err

    def test_close_is_idempotent(self):
        grid = Grid(_fleet(), _queues(), tick=1.0, seed=7, workers=2,
                    engine="supervised")
        procs = list(grid.engine._procs)
        assert grid.engine.live_workers() == 2
        grid.close()
        grid.close()
        assert all(not p.is_alive() for p in procs)

    def test_run_after_close_is_typed_closed(self):
        """A closed transport is not a failure to recover: the run raises
        the typed failure and logs no recovery."""
        grid = Grid(_fleet(), _queues(), tick=1.0, seed=7, workers=2,
                    engine="supervised", supervision=FAST)
        grid.close()
        with pytest.raises(WorkerFailure) as info:
            grid.run_for(2.0)
        assert info.value.kind == "closed"
        assert grid.supervisor_events == []
        _assert_no_children()


class TestGridChaosCli:
    ARGS = ["--sim", "--grid-workers", "3", "--grid-chaos", "1",
            "-d", "2", "-n", "8"]

    def test_replay_is_byte_identical(self, capsys):
        assert main(self.ARGS) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS) == 0
        assert capsys.readouterr().out == first
        assert "supervisor:" in first
        # Seed 1 fires a worker fault on this span, so the replayed bytes
        # include the recovery event log, not just a clean summary.
        assert "restarts=1" in first

    def test_requires_sim_and_grid_workers(self, capsys):
        assert main(["--grid-chaos", "7"]) == 2
        assert "requires --sim and --grid-workers" in capsys.readouterr().err
        assert main(["--sim", "-b", "-n", "1", "--grid-chaos", "7"]) == 2


class TestCrashExitConstant:
    def test_chaos_crash_exitcode_is_deterministic(self):
        plan = _plan(GridFaultSpec("crash", at_epochs={0}, worker=0))
        grid = Grid(_fleet(), _queues(), tick=1.0, seed=7, workers=2,
                    engine="supervised", grid_chaos=plan, supervision=FAST)
        try:
            doomed = grid.engine._procs[0]
            grid.submit("j0", _job(3.0, name="j0"), queue="slow",
                        memory_bytes=GiB)
            grid.run_for(2.0)
            doomed.join(timeout=5.0)
            assert doomed.exitcode == CRASH_EXIT
        finally:
            grid.close()
