"""Scenario model and seeded generator."""

import json
import math
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.perf.faults import FaultSpec
from repro.sim.netchaos import NetFaultSpec
from repro.verify.scenario import (
    JobPlan,
    QueuePlan,
    Scenario,
    TaskPlan,
    generate,
)

CORPUS = Path(__file__).parent / "corpus"


class TestGenerate:
    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234])
    def test_deterministic(self, seed):
        assert generate(seed) == generate(seed)

    def test_seeds_differ(self):
        scenarios = {generate(seed).digest() for seed in range(20)}
        assert len(scenarios) > 15  # digests almost never collide

    def test_produces_both_kinds(self):
        kinds = {generate(seed).kind for seed in range(40)}
        assert kinds == {"tool", "grid"}

    @pytest.mark.parametrize("seed", range(30))
    def test_timing_is_tick_aligned(self, seed):
        """Every timed quantity is an exact tick multiple, so the scalar
        and batched clock advances walk identical float ladders."""
        s = generate(seed)
        def aligned(t):
            k = t / s.tick
            return k == round(k)
        if s.kind == "tool":
            assert aligned(s.delay)
            for task in s.tasks:
                assert aligned(task.spawn_at)
                if task.kill_at is not None:
                    assert aligned(task.kill_at)
                    assert task.kill_at > task.spawn_at
        else:
            assert aligned(s.span)
            for job in s.jobs:
                assert aligned(job.submit_at)

    @pytest.mark.parametrize("seed", range(30))
    def test_grid_jobs_reference_known_queues(self, seed):
        s = generate(seed)
        if s.kind == "grid":
            names = {q.name for q in s.queues}
            assert all(job.queue in names for job in s.jobs)


class TestSerialisation:
    @pytest.mark.parametrize("seed", range(20))
    def test_json_round_trip(self, seed):
        s = generate(seed)
        assert Scenario.from_json(s.to_json()) == s

    def test_round_trip_preserves_inf(self):
        s = Scenario(
            kind="tool",
            seed=1,
            tasks=(
                TaskPlan(
                    name="svc", archetype="compute", target_ipc=1.8,
                    duration=math.inf,
                ),
            ),
        )
        back = Scenario.from_json(s.to_json())
        assert math.isinf(back.tasks[0].duration)

    def test_digest_stable_across_round_trip(self):
        s = generate(5)
        assert Scenario.from_json(s.to_json()).digest() == s.digest()

    def test_unknown_schema_rejected(self):
        d = generate(0).to_dict()
        d["schema"] = 999
        with pytest.raises(ConfigError, match="schema"):
            Scenario.from_dict(d)

    def test_round_trips_explicit_faults(self):
        s = Scenario(
            kind="tool",
            seed=2,
            tasks=(
                TaskPlan(
                    name="t", archetype="memory", target_ipc=0.5,
                    duration=math.inf,
                ),
            ),
            faults=(
                FaultSpec(op="read", error="eintr", at_calls=(5, 9)),
                FaultSpec(op="open", error="emfile", rate=0.5),
            ),
        )
        back = Scenario.from_json(s.to_json())
        assert back.faults == s.faults
        assert back.faults[0].at_calls == (5, 9)


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            Scenario(kind="fleet", seed=0)

    @pytest.mark.parametrize("engine", ["bogus", "sharded", "fleet"])
    def test_unknown_engine_fails_at_load(self, engine):
        # Rejected when the scenario is built, not after the engines
        # before it have already run.
        data = json.loads((CORPUS / "grid-queueing.json").read_text())
        data["engines"] = ["legacy", engine]
        with pytest.raises(ConfigError, match="unknown grid engine"):
            Scenario.from_dict(data)

    @pytest.mark.parametrize(
        "name, level, key",
        [
            ("emfile-exhaustion", None, "chaos"),
            ("emfile-exhaustion", "tasks", "kill"),
            ("grid-queueing", "queues", "prority"),
            ("grid-queueing", "jobs", "submit"),
            ("emfile-exhaustion", "faults", "at_call"),
            ("worker-crash-recover", "grid_faults", "at_epoch"),
            ("serve-net-reconnect", "net_faults", "at_epoch"),
        ],
        ids=[
            "scenario", "tasks", "queues", "jobs", "faults", "grid_faults",
            "net_faults",
        ],
    )
    def test_unknown_key_fails_at_load(self, name, level, key):
        # A stale or misspelt key must not load: dropped from a fault
        # entry, "at_call": [5] would leave a fault that never fires and a
        # scenario that passes vacuously.
        data = json.loads((CORPUS / f"{name}.json").read_text())
        if level == "net_faults":  # no corpus file has an explicit cut
            data[level] = [{"kind": "drop", "at_epochs": [1]}]
        entry = data if level is None else data[level][0]
        entry[key] = [5]
        where = level or "scenario"
        with pytest.raises(ConfigError, match=f"'{key}' in {where}"):
            Scenario.from_dict(data)
        del entry[key]
        Scenario.from_dict(data)  # the file itself loads

    def test_unknown_transport_fails_at_load(self):
        with pytest.raises(ConfigError, match="unknown shard transport"):
            Scenario(kind="grid", seed=0, transports=("fork", "pigeon"))

    @pytest.mark.parametrize(
        "kind, serve", [("grid", False), ("tool", False), ("grid", True)]
    )
    def test_link_chaos_needs_a_served_tool_scenario(self, kind, serve):
        # Only the serve daemon's sockets can be cut. Link chaos anywhere
        # else (an old grid artifact, a hand-written file) would run
        # clean and its checks would pass vacuously, so it fails at load.
        cut = (NetFaultSpec(kind="drop", at_epochs=(1,)),)
        with pytest.raises(ConfigError, match="serve"):
            Scenario(kind=kind, seed=0, serve=serve, net_faults=cut)
        data = Scenario(kind=kind, seed=0, serve=serve).to_dict()
        data["net_chaos_seed"] = 3  # as a replay artifact would carry it
        with pytest.raises(ConfigError, match="serve"):
            Scenario.from_dict(data)
        served = Scenario(kind="tool", seed=0, serve=True, net_faults=cut)
        assert served.net_chaotic

    def test_delay_must_be_tick_multiple(self):
        with pytest.raises(ConfigError, match="multiple"):
            Scenario(kind="tool", seed=0, tick=0.25, delay=0.8)

    def test_unknown_archetype(self):
        with pytest.raises(ConfigError, match="archetype"):
            TaskPlan(name="x", archetype="gpu", target_ipc=1.0, duration=1.0)

    def test_kill_before_spawn(self):
        with pytest.raises(ConfigError, match="kill_at"):
            TaskPlan(
                name="x", archetype="compute", target_ipc=1.8,
                duration=math.inf, spawn_at=2.0, kill_at=1.0,
            )

    def test_unknown_fault_op(self):
        with pytest.raises(ConfigError, match="op"):
            FaultSpec(op="mmap", error="eintr")

    def test_unknown_fault_error(self):
        with pytest.raises(ConfigError, match="error"):
            FaultSpec(op="read", error="enoent")

    def test_job_plan_validates_archetype(self):
        with pytest.raises(ConfigError, match="archetype"):
            JobPlan(
                name="j", archetype="gpu", target_ipc=1.0, duration=1.0,
                queue="fast",
            )

    def test_chaotic_property(self):
        quiet = Scenario(kind="tool", seed=0)
        assert not quiet.chaotic
        assert Scenario(kind="tool", seed=0, chaos_seed=4).chaotic
        assert Scenario(
            kind="tool", seed=0,
            faults=(FaultSpec(op="read", error="eintr", rate=0.1),),
        ).chaotic

    def test_queue_plan_fields(self):
        q = QueuePlan(name="fast", max_wallclock=4.0, memory_limit=2**30)
        assert q.priority == 0
