"""Partition chaos at the transport boundary: exactness under faults.

The split-brain oracle, pinned as tests: for any seeded partition/heal
schedule, the supervised and fleet engines must produce conformance
digests bitwise-equal to the untouched serial engine — lost requests are
retried, lost replies are fenced by ``(incarnation, epoch)`` instead of
double-applied, duplicates are discarded, and a healed link resumes
mid-run. Plus the close-path regression: a fork transport whose peer
is already gone must tear down quietly, never masking the original
:class:`~repro.errors.WorkerFailure` with a teardown error.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import WorkerFailure
from repro.sim.grid import Grid, NodeSpec, QueueSpec
from repro.sim.netchaos import NetChaosPlan, NetFaultSpec
from repro.sim.parallel import TRANSPORT_NAMES
from repro.sim.supervisor import Supervision
from repro.sim.transport import make_transport
from repro.sim.workloads import datacenter

GiB = 1024**3

SUPERVISION = Supervision(deadline=2.0, backoff_base=0.0)

#: Every split-brain shape on a deterministic schedule: a two-attempt
#: partition that must heal mid-run, a half-open link whose stale reply
#: the fence must reject, a duplicated reply whose second copy must be
#: discarded, and a single lost request.
HOT = NetChaosPlan(
    seed=0,
    specs=(
        NetFaultSpec("partition", at_epochs=frozenset({0}), link=0,
                     duration=2),
        NetFaultSpec("half_open", at_epochs=frozenset({1}), link=1),
        NetFaultSpec("duplicate", at_epochs=frozenset({1}), link=0),
        NetFaultSpec("drop", at_epochs=frozenset({2}), link=1),
    ),
)


def _fleet():
    return [
        NodeSpec(name="a0", sockets=1, cores_per_socket=1,
                 memory_bytes=4 * GiB),
        NodeSpec(name="a1", sockets=1, cores_per_socket=2,
                 memory_bytes=4 * GiB),
        NodeSpec(name="a2", sockets=1, cores_per_socket=1,
                 memory_bytes=2 * GiB),
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
        for i in range(rng.randint(2, 4)):
            name = f"s{segment}j{i}"
            job = datacenter.compute_job(
                name, rng.choice([0.9, 1.2]),
                duration_hint=rng.choice([2.0, 5.0, 9.0]),
            )
            grid.submit(name, job, queue=rng.choice(["quick", "slow"]),
                        memory_bytes=rng.choice([1, 2]) * GiB)
        grid.run_for(rng.choice([3.0, 4.5]))


def _serial_digest(seed: int) -> str:
    with Grid(_fleet(), _queues(), tick=1.0, seed=seed, workers=1,
              engine="serial") as grid:
        _churn(grid, seed)
        return grid.conformance_digest()


def _chaotic_run(seed: int, *, engine: str = "supervised",
                 transport: str | None = None, hosts: int | None = None,
                 plan: NetChaosPlan = HOT):
    with Grid(_fleet(), _queues(), tick=1.0, seed=seed, workers=2,
              engine=engine, transport=transport, hosts=hosts,
              net_chaos=plan,
              supervision=SUPERVISION if engine == "supervised"
              else None) as grid:
        _churn(grid, seed)
        return (grid.conformance_digest(), grid.engine.net_faults(),
                grid.engine.fenced_replies(),
                dict(getattr(grid.engine, "stats", {})))


# -- the split-brain oracle ---------------------------------------------------

@pytest.mark.parametrize("transport", TRANSPORT_NAMES)
def test_partitioned_supervised_matches_serial(transport):
    reference = _serial_digest(11)
    digest, faults, _fenced, stats = _chaotic_run(11, transport=transport)
    assert digest == reference, (
        f"transport {transport!r} diverged under partition chaos"
    )
    assert faults >= 1
    assert stats["failures"]["unreachable"] >= 1
    assert stats["restarts"] >= 1


def test_half_open_reply_is_fenced_not_double_applied():
    """The reason fencing exists: a half-open link applies the epoch but
    loses the reply; after the restart the stale reply surfaces and must
    be rejected by its incarnation fence — double-applying it would show
    up as a digest divergence."""
    reference = _serial_digest(11)
    digest, _faults, fenced, _stats = _chaotic_run(11, transport="fork")
    assert digest == reference
    assert fenced >= 1


def test_two_attempt_partition_heals_after_restarts():
    plan = NetChaosPlan(
        seed=0,
        specs=(NetFaultSpec("partition", at_epochs=frozenset({0}), link=0,
                            duration=2),),
    )
    reference = _serial_digest(7)
    digest, faults, _fenced, stats = _chaotic_run(7, plan=plan)
    assert digest == reference
    assert faults == 2  # both attempts inside the partition window
    assert stats["failures"]["unreachable"] == 2
    assert stats["restarts"] == 2  # then the link healed — no adopt
    assert stats["adopted_shards"] == 0
    assert not stats["degraded"]


def test_partition_outliving_the_ladder_is_adopted():
    """A partition longer than poison_limit models a link that never
    heals: the shard is adopted in-process and the run still finishes
    with the serial digest (degraded availability, undamaged truth)."""
    plan = NetChaosPlan(
        seed=0,
        specs=(NetFaultSpec("partition", at_epochs=frozenset({0}), link=0,
                            duration=99),),
    )
    reference = _serial_digest(7)
    digest, _faults, _fenced, stats = _chaotic_run(7, plan=plan)
    assert digest == reference
    assert stats["adopted_shards"] >= 1


def test_fleet_engine_survives_partition_chaos():
    reference = _serial_digest(23)
    digest, faults, _fenced, _stats = _chaotic_run(
        23, engine="fleet", hosts=2, plan=HOT
    )
    assert digest == reference
    assert faults >= 1


def test_seeded_schedule_replays_identically():
    """--net-chaos SEED must replay byte-identically: two runs of the
    same seeded plan agree on digest AND on every recovery counter."""
    plan = NetChaosPlan.from_seed(8, intensity=6.0)
    a = _chaotic_run(11, plan=plan)
    b = _chaotic_run(11, plan=plan)
    assert a == b


# -- satellite: teardown must not mask the original failure ------------------


def _entries():
    return [
        (NodeSpec(name="n0", sockets=1, cores_per_socket=1,
                  memory_bytes=4 * GiB), 11),
    ]


def test_fork_close_tolerates_dead_peer():
    """Kill the agent, observe the typed WorkerFailure, then close():
    teardown over the half-closed pipe must not raise — a secondary
    BrokenPipeError here would mask the failure the engine is already
    handling."""
    t = make_transport("fork", 0, _entries(), 0.5)
    t.spawn([], 0)
    assert t.recv(30.0) == ("ok", "ready")
    assert t.proc is not None
    t.proc.kill()
    t.proc.join()
    with pytest.raises(WorkerFailure):
        t.send(("advance", [], 1, 0.0))
        t.recv(5.0)
    t.close(grace=1.0)
