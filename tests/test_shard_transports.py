"""Transport-axis equivalence and the per-fabric contracts.

``tests/test_grid_parallel.py`` pins the engine axis (legacy / serial /
supervised bitwise-identical under churn); this file pins the
*transport* axis underneath the supervised engine: the inproc and fork
fabrics must be pure performance knobs too. Plus the per-fabric
contracts the engine relies on — snapshot batching (one message per
worker, not per node), typed ``kind="closed"`` on a send racing
teardown, typed crash/hang failures from a killed or stopped agent
process and a teardown ladder that reaps it (and a quiet close after
one died), typed ``kind="garbled"`` on a corrupt fork reply, a respawn
that never hears the reaped agent, and byte accounting (zero for
inproc, exact for fork).
"""

import multiprocessing
import os
import pickle
import random
import signal
import subprocess
import sys
import time

import pytest

from repro.errors import SimulationError, WorkerFailure
from repro.sim.grid import Grid, NodeSpec, QueueSpec
from repro.sim.parallel import TRANSPORT_NAMES
from repro.sim.supervisor import SupervisedShardedEngine
from repro.sim.transport import make_transport
from repro.sim.workloads import datacenter

GiB = 1024**3


def _job(seconds=60.0, ipc=1.2, name="job"):
    return datacenter.compute_job(name, ipc, duration_hint=seconds)


def _endless(name="svc"):
    return datacenter.compute_job(name, 1.2)


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
            if rng.random() < 0.3:
                grid.submit(name, _endless(name), queue="quick",
                            memory_bytes=GiB)
            else:
                grid.submit(
                    name,
                    _job(seconds=rng.choice([2.0, 5.0, 9.0]),
                         ipc=rng.choice([0.9, 1.2]), name=name),
                    queue=rng.choice(["quick", "slow"]),
                    memory_bytes=rng.choice([1, 2]) * GiB,
                )
        grid.run_for(rng.choice([3.0, 4.5]))


def _digest(seed: int, engine: str, workers: int, transport=None) -> str:
    with Grid(_fleet(), _queues(), tick=1.0, seed=seed, workers=workers,
              engine=engine, transport=transport) as grid:
        _churn(grid, seed)
        return grid.conformance_digest()


def _entries():
    return [
        (NodeSpec(name="n0", sockets=1, cores_per_socket=1,
                  memory_bytes=4 * GiB), 11),
        (NodeSpec(name="n1", sockets=1, cores_per_socket=1,
                  memory_bytes=4 * GiB), 12),
    ]


@pytest.fixture
def transport(request):
    t = make_transport(request.param, 0, _entries(), 0.5)
    t.spawn([], 0)
    assert t.recv(30.0) == ("ok", "ready")
    yield t
    t.close(grace=2.0)


def _params():
    return pytest.mark.parametrize("transport", TRANSPORT_NAMES,
                                   indirect=True)


class TestChurnEquivalence:
    """The 24-seed sweep: every transport bitwise-matches serial."""

    @pytest.mark.parametrize("seed", range(24))
    def test_transports_bitwise_identical_under_churn(self, seed):
        reference = _digest(seed, "serial", 1)
        for name in TRANSPORT_NAMES:
            digest = _digest(seed, "supervised", 2, transport=name)
            assert digest == reference, (
                f"transport {name!r} diverged from serial at seed {seed}"
            )


class TestSnapshotBatching:
    @pytest.mark.parametrize("name", TRANSPORT_NAMES)
    def test_snapshot_many_is_one_message_per_worker(self, name):
        engine = SupervisedShardedEngine(_fleet(), tick=1.0, seed=3,
                                         workers=2, transport=name)
        try:
            before = engine.messages
            snaps = engine.snapshot_many([s.name for s in _fleet()])
            # 3 nodes across 2 workers: 2 sends, never 3.
            assert engine.messages - before == 2
            assert set(snaps) == {"a0", "a1", "a2"}
        finally:
            engine.close()

    @pytest.mark.parametrize("name", TRANSPORT_NAMES)
    def test_single_snapshot_still_works(self, name):
        engine = SupervisedShardedEngine(_fleet(), tick=1.0, seed=3,
                                         workers=2, transport=name)
        try:
            snap = engine.snapshot_many(["a1"])["a1"]
            assert {"counters", "procs", "now"} <= set(snap)
            with pytest.raises(SimulationError, match="no node"):
                engine.snapshot_many(["nope"])
        finally:
            engine.close()


@_params()
class TestClosedRace:
    def test_send_after_close_is_typed_closed(self, transport):
        transport.close(grace=2.0)
        with pytest.raises(WorkerFailure) as info:
            transport.send(("snapshot", ["n0"]))
        assert info.value.kind == "closed"

    def test_recv_after_close_is_typed_closed(self, transport):
        transport.close(grace=2.0)
        with pytest.raises(WorkerFailure) as info:
            transport.recv(1.0)
        assert info.value.kind == "closed"

    def test_send_between_request_and_finish_is_typed_closed(self, transport):
        # The teardown race the engines guard against: close has been
        # *requested* (peer may already be gone) but resources are not
        # yet released. A straggling send must be typed, not a raw
        # BrokenPipeError.
        transport.request_close()
        with pytest.raises(WorkerFailure) as info:
            transport.send(("advance", [], 1, 0.0))
        assert info.value.kind == "closed"
        transport.finish_close(grace=2.0)


@_params()
class TestRespawn:
    def test_respawn_never_delivers_the_replaced_agents_reply(
        self, transport
    ):
        """A reaped agent's unread reply dies with it: the respawned
        agent replays the epoch, and the next reply answers the resent
        request on the replayed shard, not the one sent before the
        reap. This is why replies need no incarnation fence."""
        epoch = ([], 1, 0.0)
        transport.send(("advance", *epoch))
        conn = getattr(transport, "conn", None)
        if conn is not None:
            assert conn.poll(30.0)  # the stale reply sits in the pipe
        transport.reap()
        transport.spawn([epoch], 1)
        assert transport.recv(30.0) == ("ok", "ready")
        transport.send(("advance", *epoch))
        tag, report = transport.recv(30.0)
        assert tag == "ok"
        assert set(report["start_now"].values()) == {0.5}
        assert set(report["end_now"].values()) == {1.0}


@pytest.mark.parametrize("name", ["fork"])
class TestAgentFailures:
    """A dead or wedged agent process fails its round-trip with a typed
    WorkerFailure under the deadline — never a raw EOFError and never an
    unbounded block — and close() always reaches a SIGKILL for an agent
    that ignores everything else."""

    def _ready(self, name):
        t = make_transport(name, 1, _entries(), 0.5)
        t.spawn([], 0)
        assert t.recv(30.0) == ("ok", "ready")
        return t

    def test_killed_agent_surfaces_typed_crash(self, name):
        t = self._ready(name)
        try:
            os.kill(t.proc.pid, signal.SIGKILL)
            t.proc.join(timeout=5.0)
            with pytest.raises(WorkerFailure) as info:
                t.send(("advance", [], 1, 0.0))
                t.recv(5.0)
            assert info.value.kind == "crash"
            assert info.value.worker == 1
            assert info.value.exitcode == -signal.SIGKILL
        finally:
            t.close(grace=2.0)
        _assert_no_children()

    def test_stopped_agent_surfaces_typed_hang(self, name):
        t = self._ready(name)
        try:
            pid = t.proc.pid
            os.kill(pid, signal.SIGSTOP)
            try:
                t.send(("advance", [], 1, 0.0))
                with pytest.raises(WorkerFailure) as info:
                    t.recv(0.3)
                assert info.value.kind == "hang"
                assert info.value.worker == 1
            finally:
                os.kill(pid, signal.SIGCONT)
        finally:
            t.close(grace=2.0)
        _assert_no_children()

    def test_close_kill_ladder_reaps_a_stopped_agent(self, name):
        # A stopped process never reads the close message and SIGTERM
        # stays pending while it is stopped, so close() must walk all the
        # way down to SIGKILL (grace + 1 s of joins, by design).
        t = self._ready(name)
        proc = t.proc
        os.kill(proc.pid, signal.SIGSTOP)
        t.close(grace=0.5)
        assert not proc.is_alive()
        _assert_no_children()


def _assert_no_children():
    # active_children() joins exited processes as a side effect; a short
    # grace window absorbs the OS reaping a freshly-SIGKILLed child.
    for _ in range(50):
        if not multiprocessing.active_children():
            return
        time.sleep(0.02)
    assert multiprocessing.active_children() == []


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


class TestGarbledReply:
    """A fork reply that does not unpickle, or is not a 2-tuple, fails
    its round-trip as ``kind="garbled"``. Chaos "garble" sends a
    well-formed tuple that the supervisor's report check catches, so
    these bytes come straight down a pipe the test holds the far end of.
    """

    @pytest.mark.parametrize(
        "blob",
        [
            b"\x00 not a pickle",
            pickle.dumps(("ok",)),
            pickle.dumps(("ok", "ready", 0, 0)),
        ],
        ids=["unpicklable", "one-tuple", "four-tuple"],
    )
    def test_corrupt_reply_is_typed_garbled(self, blob):
        t = make_transport("fork", 2, _entries(), 0.5)
        parent, child = multiprocessing.Pipe()
        t.conn = parent
        try:
            child.send_bytes(blob)
            with pytest.raises(WorkerFailure) as info:
                t.recv(1.0)
            assert info.value.kind == "garbled"
            assert info.value.worker == 2
            assert t.bytes_received == len(blob)
        finally:
            child.close()
            t.close(grace=0.0)


class TestBytesAccounting:
    def _advance_epochs(self, engine, n=3):
        for _ in range(n):
            engine.advance([], 2, 0.0)

    def test_inproc_moves_zero_bytes(self):
        engine = SupervisedShardedEngine(_fleet(), tick=1.0, seed=5,
                                         workers=2, transport="inproc")
        try:
            self._advance_epochs(engine)
            engine.snapshot_many(["a0", "a1", "a2"])
            assert engine.bytes_sent == 0
            assert engine.bytes_received == 0
            assert engine.messages > 0
        finally:
            engine.close()

    @pytest.mark.parametrize("name", ["fork"])
    def test_process_fabrics_account_every_message(self, name):
        engine = SupervisedShardedEngine(_fleet(), tick=1.0, seed=5,
                                         workers=2, transport=name)
        try:
            self._advance_epochs(engine)
            sent_after_advance = engine.bytes_sent
            assert sent_after_advance > 0
            assert engine.bytes_received > 0
            engine.snapshot_many(["a0", "a1", "a2"])
            assert engine.bytes_sent > sent_after_advance
        finally:
            engine.close()


class TestFactory:
    def test_unknown_transport_is_rejected(self):
        with pytest.raises(SimulationError, match="unknown shard transport"):
            make_transport("carrier-pigeon", 0, _entries(), 0.5)

    def test_engine_rejects_unknown_transport(self):
        with pytest.raises(SimulationError, match="unknown shard transport"):
            SupervisedShardedEngine(_fleet(), tick=1.0, seed=0, workers=2,
                                    transport="bogus")

    def test_grid_rejects_unknown_transport(self):
        with pytest.raises(SimulationError, match="unknown shard transport"):
            Grid(_fleet(), _queues(), tick=1.0, seed=0, workers=2,
                 transport="bogus")


class TestLayering:
    def test_grid_stack_loads_no_serve_module(self):
        """The shard fabrics share no code with the serve wire: importing
        the whole grid stack leaves every ``repro.serve`` module unloaded."""
        code = (
            "import sys\n"
            "import repro.sim.grid, repro.sim.supervisor\n"
            "import repro.sim.transport\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[:2] == ['repro', 'serve']))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=120, check=True,
        )
        assert result.stdout.strip() == "[]"
