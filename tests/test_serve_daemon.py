"""End-to-end daemon tests: handshake, equivalence, resume, CLI wiring.

pytest-asyncio is not available in this environment, so every async
scenario runs inside an explicit ``asyncio.run``. All daemon tests bind
to an ephemeral loopback port; the simulated node's virtual clock makes
the streams deterministic regardless of real scheduling.
"""

from __future__ import annotations

import asyncio
import gc
import json
import re
import subprocess
import sys
import weakref

import pytest

from repro.core.app import SimHost
from repro.core.cli import main as cli_main
from repro.core.frame import SnapshotFrame
from repro.core.options import Options
from repro.core.sampler import Sampler
from repro.core.screen import get_screen
from repro.errors import SessionError
from repro.serve.client import ServeClient, collect
from repro.serve.daemon import CollectorDaemon
from repro.serve.protocol import frame_digest
from repro.serve.session import Subscription, subscription_view
from repro.sim.workloads import datacenter

_DELAY = 0.5
_SEED = 7


def _make_daemon(iterations: int = 3, *, min_clients: int = 1, **kwargs):
    machine = datacenter.make_node(tick=min(0.5, _DELAY / 4), seed=_SEED)
    datacenter.populate_fig1(machine)
    host = SimHost(machine)
    sampler = Sampler(
        host.backend, host.tasks, get_screen("default"), Options(delay=_DELAY)
    )
    return CollectorDaemon(
        sampler,
        advance=lambda: host.sleep(_DELAY),
        iterations=iterations,
        min_clients=min_clients,
        **kwargs,
    )


def _solo_frames(iterations: int = 3) -> list[SnapshotFrame]:
    machine = datacenter.make_node(tick=min(0.5, _DELAY / 4), seed=_SEED)
    datacenter.populate_fig1(machine)
    host = SimHost(machine)
    sampler = Sampler(
        host.backend, host.tasks, get_screen("default"), Options(delay=_DELAY)
    )
    frames = []
    sampler.sample_frame()  # baseline, never published by the daemon either
    for _ in range(iterations):
        host.sleep(_DELAY)
        frames.append(sampler.sample_frame())
    sampler.close()
    return frames


# -- bitwise equivalence over the wire ----------------------------------------

def test_served_stream_bitwise_equal_to_solo():
    """Three concurrent subscriptions, each bitwise-equal to the solo
    pipeline's view — the daemon adds transport, not meaning."""
    subs = {
        "total": Subscription(),
        "filtered": Subscription(comms=frozenset({"process1"})),
        "derived": Subscription(
            exprs=(("GIPS", "instructions / delta_t / 1e9"),)
        ),
    }

    async def go():
        daemon = _make_daemon(iterations=3, min_clients=len(subs))
        port = await daemon.start()
        results, _ = await asyncio.gather(
            asyncio.gather(
                *(
                    collect("127.0.0.1", port, client_id=name, subscription=sub)
                    for name, sub in subs.items()
                )
            ),
            daemon.run(),
        )
        await daemon.close()
        return results

    results = asyncio.run(go())
    solo = _solo_frames(iterations=3)
    for (name, sub), (received, client) in zip(subs.items(), results):
        assert [seq for seq, _ in received] == [0, 1, 2], name
        expect = [frame_digest(subscription_view(f, sub)) for f in solo]
        got = [frame_digest(f) for _, f in received]
        assert got == expect, f"{name}: served stream diverged from solo"
        stats = client.bye["stats"]
        assert stats["published"] == (
            stats["delivered"] + stats["dropped"] + stats["lag"]
        )
        assert client.gaps == 0

    # The derived column really carries data (not a silent NaN column).
    derived_frames = results[2][0]
    import numpy as np

    gips = derived_frames[-1][1].metrics["GIPS"]
    assert np.isfinite(gips).any() and (gips[np.isfinite(gips)] > 0).all()


def test_hello_describes_the_screen():
    async def go():
        daemon = _make_daemon(iterations=1)
        port = await daemon.start()
        client = ServeClient("127.0.0.1", port, client_id="peek")
        hello_task = asyncio.ensure_future(client.connect())
        run_task = asyncio.ensure_future(daemon.run())
        hello = await hello_task
        async for _ in client.frames():
            pass
        await run_task
        await client.close()
        await daemon.close()
        return hello

    hello = asyncio.run(go())
    assert hello["screen"] == "default"
    assert "instructions" in hello["events"] or any(
        "instr" in e for e in hello["events"]
    )
    headers = [header for header, _kind in hello["columns"]]
    assert "PID" in headers and "COMMAND" in headers


# -- satellite 4: the columnar codec is the hot path --------------------------

def test_serve_never_touches_row_codecs():
    """The serve path moves the sampler's frame columns end to end: real
    uids survive the wire, where any per-row detour that rebuilt frames
    from rows would have lost them (rows carry no uid)."""

    async def go():
        daemon = _make_daemon(iterations=2)
        port = await daemon.start()
        (received, _client), _ = await asyncio.gather(
            collect("127.0.0.1", port, client_id="colcheck"),
            daemon.run(),
        )
        await daemon.close()
        return received

    received = asyncio.run(go())
    assert len(received) == 2
    for _seq, frame in received:
        assert len(frame) > 0
        # Real uids survive the wire, none unknown (-1).
        assert (frame.uids >= 0).all()
        assert any(user != "?" for user in frame.users)


# -- resume and late joiners --------------------------------------------------

def test_late_subscriber_resumes_retained_frames():
    """A client that connects after the run finished still gets the
    retained backlog (from seq 0) and a clean BYE."""

    async def go():
        daemon = _make_daemon(iterations=3, min_clients=1)
        port = await daemon.start()
        _, _ = await asyncio.gather(
            collect("127.0.0.1", port, client_id="live"),
            daemon.run(),
        )
        # Run is over; daemon still accepting until close().
        late, client = await collect(
            "127.0.0.1", port, client_id="latecomer", resume_from=-1
        )
        await daemon.close()
        return late, client

    late, client = asyncio.run(go())
    assert [seq for seq, _ in late] == [0, 1, 2]
    assert client.bye is not None and "stats" in client.bye
    solo = _solo_frames(iterations=3)
    assert [frame_digest(f) for _, f in late] == [
        frame_digest(f) for f in solo
    ]


def test_bad_subscription_expr_rejected_with_bye_error():
    async def go():
        daemon = _make_daemon(iterations=1)
        port = await daemon.start()
        run_task = asyncio.ensure_future(daemon.run())
        bad = Subscription(exprs=(("OOPS", "cycles +* 1"),))
        client = ServeClient(
            "127.0.0.1", port, client_id="bad", subscription=bad
        )
        await client.connect()
        error = None
        try:
            async for _ in client.frames():
                pass
        except SessionError as exc:
            error = str(exc)
        await client.close()
        # Unblock the run (it waits for min_clients=1 real subscriber).
        _, _ = await asyncio.gather(
            collect("127.0.0.1", port, client_id="good"),
            run_task,
        )
        await daemon.close()
        return error

    error = asyncio.run(go())
    assert error is not None and "OOPS" in error


def test_duplicate_client_id_second_connection_rejected():
    async def go():
        daemon = _make_daemon(iterations=1, min_clients=2)
        port = await daemon.start()
        first = ServeClient("127.0.0.1", port, client_id="twin")
        await first.connect()
        second = ServeClient("127.0.0.1", port, client_id="twin")
        await second.connect()
        error = None
        try:
            async for _ in second.frames():
                pass
        except SessionError as exc:
            error = str(exc)
        await second.close()
        # Let the run complete: the surviving twin plus one more.
        _, _, _ = await asyncio.gather(
            _drain(first),
            collect("127.0.0.1", port, client_id="other"),
            daemon.run(),
        )
        await first.close()
        await daemon.close()
        return error

    async def _drain(client):
        async for _ in client.frames():
            pass

    error = asyncio.run(go())
    assert error is not None and "already subscribed" in error


def test_closed_daemon_dies_without_the_cycle_collector():
    """Once ``close`` returns, nothing keeps the daemon alive: reference
    counting alone frees it, its sampler and its machine."""

    async def go(daemon):
        await daemon.start()
        await daemon.run()
        await daemon.close()

    gc.collect()
    gc.disable()
    try:
        daemon = _make_daemon(iterations=2, min_clients=0)
        machine = weakref.ref(daemon.sampler.tasks.machine)
        asyncio.run(go(daemon))
        del daemon
        assert machine() is None
    finally:
        gc.enable()


# -- CLI wiring ---------------------------------------------------------------

def test_cli_serve_requires_sim(capsys):
    assert cli_main(["--serve", "0"]) == 2
    assert "--sim" in capsys.readouterr().err


def test_cli_serve_connect_mutually_exclusive(capsys):
    assert cli_main(["--sim", "--serve", "0", "--connect", "x:1"]) == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_cli_bad_connect_address(capsys):
    assert cli_main(["--connect", "no-port-here"]) == 1
    assert "connect" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["--sim", "--grid-workers", "2", "--chaos", "1"],
        ["--sim", "--connect", "127.0.0.1:1", "--chaos", "1"],
    ],
    ids=["grid-workers", "connect"],
)
def test_cli_chaos_needs_a_monitored_kernel(capsys, argv):
    """Neither the grid nor a viewer has a kernel of its own to fault:
    --chaos there is a flag conflict, not a silent no-op."""
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("tiptop: --chaos")


def _serve_and_connect(server_args, viewer_args, header):
    """A daemon subprocess on an ephemeral port, a connect subprocess
    rendering its frames to stdout."""
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro.core.cli",
            "--sim", "--serve", "0", "-d", "0.4", "-n", "2", *server_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        line = server.stdout.readline()
        match = re.search(r"serving on 127\.0\.0\.1:(\d+)", line)
        assert match, f"no port line: {line!r}"
        port = match.group(1)
        viewer = subprocess.run(
            [
                sys.executable, "-m", "repro.core.cli",
                "--connect", f"127.0.0.1:{port}", "-n", "2", *viewer_args,
            ],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert viewer.returncode == 0, viewer.stderr
        # Two rendered batches, real process names from the sim node.
        assert viewer.stdout.count("PID") == 2
        assert "process1" in viewer.stdout
        assert header in viewer.stdout
        assert server.wait(timeout=60) == 0
    finally:
        server.kill()


def test_cli_serve_and_connect_subprocess():
    """The real thing, on the default screen."""
    _serve_and_connect([], [], "DMIS")


def test_cli_serve_and_connect_screen_file(tmp_path):
    """The daemon serves a ``-W`` screen and names it in HELLO; the
    viewer resolves that name through its own ``-W``."""
    path = tmp_path / "screens.json"
    path.write_text(json.dumps({"name": "hpc", "columns": ["FPC", "LPC"]}))
    _serve_and_connect(["-W", str(path), "-S", "hpc"], ["-W", str(path)], "FPC")


def test_cli_serve_and_connect_chaos():
    """--chaos on the daemon faults its kernel, and the viewer shows the
    HEALTH column the daemon's layout names."""
    _serve_and_connect(["--chaos", "7"], [], "HEALTH")
