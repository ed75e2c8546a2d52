"""Command-line entry point: the ``tiptop`` command.

Mirrors the original tool's interface (``-b`` batch, ``-d`` delay, ``-n``
iterations, screen selection) with one addition forced by this
reproduction's environment: ``--sim`` runs against a demo simulated node,
because the container's kernel exposes no PMU. On real hardware the same
command monitors live processes through ``perf_event_open``.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.core.app import RealHost, SimHost, TipTop
from repro.core.columns import ColumnKind
from repro.core.config_file import load_screens
from repro.core.options import Options
from repro.core.screen import Screen, get_screen, screens
from repro.errors import ConfigError, PerfNotSupportedError, ReproError
from repro.sim.workloads import datacenter


def build_parser() -> argparse.ArgumentParser:
    """The tiptop argument parser."""
    parser = argparse.ArgumentParser(
        prog="tiptop",
        description="Hardware performance counters for the masses "
        "(reproduction of Rohou, ICPP 2012)",
    )
    parser.add_argument("-b", "--batch", action="store_true",
                        help="batch mode: stream text (like top -b)")
    parser.add_argument("-d", "--delay", type=float, default=2.0,
                        help="refresh delay in seconds (default 2)")
    parser.add_argument("-n", "--iterations", type=int, default=10,
                        help="number of refreshes (default 10)")
    parser.add_argument("-H", "--threads", action="store_true",
                        help="count per thread instead of per process")
    parser.add_argument("-u", "--uid", type=int, default=None,
                        help="only watch processes of this uid")
    parser.add_argument("-p", "--pid", type=int, action="append", default=[],
                        help="only watch this pid (repeatable)")
    parser.add_argument("-S", "--screen", default="default",
                        help="screen name (see --list-screens)")
    parser.add_argument("-W", "--screen-file", default=None,
                        help="JSON file with user-defined screens "
                             "(tiptop's XML config equivalent)")
    parser.add_argument("--list-screens", action="store_true",
                        help="list the screens (built-in and -W) and exit")
    parser.add_argument("--sim", action="store_true",
                        help="monitor a demo simulated node instead of the "
                             "real kernel (required where no PMU exists)")
    parser.add_argument("--profile", action="store_true",
                        help="print per-refresh wall-time breakdown "
                             "(advance/read/eval/render) to stderr")
    parser.add_argument("--grid-workers", type=int, default=None, metavar="N",
                        help="simulate the whole SGE datacenter grid "
                             "instead of one node, sharding the fleet over "
                             "N worker processes (1 = in-process serial "
                             "engine; results are identical at any N; "
                             "requires --sim)")
    parser.add_argument("--grid-chaos", type=int, default=None, metavar="SEED",
                        help="inject a seeded schedule of grid-worker faults "
                             "(crashes, hangs, garbled replies) under the "
                             "supervised engine; the same seed replays the "
                             "same failures and recoveries byte-for-byte "
                             "(requires --sim and --grid-workers)")
    parser.add_argument("--chaos", type=int, default=None, metavar="SEED",
                        help="inject a seeded schedule of kernel faults "
                             "(ESRCH/EMFILE/EINTR/EAGAIN, corrupt reads, "
                             "multiplex starvation) and show a HEALTH "
                             "column; the same seed replays the same "
                             "failures byte-for-byte (requires --sim; "
                             "not with --grid-workers or --connect)")
    parser.add_argument("--serve", type=int, default=None, metavar="PORT",
                        help="run as a collector daemon on this TCP port "
                             "(0 = ephemeral): one sampler, any number of "
                             "--connect viewers; sampling cost is O(1) in "
                             "client count (requires --sim)")
    parser.add_argument("--connect", default=None, metavar="HOST:PORT",
                        help="subscribe to a collector daemon instead of "
                             "sampling locally; frames arrive bitwise-"
                             "identical and drive the normal screen")
    parser.add_argument("--replay", default=None, metavar="FILE",
                        help="re-execute a conformance repro artifact "
                             "(verify/repro-<hash>.json) through the "
                             "oracle registry and exit (see "
                             "python -m repro.verify)")
    return parser


def _check_ranges(args: argparse.Namespace) -> None:
    """Reject out-of-range grid, serve and connect values.

    Raises:
        ConfigError: a worker count below 1, a port outside
            0..65535, or a connect address that is not ``host:port``.
    """
    if args.grid_workers is not None and args.grid_workers < 1:
        raise ConfigError(f"grid_workers must be >= 1, got {args.grid_workers}")
    if args.serve is not None and not 0 <= args.serve <= 65535:
        raise ConfigError(f"serve_port must be 0..65535, got {args.serve}")
    if args.connect is not None:
        host, _, port = args.connect.rpartition(":")
        if not host or not port.isdigit() or not 0 < int(port) <= 65535:
            raise ConfigError(
                f"connect must be 'host:port', got {args.connect!r}"
            )


def _run_grid(args: argparse.Namespace) -> int:
    """The --grid-workers path: drive the §3.4 SGE grid for the requested
    span and print a dispatch summary (engine timings go to stderr with
    --profile). Results are identical at any worker count."""
    from repro.sim.grid import Grid

    span = args.delay * args.iterations
    supervision = None
    if args.grid_chaos is not None:
        from repro.sim.supervisor import Supervision

        # Chaos runs recover many times; a tight deadline and no backoff
        # sleep keep the run fast while staying byte-identical.
        supervision = Supervision(deadline=2.0, backoff_base=0.0)
    with Grid(
        tick=1.0,
        seed=1,
        workers=args.grid_workers,
        profile=args.profile,
        grid_chaos=args.grid_chaos,
        supervision=supervision,
    ) as grid:
        jobs = datacenter.populate_grid(grid)
        grid.run_for(span)
        print(
            f"grid: {len(grid.specs)} nodes, engine={grid.engine.name} "
            f"workers={grid.engine.workers}, ran {span:g}s "
            f"in {grid.stats['epochs']} epochs"
        )
        for job in jobs:
            when = (
                f"finished={job.finished_at:g}" if job.finished_at is not None
                else f"state={job.state}"
            )
            print(
                f"  job {job.job_id:3d} {job.name:12s} "
                f"queue={job.queue:20s} node={job.node or '-':10s} {when}"
            )
        print("utilisation:")
        for node, load in sorted(grid.utilisation().items()):
            print(f"  {node:10s} {load:6.1%}")
        if args.grid_chaos is not None:
            stats = grid.stats
            print(
                f"supervisor: failures={stats['worker_failures']} "
                f"restarts={stats['restarts']} "
                f"replayed={stats['replayed_epochs']} "
                f"adopted={stats['adopted_shards']} "
                f"degraded={'yes' if stats['degraded'] else 'no'}"
            )
            for event in grid.supervisor_events:
                fields = " ".join(
                    f"{k}={event[k]}" for k in sorted(event) if k != "event"
                )
                print(f"  {event['event']:8s} {fields}")
        if args.profile:
            stats = grid.stats
            print(
                f"grid-profile: total epochs={stats['epochs']} "
                f"ticks={stats['ticks']} msgs={stats['messages']} "
                f"shard_wall={stats['shard_wall'] * 1000:.1f}ms "
                f"rate_cache={stats['rate_cache_hits']}"
                f"/{stats['rate_cache_misses']}",
                file=sys.stderr,
            )
    return 0


def _demo_host(args: argparse.Namespace) -> SimHost:
    """The demo simulated node that ``--sim`` monitors and serves."""
    machine = datacenter.make_node(tick=min(0.5, args.delay / 4))
    datacenter.populate_fig1(machine)
    return SimHost(machine)


def _run_serve(args: argparse.Namespace, options: Options, screen) -> int:
    """The --serve path: collector daemon over the demo simulated node.

    Binds, prints the bound address (flushed, so scripts can scrape an
    ephemeral port), waits for the first subscriber, then publishes
    ``--iterations`` refreshes and says BYE to everyone. The sampler is
    the one a local run builds, ``--chaos`` fault plan and HEALTH column
    included.
    """
    import asyncio

    from repro.serve.daemon import CollectorDaemon

    app = TipTop(_demo_host(args), options, screen)
    daemon = CollectorDaemon(
        app.sampler,
        advance=lambda: app.host.sleep(args.delay),
        iterations=args.iterations,
        min_clients=1,
        profile=(
            (lambda line: print(line, file=sys.stderr))
            if args.profile
            else None
        ),
    )

    async def go() -> None:
        port = await daemon.start(port=args.serve)
        print(f"tiptop: serving on 127.0.0.1:{port}", flush=True)
        await daemon.run()
        await daemon.close()

    asyncio.run(go())
    return 0


def _run_connect(args: argparse.Namespace, extra: list[Screen]) -> int:
    """The --connect path: the viewer side of the collector split.

    Served frames are bitwise-identical to local sampling, so they feed
    the ordinary batch renderer (and the server names its screen in
    HELLO, so columns always match what the daemon counts). A screen the
    daemon loaded from a file resolves through the viewer's own ``-W``,
    and a HEALTH column in the daemon's layout (``--chaos``) is shown.
    """
    import asyncio

    from repro.core import formatter
    from repro.core.sampler import Snapshot
    from repro.serve.client import ServeClient

    host_name, _, port_text = args.connect.rpartition(":")

    async def go() -> int:
        client = ServeClient(host_name, int(port_text), client_id="tiptop")
        hello = await client.connect()
        screen = get_screen(hello.get("screen", "default"), extra)
        kinds = {kind for _, kind in hello.get("columns", ())}
        if ColumnKind.HEALTH.value in kinds:
            screen = screen.with_health()
        shown = 0
        try:
            async for _seq, frame in client.frames():
                block = formatter.render_batch(screen, Snapshot(frame))
                sys.stdout.write(block + "\n")
                shown += 1
                if args.iterations is not None and shown >= args.iterations:
                    await client.leave()
        finally:
            await client.close()
        if args.profile and client.bye and "stats" in client.bye:
            print(f"tiptop: serve stats {client.bye['stats']}", file=sys.stderr)
        return 0

    return asyncio.run(go())


def main(argv: list[str] | None = None) -> int:
    """Entry point. Returns a process exit code."""
    try:
        status = _main(argv)
        # Flush inside the guard: output still buffered for a reader that
        # has gone away fails here, not at interpreter exit.
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (``tiptop -b | head -1``). Batch mode
        # exists to feed pipelines, so stop quietly with Python's own EPIPE
        # status; /dev/null takes over stdout so the exit flush cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


def _main(argv: list[str] | None) -> int:
    args = build_parser().parse_args(argv)
    try:
        extra = load_screens(args.screen_file) if args.screen_file else []
    except ConfigError as exc:
        print(f"tiptop: {exc}", file=sys.stderr)
        return 1
    if args.list_screens:
        for screen in screens(extra):
            print(f"{screen.name:10s} {screen.description}")
        return 0
    if args.replay is not None:
        from repro.verify.cli import main as verify_main

        return verify_main(["--replay", args.replay])
    if args.chaos is not None and (
        not args.sim
        or args.grid_workers is not None
        or args.connect is not None
    ):
        print(
            "tiptop: --chaos injects faults into the simulated node's "
            "kernel and requires --sim, without --grid-workers or --connect",
            file=sys.stderr,
        )
        return 2
    if args.grid_workers is not None and not args.sim:
        print(
            "tiptop: --grid-workers runs the simulated datacenter grid "
            "and requires --sim",
            file=sys.stderr,
        )
        return 2
    if args.serve is not None and not args.sim:
        print(
            "tiptop: --serve runs the collector daemon over the simulated "
            "node and requires --sim",
            file=sys.stderr,
        )
        return 2
    if args.serve is not None and args.connect is not None:
        print(
            "tiptop: --serve and --connect are mutually exclusive",
            file=sys.stderr,
        )
        return 2
    if args.grid_chaos is not None and (
        not args.sim or args.grid_workers is None
    ):
        print(
            "tiptop: --grid-chaos injects worker faults into the "
            "simulated grid and requires --sim and --grid-workers",
            file=sys.stderr,
        )
        return 2
    try:
        options = Options(
            delay=args.delay,
            batch=args.batch,
            iterations=args.iterations,
            per_thread=args.threads,
            watch_uid=args.uid,
            watch_pids=frozenset(args.pid),
            screen=args.screen,
            profile=args.profile,
            chaos=args.chaos,
        )
        _check_ranges(args)  # after Options: a bad -d or -n is reported first
        if args.grid_workers is not None:
            return _run_grid(args)
        if args.connect is not None:
            return _run_connect(args, extra)
        screen = get_screen(args.screen, extra)
        if args.serve is not None:
            return _run_serve(args, options, screen)
        host = _demo_host(args) if args.sim else RealHost()
        with TipTop(host, options, screen) as app:
            if args.batch:
                app.run_batch(args.iterations)
            else:
                app.run_live(args.iterations)
    except PerfNotSupportedError as exc:
        print(f"tiptop: {exc}", file=sys.stderr)
        print("tiptop: hint: re-run with --sim", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"tiptop: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
