"""The benchmark's four workloads and the refresh loop each one drives.

Every workload is run in *rounds*. A round builds its inputs from the
seed (timed as set-up), runs a fixed number of refreshes (timed), and
ends with a digest of everything the program output, so every round of
one seed must produce the same digest whether or not it was traced.

* ``node-monitor``: the tool's own path on a busy node (perf read,
  procfs, process list, frame build, expr, sort, render).
* ``node-multiplex``: the simulator's path, with counters multiplexed.
* ``serve-fanout``: frames leaving through the wire codec instead of the
  text renderer.
* ``grid-fleet``: the sharded grid path, with no monitor layer at all.

A *refresh* is one turn of the user-visible loop, timed from the end of
the simulated advance until output is ready; the advance is timed on its
own. Nothing here changes the code under ``src/``: the per-layer spans
wrap its public callables from outside (see :mod:`spans`).
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter, process_time

import numpy as np

from repro.core import formatter
from repro.core.app import SimHost, TipTop
from repro.core.expr import Expression
from repro.core.options import Options
from repro.core.proclist import ProcessList
from repro.core.sampler import Sampler
from repro.core.screen import get_screen
from repro.errors import ReproError
from repro.perf.counter import CounterGroup
from repro.perf.simbackend import SimBackend
from repro.procfs.simproc import SimProcReader
from repro.serve import session as serve_session
from repro.serve import stream as serve_stream
from repro.serve.client import ServeClient
from repro.serve.daemon import CollectorDaemon
from repro.serve.protocol import frame_digest
from repro.serve.session import FanoutHub, Subscription, subscription_view
from repro.sim.arch import CORE2, NEHALEM
from repro.sim.grid import Grid, NodeSpec
from repro.sim.machine import SimMachine
from repro.sim.supervisor import SupervisedShardedEngine
from repro.sim.transport import ShardTransport
from repro.sim.workloads import datacenter, synthetic

from spans import Tracer

#: ``Options.max_tasks`` defaults to 512 and silently caps the frame;
#: every node workload must track all of its tasks.
MAX_TASKS = 4096

#: End-to-end metrics and their units (the order of ``BENCHMARK.json``).
END_TO_END = {
    "setup_s": "s",
    "refresh_p50_ms": "ms",
    "refresh_p95_ms": "ms",
    "tool_cpu_pct_1hz": "%",
    "sim_task_ticks_per_s": "1/s",
    "sim_s_per_s": "s/s",
    "deliver_p50_ms": "ms",
    "deliver_p95_ms": "ms",
    "grid_node_s_per_s": "s/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics and their units. A layer a workload bypasses reads 0.
PER_LAYER = {
    "sim.advance_ms": "ms",
    "sim.ms_per_tick": "ms",
    "sim.kernel_fast_slices": "count",
    "sim.kernel_fallback_slices": "count",
    "perf.read_ms": "ms",
    "perf.read_us_per_task": "us",
    "perf.opens": "count",
    "perf.closes": "count",
    "procfs.process_ms": "ms",
    "procfs.list_ms": "ms",
    "proclist.refresh_ms": "ms",
    "proclist.attaches": "count",
    "proclist.detaches": "count",
    "sampler.self_ms": "ms",
    "expr.eval_ms": "ms",
    "render.ms": "ms",
    "serve.view_ms": "ms",
    "serve.encode_ms": "ms",
    "serve.encode_bytes": "bytes",
    "serve.encode_hit_ratio": "ratio",
    "serve.publish_ms": "ms",
    "serve.decode_ms": "ms",
    "serve.io_ms": "ms",
    "serve.lag_max": "count",
    "grid.dispatch_ms": "ms",
    "grid.advance_p50_ms": "ms",
    "grid.advance_p95_ms": "ms",
    "grid.shard_wall_ms": "ms",
    "grid.view_ms": "ms",
    "grid.messages_per_epoch": "count",
    "grid.rate_cache_hit_ratio": "ratio",
    "grid.tail_ticks_ratio": "ratio",
    "grid.tail_shard_pct": "%",
    "transport.send_ms": "ms",
    "transport.recv_ms": "ms",
    "transport.bytes_per_epoch": "bytes",
    "trace.coverage_pct": "%",
    "trace.overhead_pct": "%",
}


#: Seconds :func:`host_slowdown`'s probe takes on an uncontended host —
#: measured on the 2-vCPU container the benchmark was tuned on. It only
#: sets the scale: both sides of a comparison divide by the same value.
PROBE_REFERENCE_S = 84e-6


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def _probe() -> int:
    """Fixed interpreter work: arithmetic, a dict of tuples, objects."""
    total = 0
    for i in range(400):
        total += i * i % 7
    table = {str(i): (i, 2 * i) for i in range(150)}
    cells = [_Cell(i, i + 1) for i in range(120)]
    return total + len(table) + sum(c.a * c.b for c in cells)


def host_slowdown() -> float:
    """How many times slower than uncontended the host runs right now.

    The benchmark shares its machine. For seconds at a time another
    tenant slows every instruction stream here by up to about 45 %, in
    process time as much as in wall time, so host time alone swings a
    run's median by as much. A fixed piece of interpreter work, timed
    between refreshes (best of three), measures that factor; a timing
    divided by it reads as the time on an uncontended host.
    """
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        _probe()
        best = min(best, perf_counter() - t0)
    return best / PROBE_REFERENCE_S


@dataclass
class Round:
    """What one round measured.

    Times are host seconds divided by :func:`host_slowdown`, probed
    around set-up and between refreshes; the ``raw_`` fields keep the
    undivided host times.
    """

    traced: bool
    setup_s: float = 0.0
    raw_setup_s: float = 0.0
    digest: str = ""
    refresh_s: list[float] = field(default_factory=list)
    raw_refresh_s: list[float] = field(default_factory=list)
    slowdown: list[float] = field(default_factory=list)
    cpu_s: list[float] = field(default_factory=list)
    deliver_s: list[float] = field(default_factory=list)
    advance_s: float = 0.0
    loop_s: float = 0.0
    raw_loop_s: float = 0.0
    sim_s: float = 0.0
    task_ticks: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    #: Self time of every span, and the wall time of the outermost
    #: spans, over the timed refreshes (traced rounds only).
    span_self_s: float = 0.0
    span_root_s: float = 0.0
    _slow: float = 1.0

    def end_setup(self, raw: float, slow_before: float) -> None:
        """Set-up took ``raw`` seconds from a probe reading ``slow_before``."""
        self._slow = host_slowdown()
        self.raw_setup_s = raw
        self.setup_s = raw / ((slow_before + self._slow) / 2)

    def record(
        self, *, refresh: float, cpu: float, advance: float, loop: float,
        deliver: list[float],
    ) -> None:
        """One timed refresh, probed before and after."""
        after = host_slowdown()
        slow = (self._slow + after) / 2
        self._slow = after
        self.slowdown.append(slow)
        self.raw_refresh_s.append(refresh)
        self.raw_loop_s += loop
        self.refresh_s.append(refresh / slow)
        self.cpu_s.append(cpu / slow)
        self.deliver_s.extend(d / slow for d in deliver)
        self.advance_s += advance / slow
        self.loop_s += loop / slow


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), 100.0 * q))


def _finish_trace(rnd: Round, tracer: Tracer, layers: dict) -> None:
    layers["trace.coverage_pct"] = 100.0 * tracer.root_time / rnd.raw_loop_s
    rnd.layers = layers
    rnd.span_self_s = tracer.self_total()
    rnd.span_root_s = tracer.root_time


# -- the monitor path, shared by the node and serve workloads ---------------

def install_monitor_spans(tracer: Tracer) -> None:
    """Spans on every layer a sampling pass goes through."""

    def count_attach(t: Tracer, result) -> None:
        attached, detached = result
        t.count("proclist.attaches", len(attached))
        t.count("proclist.detaches", len(detached))

    tracer.install(SimHost, "sleep", "sim.advance")
    tracer.install(CounterGroup, "read_deltas", "perf.read")
    tracer.install(SimBackend, "open", "perf.open")
    tracer.install(SimBackend, "close", "perf.close")
    tracer.install(SimProcReader, "process", "procfs.process")
    tracer.install(SimProcReader, "list_processes", "procfs.list")
    tracer.install(ProcessList, "refresh", "proclist.refresh", after=count_attach)
    tracer.install(Sampler, "sample_frame", "sampler.frame")
    tracer.install(Expression, "evaluate_column", "expr.eval")


def monitor_layers(
    tracer: Tracer, refreshes: int, ticks: int, machine: SimMachine
) -> dict[str, float]:
    """Per-refresh layer metrics of the monitor path."""

    def ms(name: str) -> float:
        return 1e3 * tracer.total(name) / refreshes

    kernel = machine.kernel_stats()
    reads = tracer.calls("perf.read")
    return {
        "sim.advance_ms": ms("sim.advance"),
        "sim.ms_per_tick": ms("sim.advance") / ticks,
        "sim.kernel_fast_slices": float(kernel["fast_slices"]),
        "sim.kernel_fallback_slices": float(kernel["fallback_slices"]),
        "perf.read_ms": ms("perf.read"),
        "perf.read_us_per_task": (
            1e6 * tracer.total("perf.read") / reads if reads else 0.0
        ),
        "perf.opens": tracer.calls("perf.open") / refreshes,
        "perf.closes": tracer.calls("perf.close") / refreshes,
        "procfs.process_ms": ms("procfs.process"),
        "procfs.list_ms": ms("procfs.list"),
        "proclist.refresh_ms": ms("proclist.refresh"),
        "proclist.attaches": tracer.counts["proclist.attaches"] / refreshes,
        "proclist.detaches": tracer.counts["proclist.detaches"] / refreshes,
        "sampler.self_ms": (
            1e3 * tracer.self_time("sampler.sample", "sampler.frame")
            / refreshes
        ),
        "expr.eval_ms": ms("expr.eval"),
    }


#: Thread counts and duty cycles cycled over the tasks of every seed
#: (``synthetic.generate_specs`` draws them from these values).
THREADS = (1, 1, 1, 2, 4)
DUTY_CYCLES = (1.0, 1.0, 1.0, 0.4, 0.7)


def balanced_specs(count: int, seed: int) -> list:
    """``count`` seeded synthetic specs with the same make-up for every seed.

    The seed draws each task's IPC, duration and memory behaviour, but
    every seed gets the same number of tasks of each archetype, thread
    count and duty cycle. Otherwise seeds would differ in how much work
    they are as well as in their inputs, and the spread between seeds
    would hide the spread between commits.
    """
    pool: dict[str, list] = {kind: [] for kind in synthetic.ARCHETYPES}
    for spec in synthetic.generate_specs(4 * count, seed=seed):
        pool[spec.archetype].append(spec)
    kinds = synthetic.ARCHETYPES
    return [
        dataclasses.replace(
            pool[kinds[i % len(kinds)]].pop(),
            nthreads=THREADS[i % len(THREADS)],
            duty_cycle=DUTY_CYCLES[(i // len(THREADS)) % len(DUTY_CYCLES)],
        )
        for i in range(count)
    ]


def synthetic_machine(
    arch, seed: int, tasks: int, tick: float, *, lifetime: tuple | None = None
) -> tuple[SimMachine, list]:
    """A 4-core node running ``tasks`` seeded synthetic tasks.

    Workloads are always calibrated against Nehalem: calibrating the
    ``gc`` archetype against Core 2 raises ``SimulationError``.
    ``lifetime`` replaces every task's solo duration with a seeded draw
    from that range, so tasks exit while the tool watches.
    """
    machine = SimMachine(arch, sockets=1, cores_per_socket=4, tick=tick, seed=seed)
    rng = np.random.default_rng(seed)
    built = []
    for spec in balanced_specs(tasks, seed):
        if lifetime is not None:
            spec = dataclasses.replace(
                spec, duration=float(rng.uniform(*lifetime))
            )
        workload = synthetic.build(spec, NEHALEM, seed=seed)
        built.append((spec, workload))
        machine.spawn(
            spec.name, workload, nthreads=spec.nthreads,
            duty_cycle=spec.duty_cycle,
        )
    return machine, built


# -- node workloads -----------------------------------------------------------

class _TimedHost:
    """The host a TipTop drives, stamping when each advance ends."""

    def __init__(self, host: SimHost) -> None:
        self.host = host
        self.backend = host.backend
        self.tasks = host.tasks
        self.started = self.ended = self.ended_cpu = 0.0

    def sleep(self, seconds: float) -> None:
        self.started = perf_counter()
        self.host.sleep(seconds)
        self.ended = perf_counter()
        self.ended_cpu = process_time()


class NodeWorkload:
    """One node watched by the batch-mode tool: advance, sample, render.

    The loop is ``TipTop.run_batch``'s, driven through
    ``TipTop.snapshots`` so that the frames can be digested.
    """

    nodes = 1

    def __init__(
        self, name: str, *, arch, tasks: int, tick: float, delay: float,
        screen: str, refreshes: int, warmup: int,
        lifetime: tuple | None = None, arrivals_per_tick: int = 0,
    ) -> None:
        self.name = name
        self.arch = arch
        self.tasks = tasks
        self.tick = tick
        self.delay = delay
        self.screen = screen
        self.refreshes = refreshes
        self.warmup = warmup
        self.lifetime = lifetime
        self.arrivals_per_tick = arrivals_per_tick

    def install(self, tracer: Tracer) -> None:
        install_monitor_spans(tracer)
        tracer.install(Sampler, "sample", "sampler.sample")
        tracer.install(formatter, "render_batch", "render")

    def build(self, seed: int) -> SimMachine:
        machine, built = synthetic_machine(
            self.arch, seed, self.tasks, self.tick, lifetime=self.lifetime
        )
        # Arrivals replace exits, reusing the built workloads in order,
        # so the population stays near ``tasks`` for the whole round.
        ticks = round((self.warmup + self.refreshes + 1) * self.delay / self.tick)
        k = 0
        for t in range(1, ticks + 1):
            for _ in range(self.arrivals_per_tick):
                spec, workload = built[k % len(built)]
                machine.spawn_at(
                    t * self.tick, spec.name, workload,
                    nthreads=spec.nthreads, duty_cycle=spec.duty_cycle,
                )
                k += 1
        return machine

    def run_round(self, seed: int, tracer: Tracer | None) -> Round:
        slow = host_slowdown()
        t0 = perf_counter()
        machine = self.build(seed)
        host = _TimedHost(SimHost(machine))
        app = TipTop(
            host,
            Options(
                delay=self.delay, batch=True, screen=self.screen,
                max_tasks=MAX_TASKS,
            ),
        )
        snapshots = app.snapshots(self.warmup + self.refreshes)
        next(snapshots)  # baseline pass: attach every task's counters
        for _ in range(self.warmup):
            formatter.render_batch(app.screen, next(snapshots))
        rnd = Round(traced=tracer is not None)
        rnd.end_setup(perf_counter() - t0, slow)

        if tracer is not None:
            tracer.reset()
        sampler = app.sampler
        skips, attach_errors = sampler.read_skips, sampler.proclist.attach_errors
        ticks = round(self.delay / self.tick)
        frames, blocks = [], []
        for _ in range(self.refreshes):
            start = perf_counter()
            snapshot = next(snapshots)
            block = formatter.render_batch(app.screen, snapshot)
            done = perf_counter()
            done_cpu = process_time()
            # The consumer is the terminal: output is delivered once it
            # is rendered.
            rnd.record(
                refresh=done - host.ended, cpu=done_cpu - host.ended_cpu,
                advance=host.ended - host.started, loop=done - start,
                deliver=[done - host.ended],
            )
            frames.append(snapshot.frame)
            blocks.append(block)
            rnd.task_ticks += ticks * len(machine.live_processes())
        rnd.sim_s = self.refreshes * self.delay
        if tracer is not None:
            layers = monitor_layers(tracer, self.refreshes, ticks, machine)
            layers["render.ms"] = 1e3 * tracer.total("render") / self.refreshes
            _finish_trace(rnd, tracer, layers)
        snapshots.close()
        app.close()

        rnd.failed = (
            sampler.read_skips - skips
            + sampler.proclist.attach_errors - attach_errors
        )
        rnd.attempted = sum(len(f) for f in frames) + rnd.failed
        digest = hashlib.sha256()
        for frame, block in zip(frames, blocks):
            digest.update(frame_digest(frame).encode())
            digest.update(block.encode())
        rnd.digest = digest.hexdigest()[:16]
        return rnd


# -- serve-fanout ---------------------------------------------------------------

class _Inbox:
    """What the TCP subscribers received, and when."""

    def __init__(self, names: list[str]) -> None:
        self.names = names
        self.frames: dict[str, dict] = {name: {} for name in names}
        self.arrived = asyncio.Event()
        self.seq = -1
        self.times: dict[str, float] = {}
        self.errors: list[str] = []
        self.gaps = 0
        self.dropped = 0

    def expect(self, seq: int) -> None:
        self.seq = seq
        self.times = {}
        self.arrived.clear()

    async def receive(self, client: ServeClient) -> None:
        try:
            async for seq, frame in client.frames():
                now = perf_counter()
                self.frames[client.client_id][seq] = frame
                if seq == self.seq:
                    self.times[client.client_id] = now
                    if len(self.times) == len(self.names):
                        self.arrived.set()
        except (ReproError, ConnectionError, OSError) as exc:
            self.errors.append(f"{client.client_id}: {exc!r}")
            self.arrived.set()
        self.gaps += client.gaps
        if client.bye is not None:
            self.dropped += int(client.bye.get("stats", {}).get("dropped", 0))


class ServeWorkload:
    """A collector daemon on loopback TCP, in one asyncio loop.

    Two TCP subscribers — one total, one with a comm filter plus a
    server-side derived column — and a crowd of in-process hub sessions
    drained every refresh. The refresh loop is ``CollectorDaemon.run``'s
    (advance, sample, publish), inlined so each step can be timed. The
    loop is closed: the next refresh starts once both subscribers have
    decoded the last frame.
    """

    name = "serve-fanout"
    nodes = 1
    tasks = 200
    delay = 0.1
    crowd = 32
    refreshes = 150
    warmup = 5
    #: Seconds a refresh may wait for its subscribers before the round
    #: is failed (only a broken link ever gets near it).
    timeout = 30.0

    def install(self, tracer: Tracer) -> None:
        install_monitor_spans(tracer)
        tracer.install(serve_session, "subscription_view", "serve.view")

        def count_bytes(t: Tracer, payload: bytes) -> None:
            t.count("serve.encode_bytes", len(payload))

        tracer.install(
            serve_session, "encode_frame", "serve.encode", after=count_bytes
        )
        tracer.install(FanoutHub, "publish", "serve.publish")
        tracer.install(serve_stream, "decode_message", "serve.decode")

    def run_round(self, seed: int, tracer: Tracer | None) -> Round:
        return asyncio.run(self._round(seed, tracer))

    async def _round(self, seed: int, tracer: Tracer | None) -> Round:
        slow = host_slowdown()
        t0 = perf_counter()
        machine, built = synthetic_machine(NEHALEM, seed, self.tasks, self.delay)
        host = SimHost(machine)
        sampler = Sampler(
            host.backend, host.tasks, get_screen("default"),
            Options(delay=self.delay, max_tasks=MAX_TASKS),
        )
        daemon = CollectorDaemon(sampler, queue_limit=8, retention=16)
        port = await daemon.start()
        rng = np.random.default_rng(seed)
        names = [spec.name[:15] for spec, _ in built]
        picked = rng.choice(len(names), size=len(names) // 4, replace=False)
        subs = {
            "total": Subscription(),
            "derived": Subscription(
                comms=frozenset(names[i] for i in picked),
                exprs=(("KIPC", "1000 * instructions / cycles"),),
            ),
        }
        hub = daemon.hub
        crowd = [
            hub.add_session(f"crowd{i}", subs[("total", "derived")[i % 2]])
            for i in range(self.crowd)
        ]
        clients = [
            ServeClient("127.0.0.1", port, client_id=name, subscription=sub)
            for name, sub in subs.items()
        ]
        inbox = _Inbox(list(subs))
        receivers: list[asyncio.Future] = []
        published: list = []
        state = {"lag": 0, "crowd_gaps": 0}
        rnd = Round(traced=tracer is not None)
        try:
            for client in clients:
                await client.connect()
            while not all(c.client_id in hub.sessions for c in clients):
                await asyncio.sleep(0.001)
            receivers = [
                asyncio.ensure_future(inbox.receive(c)) for c in clients
            ]
            sampler.sample_frame()  # baseline pass
            for _ in range(self.warmup):
                await self._refresh(host, sampler, hub, crowd, inbox,
                                    published, state, None, None)
            rnd.end_setup(perf_counter() - t0, slow)
            if tracer is not None:
                tracer.reset()
            hits, misses = hub.encode_hits, hub.encode_misses
            for _ in range(self.refreshes):
                await self._refresh(host, sampler, hub, crowd, inbox,
                                    published, state, rnd, tracer)
                if inbox.errors:
                    break
            rnd.sim_s = self.refreshes * self.delay
            if tracer is not None:
                n = self.refreshes
                hits = hub.encode_hits - hits
                misses = hub.encode_misses - misses
                layers = monitor_layers(tracer, n, 1, machine)
                layers.update({
                    "serve.view_ms": 1e3 * tracer.total("serve.view") / n,
                    "serve.encode_ms": 1e3 * tracer.total("serve.encode") / n,
                    "serve.encode_bytes": tracer.counts["serve.encode_bytes"] / n,
                    "serve.encode_hit_ratio": hits / max(1, hits + misses),
                    "serve.publish_ms": 1e3 * tracer.total("serve.publish") / n,
                    "serve.decode_ms": 1e3 * tracer.total("serve.decode") / n,
                    "serve.io_ms": 1e3 * tracer.self_time("serve.wait") / n,
                    "serve.lag_max": float(state["lag"]),
                })
                _finish_trace(rnd, tracer, layers)
        finally:
            await daemon.close()
            if receivers:
                await asyncio.wait_for(
                    asyncio.gather(*receivers), self.timeout
                )
            for client in clients:
                await client.close()

        rnd.errors.extend(inbox.errors)
        # Every subscriber's stream must be bitwise what the hub would
        # hand it: subscription_view of the frames sampled here.
        for name, sub in subs.items():
            got = inbox.frames[name]
            if sorted(got) != list(range(len(published))):
                rnd.errors.append(
                    f"{name} received {len(got)} of {len(published)} frames"
                )
                continue
            compiled = sub.compile_exprs()
            for seq, frame in enumerate(published):
                view = subscription_view(frame, sub, compiled)
                if not view.bitwise_equal(got[seq]):
                    rnd.errors.append(f"{name}: frame {seq} differs")
                    break
        rnd.failed = (
            inbox.gaps + inbox.dropped + state["crowd_gaps"]
            + hub.stats()["dropped_total"]
            + sampler.read_skips + sampler.proclist.attach_errors
        )
        rnd.attempted = (
            len(published) * (len(clients) + len(crowd)) + rnd.failed
        )
        digest = hashlib.sha256()
        for frame in published:
            digest.update(frame_digest(frame).encode())
        rnd.digest = digest.hexdigest()[:16]
        return rnd

    async def _refresh(
        self, host, sampler, hub, crowd, inbox, published, state, rnd, tracer
    ) -> None:
        start = perf_counter()
        host.sleep(self.delay)
        sampled = perf_counter()
        sampled_cpu = process_time()
        frame = sampler.sample_frame()
        state["lag"] = max([state["lag"], *(s.lag for s in hub.sessions.values())])
        inbox.expect(hub.next_seq)
        seq = hub.publish(frame)
        ready = perf_counter()
        ready_cpu = process_time()
        published.append(frame)
        with _span(tracer, "serve.crowd"):
            for session in crowd:
                while (item := session.pop()) is not None:
                    if item[0] != seq:
                        state["crowd_gaps"] += 1
        with _span(tracer, "serve.wait"):
            try:
                await asyncio.wait_for(inbox.arrived.wait(), self.timeout)
            except asyncio.TimeoutError:
                inbox.errors.append(f"frame {seq} not delivered in time")
        end = perf_counter()
        if rnd is None:
            return
        rnd.record(
            refresh=ready - sampled, cpu=ready_cpu - sampled_cpu,
            advance=sampled - start, loop=end - start,
            deliver=[t - sampled for t in inbox.times.values()],
        )
        rnd.task_ticks += len(host.machine.live_processes())


# -- grid-fleet -------------------------------------------------------------------

def fleet(n_nodes: int) -> list[NodeSpec]:
    """Small mixed nodes, 4 logical cores each (as the grid scaling test)."""
    specs = []
    for i in range(n_nodes):
        if i % 2 == 0:
            specs.append(NodeSpec(name=f"bench{i:02d}", sockets=1, cores_per_socket=2))
        else:
            specs.append(
                NodeSpec(name=f"bench{i:02d}", arch=NEHALEM, sockets=1,
                         cores_per_socket=2, memory_bytes=16 * 1024**3)
            )
    return specs


def populate(grid: Grid, n_nodes: int, seed: int) -> None:
    """The datacenter mix of the grid scaling test, with seeded lengths.

    Per node slot: three long-lived services and one finite, noise-free
    batch job, plus a queued backlog of half a job per node that
    dispatches as slots free.
    """
    rng = np.random.default_rng(seed)
    for i in range(4 * n_nodes):
        if i % 4 == 3:
            workload = datacenter.compute_job(
                f"job{i:03d}", 1.0,
                duration_hint=30.0 + 15.0 * int(rng.integers(0, 5)),
                noise=0.0,
            )
        else:
            workload = datacenter.compute_job(f"job{i:03d}", 0.9 + 0.1 * (i % 4))
        grid.submit(
            f"job{i:03d}", workload, user=f"user{i % 3}",
            queue=("short-2g-asap", "day-2g-overnight")[i % 2],
        )
    for i in range(n_nodes // 2):
        grid.submit(
            f"backlog{i:02d}",
            datacenter.compute_job(
                f"backlog{i:02d}", 1.1,
                duration_hint=40.0 + float(rng.integers(0, 20)), noise=0.0,
            ),
            queue="short-2g-asap",
        )


def _wire_bytes(grid: Grid) -> int:
    engine = grid.engine
    return getattr(engine, "bytes_sent", 0) + getattr(engine, "bytes_received", 0)


class GridWorkload:
    """A 32-node fleet under the default supervised engine, 2 fork workers.

    One refresh advances the fleet by ``delay`` simulated seconds, then
    takes the fleet view — ``Grid.conformance_digest``, one batched
    snapshot round-trip plus the job table and utilisation — which is
    the grid's observable output. No monitor layer runs.
    """

    name = "grid-fleet"
    nodes = 32
    workers = 2
    tick = 1.0
    delay = 8.0
    refreshes = 60
    warmup = 2

    def install(self, tracer: Tracer) -> None:
        def note_epoch(t: Tracer, reports) -> None:
            # Every report covers the same ticks; any node's clocks say
            # how many.
            ticks = 0
            for rep in reports:
                for node, start in rep["start_now"].items():
                    ticks = round((rep["end_now"][node] - start) / self.tick)
                    break
                break
            wall = max((rep["wall"] for rep in reports), default=0.0)
            t.notes["grid.epoch"].append((wall, ticks))

        tracer.install(Grid, "run_for", "grid.run_for")
        tracer.install(
            SupervisedShardedEngine, "advance", "grid.advance", after=note_epoch
        )
        tracer.install(ShardTransport, "send", "transport.send")
        tracer.install(ShardTransport, "recv", "transport.recv")
        tracer.install(Grid, "conformance_digest", "grid.view")

    def _build(self, seed: int, workers: int) -> Grid:
        grid = Grid(fleet(self.nodes), tick=self.tick, seed=seed, workers=workers)
        populate(grid, self.nodes, seed)
        for _ in range(self.warmup):
            grid.run_for(self.delay)
            grid.conformance_digest()
        return grid

    def _refreshes(self, grid: Grid, rnd: Round | None) -> tuple[list, int]:
        views = []
        view_bytes = 0
        for _ in range(self.refreshes):
            start = perf_counter()
            grid.run_for(self.delay)
            advanced = perf_counter()
            advanced_cpu = process_time()
            before = _wire_bytes(grid)
            view = grid.conformance_digest()
            done = perf_counter()
            done_cpu = process_time()
            views.append(view)
            if rnd is None:
                continue
            view_bytes += _wire_bytes(grid) - before
            # The dispatcher consumes the view in-process.
            rnd.record(
                refresh=done - advanced, cpu=done_cpu - advanced_cpu,
                advance=advanced - start, loop=done - start,
                deliver=[done - advanced],
            )
            rnd.task_ticks += self.delay / self.tick * len(grid.jobs("running"))
        return views, view_bytes

    def run_round(self, seed: int, tracer: Tracer | None) -> Round:
        slow = host_slowdown()
        t0 = perf_counter()
        with self._build(seed, self.workers) as grid:
            rnd = Round(traced=tracer is not None)
            rnd.end_setup(perf_counter() - t0, slow)
            if tracer is not None:
                tracer.reset()
            before = dict(grid.stats)
            views, view_bytes = self._refreshes(grid, rnd)
            after = dict(grid.stats)
            rnd.sim_s = self.refreshes * self.delay
            epochs = max(1, after["epochs"] - before["epochs"])
            if tracer is not None:
                _finish_trace(
                    rnd, tracer,
                    self._layers(tracer, before, after, epochs, view_bytes),
                )
        rnd.failed = int(
            after.get("worker_failures", 0) + after.get("restarts", 0)
        )
        rnd.attempted = epochs + self.refreshes + rnd.failed
        rnd.digest = _views_digest(views)
        return rnd

    def _layers(self, tracer, before, after, epochs, view_bytes) -> dict:
        n = self.refreshes
        durations = tracer.samples["grid.advance"]
        epoch_notes = tracer.notes["grid.epoch"]
        p95 = percentile(durations, 0.95)
        # Which part of the epoch owns the tail: the slowest shard's own
        # simulation time, and how many ticks tail epochs advance
        # compared with the median epoch.
        tail = [
            (d, wall, ticks)
            for d, (wall, ticks) in zip(durations, epoch_notes)
            if d >= p95
        ]
        median_ticks = float(np.median([ticks for _, ticks in epoch_notes]))
        hits = after["rate_cache_hits"]
        misses = after["rate_cache_misses"]
        moved = (
            after["bytes_sent"] + after["bytes_received"]
            - before["bytes_sent"] - before["bytes_received"]
        )
        return {
            "grid.dispatch_ms": 1e3 * (
                tracer.total("grid.run_for")
                - tracer.under("grid.run_for", "grid.advance")
            ) / n,
            "grid.advance_p50_ms": 1e3 * percentile(durations, 0.50),
            "grid.advance_p95_ms": 1e3 * p95,
            "grid.shard_wall_ms": (
                1e3 * (after["shard_wall"] - before["shard_wall"]) / epochs
            ),
            "grid.view_ms": 1e3 * tracer.total("grid.view") / n,
            "grid.messages_per_epoch": (
                (after["messages"] - before["messages"]) / epochs
            ),
            "grid.rate_cache_hit_ratio": hits / max(1, hits + misses),
            "grid.tail_ticks_ratio": (
                float(np.mean([ticks for _, _, ticks in tail])) / median_ticks
                if median_ticks else 0.0
            ),
            "grid.tail_shard_pct": 100.0 * float(
                np.mean([wall / d for d, wall, _ in tail])
            ),
            "transport.send_ms": (
                1e3 * tracer.under("grid.run_for", "transport.send") / epochs
            ),
            "transport.recv_ms": (
                1e3 * tracer.under("grid.run_for", "transport.recv") / epochs
            ),
            "transport.bytes_per_epoch": (moved - view_bytes) / epochs,
        }

    def reference_digest(self, seed: int) -> str:
        """The same refreshes on the in-process serial engine."""
        with self._build(seed, 1) as grid:
            views, _ = self._refreshes(grid, None)
        return _views_digest(views)


def _views_digest(views: list) -> str:
    digest = hashlib.sha256()
    for view in views:
        digest.update(repr(view).encode())
    return digest.hexdigest()[:16]


WORKLOADS = {
    "node-monitor": NodeWorkload(
        "node-monitor", arch=NEHALEM, tasks=1000, tick=1.0, delay=1.0,
        screen="default", refreshes=50, warmup=5,
        lifetime=(0.05, 0.4), arrivals_per_tick=5,
    ),
    "node-multiplex": NodeWorkload(
        "node-multiplex", arch=CORE2, tasks=200, tick=0.1, delay=1.0,
        screen="mix", refreshes=50, warmup=3,
    ),
    "serve-fanout": ServeWorkload(),
    "grid-fleet": GridWorkload(),
}
