"""Grid engine scaling: dispatch epochs + shards vs the per-tick loop.

The paper's §3.4 deployment watches a ~100-node SGE fleet; simulating one
at per-tick granularity makes wall-clock linear in fleet size. This
benchmark drives a datacenter-shaped mix — long-lived services filling
most slots, a finite batch job per node, and a queued backlog that
dispatches as slots free — through every engine and records the sweep in
``BENCH_grid.json``:

* ``legacy`` — the pre-epoch sequential loop (baseline),
* ``serial`` — in-process engine, epoch batching only (workers=1),
* ``supervised-2`` / ``supervised-4`` — persistent worker shards under
  supervision (the grid's only worker-process engine).

Engines must agree bitwise — job fingerprints and per-node counter tables
are asserted equal on every run, smoke or full (this is the CI guard that
supervised == serial). Timing targets only apply to the full run:
epoch batching alone >= 1.5x, and supervised-4 >= 3x on the 16-node
fleet.

A second sweep scales the *fleet* engine (two-level supervision tree)
across the shard-transport axis — inproc / fork / socket — at 64 and 256
simulated nodes, recording per-epoch latency percentiles and bytes per
epoch in the same ``BENCH_grid.json`` under ``"fleet"``. All transports
must agree bitwise (vs a serial reference at 64 nodes, pairwise at 256);
the full run also asserts the wire floor: socket epoch p95 within 2x of
fork at 64 nodes — the binary TTSV framing must stay in the same class
as the pickled pipe, or the interning/codec has regressed.

``REPRO_BENCH_SMOKE=1`` shrinks the sweep for CI and skips the speedup
assertions (shared runners make ratios unreliable).
"""

from __future__ import annotations

import json
import os
import time

from _harness import OUT_DIR

from repro.sim.arch import NEHALEM
from repro.sim.grid import Grid, NodeSpec
from repro.sim.workloads import datacenter

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
NODE_COUNTS = (4,) if SMOKE else (4, 16)
SPAN_SECONDS = 45.0 if SMOKE else 480.0
REPEATS = 1 if SMOKE else 3
SERIAL_MIN_SPEEDUP = 1.5
SUPERVISED4_MIN_SPEEDUP = 3.0

ENGINES = (
    ("legacy", "legacy", 1),
    ("serial", "serial", 1),
    ("supervised-2", "supervised", 2),
    ("supervised-4", "supervised", 4),
)


def fleet(n_nodes: int) -> list[NodeSpec]:
    """A mixed fleet of small nodes (4 PUs each keeps the sweep fast)."""
    specs = []
    for i in range(n_nodes):
        if i % 2 == 0:
            specs.append(
                NodeSpec(name=f"bench{i:02d}", sockets=1, cores_per_socket=2)
            )
        else:
            specs.append(
                NodeSpec(name=f"bench{i:02d}", arch=NEHALEM, sockets=1,
                         cores_per_socket=2, memory_bytes=16 * 1024**3)
            )
    return specs


def populate(grid: Grid, n_nodes: int) -> None:
    """A datacenter-shaped mix sized to the fleet.

    Per node slot: three long-lived services and one finite, noise-free
    batch job (deterministic jobs get the exec-inclusive exit bound, so
    epoch boundaries land near the real exits), plus a queued backlog of
    half a job per node. Slots free mid-run and the dispatcher re-fills
    them, so epoch boundaries genuinely matter."""
    for i in range(4 * n_nodes):
        if i % 4 == 3:
            workload = datacenter.compute_job(
                f"job{i:03d}",
                1.0,
                duration_hint=30.0 + 15.0 * (i % 5),
                noise=0.0,
            )
        else:
            workload = datacenter.compute_job(f"job{i:03d}", 0.9 + 0.1 * (i % 4))
        grid.submit(
            f"job{i:03d}",
            workload,
            user=f"user{i % 3}",
            queue=("short-2g-asap", "day-2g-overnight")[i % 2],
        )
    for i in range(n_nodes // 2):
        grid.submit(
            f"backlog{i:02d}",
            datacenter.compute_job(
                f"backlog{i:02d}", 1.1, duration_hint=40.0, noise=0.0
            ),
            queue="short-2g-asap",
        )


def fingerprint(grid: Grid):
    return [
        (j.job_id, j.node, j.started_at, j.finished_at, j.killed, j.pid,
         j.state)
        for j in grid.jobs()
    ]


def run_engine(label: str, engine: str, workers: int, n_nodes: int):
    """Best-of-N wall time plus the observables for the equality check."""
    best = float("inf")
    observed = None
    epochs = 0
    for _ in range(REPEATS):
        with Grid(fleet(n_nodes), tick=1.0, seed=42, workers=workers,
                  engine=engine) as grid:
            populate(grid, n_nodes)
            t0 = time.perf_counter()
            grid.run_for(SPAN_SECONDS)
            best = min(best, time.perf_counter() - t0)
            observed = (
                fingerprint(grid),
                {s.name: grid.snapshot(s.name) for s in grid.specs},
            )
            epochs = grid.stats["epochs"]
    return best, observed, epochs


def test_grid_scaling():
    sweeps = []
    speedups: dict[int, dict[str, float]] = {}
    for n_nodes in NODE_COUNTS:
        results = {}
        for label, engine, workers in ENGINES:
            seconds, observed, epochs = run_engine(
                label, engine, workers, n_nodes
            )
            results[label] = (seconds, observed, epochs)
        baseline = results["legacy"][1]
        for label, (_, observed, _) in results.items():
            assert observed == baseline, (
                f"{label} diverged from legacy on {n_nodes} nodes"
            )
        legacy_seconds = results["legacy"][0]
        speedups[n_nodes] = {}
        entry = {"nodes": n_nodes, "engines": {}}
        for label, (seconds, _, epochs) in results.items():
            speedup = legacy_seconds / seconds
            speedups[n_nodes][label] = speedup
            entry["engines"][label] = {
                "seconds": round(seconds, 6),
                "speedup_vs_legacy": round(speedup, 3),
                "epochs": epochs,
            }
        sweeps.append(entry)
        print(
            f"\n{n_nodes:3d} nodes: " + "  ".join(
                f"{label}={results[label][0]:.3f}s"
                f" ({speedups[n_nodes][label]:.2f}x)"
                for label, _, _ in ENGINES
            )
        )

    payload = {
        "scenario": {
            "span_seconds": SPAN_SECONDS,
            "tick": 1.0,
            "seed": 42,
            "jobs_per_node": 4,
            "backlog_jobs_per_node": 0.5,
            "node_counts": list(NODE_COUNTS),
            "repeats": REPEATS,
            "smoke": SMOKE,
        },
        "targets": {
            "serial_min_speedup": SERIAL_MIN_SPEEDUP,
            "supervised4_min_speedup": SUPERVISED4_MIN_SPEEDUP,
        },
        "sweeps": sweeps,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "BENCH_grid.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    if not SMOKE:
        serial = speedups[16]["serial"]
        supervised4 = speedups[16]["supervised-4"]
        assert serial >= SERIAL_MIN_SPEEDUP, (
            f"epoch batching alone is only {serial:.2f}x on 16 nodes"
        )
        assert supervised4 >= SUPERVISED4_MIN_SPEEDUP, (
            f"supervised-4 is only {supervised4:.2f}x on 16 nodes"
        )


# -- fleet transport sweep ----------------------------------------------------

FLEET_NODE_COUNTS = (16,) if SMOKE else (64, 256)
FLEET_SPAN = 45.0 if SMOKE else 120.0
FLEET_REPEATS = 1 if SMOKE else 2
FLEET_WORKERS = 8
FLEET_HOSTS = 4
TRANSPORTS = ("inproc", "fork", "socket")
SOCKET_P95_MAX_VS_FORK = 2.0


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


def run_fleet(transport: str, n_nodes: int):
    """One fleet run per repeat; pools per-epoch advance latencies.

    The engine's ``advance`` is wrapped with a perf_counter so the
    sample is the epoch round-trip (fan out to hosts, collect reports),
    not dispatch bookkeeping or snapshot traffic.
    """
    latencies: list[float] = []
    best = float("inf")
    digest = None
    bytes_per_epoch = 0.0
    for _ in range(FLEET_REPEATS):
        with Grid(fleet(n_nodes), tick=1.0, seed=42, workers=FLEET_WORKERS,
                  hosts=FLEET_HOSTS, transport=transport) as grid:
            populate(grid, n_nodes)
            engine_advance = grid.engine.advance

            def timed(commands, n_ticks, frac, _adv=engine_advance):
                t0 = time.perf_counter()
                out = _adv(commands, n_ticks, frac)
                latencies.append(time.perf_counter() - t0)
                return out

            grid.engine.advance = timed
            t0 = time.perf_counter()
            grid.run_for(FLEET_SPAN)
            best = min(best, time.perf_counter() - t0)
            digest = grid.conformance_digest()
            epochs = max(1, grid.stats["epochs"])
            bytes_per_epoch = (
                grid.stats["bytes_sent"] + grid.stats["bytes_received"]
            ) / epochs
    return {
        "seconds": best,
        "epoch_p50": _percentile(latencies, 0.50),
        "epoch_p95": _percentile(latencies, 0.95),
        "bytes_per_epoch": bytes_per_epoch,
        "digest": digest,
    }


def test_fleet_transport_sweep():
    sweeps = []
    p95 = {}
    for n_nodes in FLEET_NODE_COUNTS:
        results = {t: run_fleet(t, n_nodes) for t in TRANSPORTS}
        # Bitwise agreement: against a serial reference on the smaller
        # fleets, pairwise at 256 (a serial 256-node run adds nothing —
        # inproc *is* the serial compute on the fleet engine's path).
        if n_nodes <= 64:
            with Grid(fleet(n_nodes), tick=1.0, seed=42) as grid:
                populate(grid, n_nodes)
                grid.run_for(FLEET_SPAN)
                reference = grid.conformance_digest()
            for t in TRANSPORTS:
                assert results[t]["digest"] == reference, (
                    f"fleet/{t} diverged from serial on {n_nodes} nodes"
                )
        first = results[TRANSPORTS[0]]["digest"]
        for t in TRANSPORTS[1:]:
            assert results[t]["digest"] == first, (
                f"fleet/{t} diverged from fleet/{TRANSPORTS[0]}"
                f" on {n_nodes} nodes"
            )
        assert results["inproc"]["bytes_per_epoch"] == 0
        for t in ("fork", "socket"):
            assert results[t]["bytes_per_epoch"] > 0
        p95[n_nodes] = {t: results[t]["epoch_p95"] for t in TRANSPORTS}
        entry = {"nodes": n_nodes, "transports": {}}
        for t in TRANSPORTS:
            r = results[t]
            entry["transports"][t] = {
                "seconds": round(r["seconds"], 6),
                "epoch_p50": round(r["epoch_p50"], 6),
                "epoch_p95": round(r["epoch_p95"], 6),
                "bytes_per_epoch": round(r["bytes_per_epoch"], 1),
            }
        sweeps.append(entry)
        print(
            f"\nfleet {n_nodes:3d} nodes: " + "  ".join(
                f"{t}={results[t]['seconds']:.3f}s"
                f" p95={results[t]['epoch_p95'] * 1000:.1f}ms"
                for t in TRANSPORTS
            )
        )

    # Merge into the scaling payload so one artifact carries both sweeps.
    out_path = OUT_DIR / "BENCH_grid.json"
    OUT_DIR.mkdir(exist_ok=True)
    payload = json.loads(out_path.read_text()) if out_path.exists() else {}
    payload["fleet"] = {
        "scenario": {
            "span_seconds": FLEET_SPAN,
            "workers": FLEET_WORKERS,
            "hosts": FLEET_HOSTS,
            "node_counts": list(FLEET_NODE_COUNTS),
            "repeats": FLEET_REPEATS,
            "smoke": SMOKE,
        },
        "targets": {"socket_p95_max_vs_fork": SOCKET_P95_MAX_VS_FORK},
        "sweeps": sweeps,
    }
    out_path.write_text(json.dumps(payload, indent=2) + "\n")

    if not SMOKE:
        ratio = p95[64]["socket"] / p95[64]["fork"]
        assert ratio <= SOCKET_P95_MAX_VS_FORK, (
            f"socket epoch p95 is {ratio:.2f}x fork at 64 nodes"
            f" (floor: {SOCKET_P95_MAX_VS_FORK}x)"
        )
