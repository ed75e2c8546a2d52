#!/usr/bin/env python3
"""Operating the §3.4 grid: queues, dispatch, and spot monitoring.

Builds a small version of the paper's compute grid (bi-Xeon nodes behind
sixteen SGE-style queues), submits a realistic mixed load, then does what
the paper's authors did in production: attach tiptop to a node and look at
what `%CPU` can't show. Finishes with batch-mode text piped through the
parser — the "UNIX filter" workflow of §2.1.

Run:  python examples/grid_operations.py
"""

from repro import Options, SimHost, TipTop
from repro.core.batchparse import parse_blocks, series_from_blocks
from repro.sim.grid import Grid
from repro.sim.workloads import datacenter, spec
from repro.sim.workload import Workload


def submit_load(grid: Grid) -> None:
    # Short analysis jobs, a few day-long simulations, one eternal service.
    for i in range(20):
        grid.submit(
            f"analysis{i}",
            datacenter.compute_job("analysis", 1.6, duration_hint=90.0),
            user="alice",
            queue="short-2g-asap",
        )
    for i in range(6):
        phase = spec.workload("429.mcf").phases[2].with_budget(float("inf"))
        grid.submit(
            f"sim{i}",
            Workload("mcf-like", (phase,)),
            user="bob",
            queue="long-8g-overnight",
            memory_bytes=6 * 1024**3,
        )
    grid.submit(
        "metrics-daemon",
        datacenter.compute_job("daemon", 1.0),
        user="ops",
        queue="eternal-8g-overnight",
        memory_bytes=3 * 1024**3,
    )


def main() -> None:
    grid = Grid(tick=1.0, seed=13)
    submit_load(grid)
    grid.run_for(30.0)

    print("grid state after 30 s:")
    for state in ("running", "pending", "done"):
        print(f"  {state:8s} {len(grid.jobs(state))}")
    print("  node utilisation:", {
        name: f"{load:.0%}" for name, load in grid.utilisation().items()
    })
    print()

    # Spot-check the busiest standard node with tiptop.
    busiest = max(
        (n for n in grid.utilisation() if n.startswith("node")),
        key=lambda n: grid.utilisation()[n],
    )
    print(f"tiptop -b on {busiest}:")
    node = grid.node(busiest)
    blocks: list[str] = []
    with TipTop(SimHost(node), Options(delay=5.0)) as app:
        app.run_batch(2, write=blocks.append)
    print(blocks[-1])

    # The awk side: parse the stream and pull one pid's IPC series.
    parsed = parse_blocks("\n".join(blocks))
    some_pid = parsed[-1].rows[0].pid
    times, ipcs = series_from_blocks(parsed, some_pid, "IPC")
    print(f"pid {some_pid} IPC series from the batch stream: "
          f"{[round(v, 2) for v in ipcs]}")


if __name__ == "__main__":
    main()
