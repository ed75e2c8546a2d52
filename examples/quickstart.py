#!/usr/bin/env python3
"""Quickstart: monitor a busy node with tiptop, live and batch.

Spins up a simulated data-center node (the paper's Figure 1 population:
eleven processes, three users, one cache-missy job, one I/O-bound job),
attaches tiptop to it with *no privileges and no application changes*, and
shows both output modes plus a custom screen.

On a machine with a real PMU you would construct ``RealHost()`` instead of
``SimHost(machine)`` — every other line stays the same.

Run:  python examples/quickstart.py
"""

from repro import Options, SimHost, TipTop, get_screen, screen_from_config
from repro.sim.workloads import datacenter


def main() -> None:
    # A bi-Xeon E5640 node (2 sockets x 4 cores x 2 SMT) with Figure 1's
    # eleven processes already running. Monitoring can attach at any time:
    # let the node run for a while first.
    machine = datacenter.make_node(tick=0.5, seed=7)
    datacenter.populate_fig1(machine)
    machine.run_for(30.0)

    print("=" * 72)
    print("Live mode (one frame, default screen — the paper's Figure 1):")
    print("=" * 72)
    with TipTop(SimHost(machine), Options(delay=10.0)) as app:
        app.run_live(1, paint=print)

    print()
    print("=" * 72)
    print("Batch mode (streaming text, like top -b):")
    print("=" * 72)
    with TipTop(SimHost(machine), Options(delay=5.0)) as app:
        app.run_batch(2)

    print("=" * 72)
    print("A custom screen (tiptop screens are fully configurable):")
    print("=" * 72)
    screen = screen_from_config(
        {
            "name": "memory-view",
            "description": "IPC next to per-level miss rates",
            "columns": [
                "IPC",  # a catalogue metric, by name
                {"header": "L2/100", "expr": "100 * l2_misses / instructions",
                 "decimals": 1},
                {"header": "L3/100", "expr": "100 * l3_misses / instructions",
                 "decimals": 1},
            ],
        }
    )
    with TipTop(SimHost(machine), Options(delay=5.0), screen) as app:
        app.run_batch(1)

    print("Built-in screens:", ", ".join(s.name for s in
                                          __import__("repro").builtin_screens()))
    print("The 'cache' screen:", get_screen("cache").description)


if __name__ == "__main__":
    main()
