"""Hot-path throughput: the columnar tick kernel vs the scalar reference.

The paper's tool promises monitoring overhead in the noise (§2.5); our
bottleneck is the simulation itself. This benchmark drives two synthetic
populations — the historical 200-process node and a 1000-process node,
every task carrying a ten-event screen — through the machine's columnar
kernel and through the scalar reference tick of
:mod:`repro.verify.reference`, and records the results under
``benchmarks/out/``:

* ``BENCH_throughput.json``        — the full run (default).
* ``BENCH_throughput_smoke.json``  — the CI smoke run
  (``REPRO_BENCH_SMOKE=1``).

The columnar machine is handed a :class:`~repro.sim.core.RateCache`, as
a grid :class:`~repro.sim.parallel.Shard` hands its machines one, and is
warmed long past the memo-orbit settling point (~2000 ticks at 1000
processes: the contention/rate memos key on object identities that
converge once the scheduler's round-robin orbit has revisited every
co-schedule), because steady state is the regime a grid shard lives in.
The monitor's own host runs the kernel memo-free; perfbench's node
workloads time that configuration end to end. The reference has no
memos to warm, so its warmup only has to cover allocator/startup jitter.
Bitwise equivalence of the two is proven separately by
``tests/test_run_ticks_equivalence.py`` and the ``scalar-columnar-machine``
oracle; this file only times them.

Floors: the full run asserts the columnar kernel's speedup and absolute
throughput (task-ticks/second = live tasks x ticks / wall second) per
scenario. The smoke run asserts a deliberately conservative speedup floor
— shared CI runners make ratios noisy, but a columnar kernel that has
collapsed to scalar speed still fails loudly.
"""

from __future__ import annotations

import json
import os
import time

from _harness import OUT_DIR

from repro.sim.arch import NEHALEM
from repro.sim.core import RateCache
from repro.sim.events import Event
from repro.sim.machine import SimMachine
from repro.sim.workloads import synthetic
from repro.verify import reference

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Ten counters per task, the width of a realistic custom screen.
EVENTS = (
    Event.INSTRUCTIONS,
    Event.CYCLES,
    Event.CACHE_REFERENCES,
    Event.CACHE_MISSES,
    Event.BRANCH_INSTRUCTIONS,
    Event.BRANCH_MISSES,
    Event.L1D_ACCESSES,
    Event.L1D_MISSES,
    Event.LOADS,
    Event.STORES,
)

#: (name, processes, columnar warmup, measured columnar ticks,
#:  scalar warmup, measured scalar ticks, min speedup, min task-ticks/s).
#: Reference tick counts are smaller because the reference is the slow one
#: being measured, not the one under assertion.
SCENARIOS = (
    ("node200", 200, 600, 1000, 100, 300, 3.0, 10_000.0),
    ("node1000", 1000, 2500, 1000, 100, 200, 10.0, 10_000.0),
)
if SMOKE:
    SCENARIOS = (("node200", 200, 60, 60, 20, 40, None, None),)

#: Smoke asserts only this conservative ratio on the small scenario.
SMOKE_MIN_SPEEDUP = 2.0

#: Best-of-N timing damps scheduler noise on shared machines.
REPEATS = 1 if SMOKE else 2


def build_machine(processes: int, rate_cache: RateCache | None = None) -> SimMachine:
    """A 4-core node oversubscribed ``processes``:8 with monitored tasks."""
    machine = SimMachine(
        NEHALEM, sockets=1, cores_per_socket=4, tick=0.1, seed=7,
        rate_cache=rate_cache,
    )
    for spec in synthetic.generate_specs(processes, seed=3):
        workload = synthetic.build(spec, NEHALEM, seed=11)
        proc = machine.spawn(spec.name, workload, nthreads=1, duty_cycle=1.0)
        for event in EVENTS:
            machine.counters.open(event, proc.pid, 0)
    return machine


def _time_scalar(processes: int, warmup: int, measured: int) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        machine = build_machine(processes)
        reference.run_ticks(machine, warmup)
        t0 = time.perf_counter()
        reference.run_ticks(machine, measured)
        best = min(best, time.perf_counter() - t0)
    return best / measured


def _time_columnar(processes: int, warmup: int, measured: int) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        machine = build_machine(processes, RateCache())
        machine.run_ticks(warmup)
        t0 = time.perf_counter()
        machine.run_ticks(measured)
        best = min(best, time.perf_counter() - t0)
    return best / measured


def test_throughput_speedup():
    results = []
    for (name, processes, col_warm, col_ticks, sc_warm, sc_ticks,
         min_speedup, min_task_ticks) in SCENARIOS:
        scalar_per_tick = _time_scalar(processes, sc_warm, sc_ticks)
        columnar_per_tick = _time_columnar(processes, col_warm, col_ticks)
        speedup = scalar_per_tick / columnar_per_tick
        task_ticks_per_sec = processes / columnar_per_tick
        results.append(
            {
                "scenario": name,
                "processes": processes,
                "events_per_task": len(EVENTS),
                "warmup_ticks": col_warm,
                "measured_ticks": col_ticks,
                "scalar_ms_per_tick": round(scalar_per_tick * 1e3, 4),
                "columnar_ms_per_tick": round(columnar_per_tick * 1e3, 4),
                "speedup": round(speedup, 3),
                "ticks_per_second_columnar": round(1.0 / columnar_per_tick, 1),
                "task_ticks_per_second": round(task_ticks_per_sec, 1),
                "min_speedup": min_speedup,
                "min_task_ticks_per_second": min_task_ticks,
            }
        )
        print(
            f"\n{name}: scalar {scalar_per_tick*1e3:.3f} ms/tick, "
            f"columnar {columnar_per_tick*1e3:.3f} ms/tick, "
            f"speedup {speedup:.1f}x, "
            f"{task_ticks_per_sec:,.0f} task-ticks/s"
        )
    payload = {
        "arch": NEHALEM.name,
        "sockets": 1,
        "cores_per_socket": 4,
        "tick": 0.1,
        "smoke": SMOKE,
        "results": results,
    }
    OUT_DIR.mkdir(exist_ok=True)
    artifact = "BENCH_throughput_smoke.json" if SMOKE else "BENCH_throughput.json"
    (OUT_DIR / artifact).write_text(json.dumps(payload, indent=2) + "\n")
    for entry in results:
        if SMOKE:
            assert entry["speedup"] >= SMOKE_MIN_SPEEDUP, (
                f"{entry['scenario']}: columnar speedup collapsed to "
                f"{entry['speedup']:.2f}x (< smoke floor {SMOKE_MIN_SPEEDUP}x)"
            )
            continue
        assert entry["speedup"] >= entry["min_speedup"], (
            f"{entry['scenario']}: columnar path is only "
            f"{entry['speedup']:.2f}x faster (floor {entry['min_speedup']}x)"
        )
        assert entry["task_ticks_per_second"] >= entry["min_task_ticks_per_second"], (
            f"{entry['scenario']}: {entry['task_ticks_per_second']:,.0f} "
            f"task-ticks/s below floor "
            f"{entry['min_task_ticks_per_second']:,.0f}"
        )
