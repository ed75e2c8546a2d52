"""Crash-recovery cost for the grid's supervised engine.

The supervisor wraps every worker round-trip in a deadline and journals
every epoch; a worker death mid-run must cost a bounded replay, not a
restart-from-zero. This benchmark drives the same datacenter-shaped mix
as ``test_grid_scaling`` through two configurations and records the
sweep in ``BENCH_recovery.json``:

* ``supervised-clean`` — two supervised workers, no faults (baseline),
* ``supervised-crash`` — seeded chaos kills worker 0 and garbles
  worker 1 mid-run (detection + restart + journal replay).

Both must agree bitwise with the serial engine — asserted on every run,
smoke or full (this is the CI guard that recovery is exact). The timing
floor only applies to the full run: the crashing run <= 5x the clean
run. ``REPRO_BENCH_SMOKE=1`` shrinks the sweep and skips the floor
(shared runners make ratios unreliable).
"""

from __future__ import annotations

import json
import os
import time

from _harness import OUT_DIR

from repro.sim.grid import Grid
from repro.sim.supervisor import GridFaultPlan, GridFaultSpec, Supervision

from test_grid_scaling import fleet, populate

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
N_NODES = 4 if SMOKE else 8
SPAN_SECONDS = 45.0 if SMOKE else 240.0
REPEATS = 1 if SMOKE else 3
RECOVERY_MAX_OVERHEAD = 5.0

#: One kill on worker 0 and one garbled reply on worker 1, on the two
#: epochs every sweep size reaches (the smoke scenario has only two).
#: One-shot faults fire on incarnation 0 only, so this is exactly one
#: failure per worker however many epochs the full run adds.
CHAOS = GridFaultPlan(
    seed=0,
    specs=(
        GridFaultSpec("crash", at_epochs=frozenset({0}), worker=0),
        GridFaultSpec("garble", at_epochs=frozenset({1}), worker=1),
    ),
)
SUPERVISION = Supervision(deadline=30.0, backoff_base=0.0)

CONFIGS = (
    ("supervised-clean", None),
    ("supervised-crash", CHAOS),
)


def run_config(chaos: GridFaultPlan | None):
    """Best-of-N wall time plus digest and recovery counters."""
    best = float("inf")
    digest = None
    stats: dict = {}
    for _ in range(REPEATS):
        with Grid(fleet(N_NODES), tick=1.0, seed=42, workers=2,
                  engine="supervised", grid_chaos=chaos,
                  supervision=SUPERVISION) as grid:
            populate(grid, N_NODES)
            t0 = time.perf_counter()
            grid.run_for(SPAN_SECONDS)
            best = min(best, time.perf_counter() - t0)
            digest = grid.conformance_digest()
            stats = dict(getattr(grid.engine, "stats", {}))
    return best, digest, stats


def test_grid_recovery():
    with Grid(fleet(N_NODES), tick=1.0, seed=42, workers=1,
              engine="serial") as grid:
        populate(grid, N_NODES)
        grid.run_for(SPAN_SECONDS)
        reference = grid.conformance_digest()

    results = {}
    for label, chaos in CONFIGS:
        seconds, digest, stats = run_config(chaos)
        assert digest == reference, f"{label} diverged from serial"
        results[label] = (seconds, stats)

    crash_stats = results["supervised-crash"][1]
    assert crash_stats["failures"]["crash"] == 1
    assert crash_stats["failures"]["garbled"] == 1
    assert crash_stats["restarts"] == 2
    assert not crash_stats["degraded"]

    clean = results["supervised-clean"][0]
    crash = results["supervised-crash"][0]
    recovery = crash / clean
    print(
        f"\nsupervised={clean:.3f}s crash-run={crash:.3f}s "
        f"({recovery:.2f}x, {crash_stats['replayed_epochs']} epochs "
        "replayed)"
    )

    payload = {
        "scenario": {
            "nodes": N_NODES,
            "span_seconds": SPAN_SECONDS,
            "tick": 1.0,
            "seed": 42,
            "workers": 2,
            "repeats": REPEATS,
            "smoke": SMOKE,
            "faults": [
                {"kind": s.kind, "at_epochs": sorted(s.at_epochs or ()),
                 "worker": s.worker}
                for s in CHAOS.specs
            ],
        },
        "targets": {"recovery_max_overhead": RECOVERY_MAX_OVERHEAD},
        "results": {
            label: {
                "seconds": round(seconds, 6),
                "restarts": stats.get("restarts", 0),
                "replayed_epochs": stats.get("replayed_epochs", 0),
                "failures": stats.get("failures", {}),
            }
            for label, (seconds, stats) in results.items()
        },
        "recovery_overhead": round(recovery, 3),
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "BENCH_recovery.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    if not SMOKE:
        assert recovery <= RECOVERY_MAX_OVERHEAD, (
            f"two kills + replay cost {recovery:.2f}x over a clean run"
        )
