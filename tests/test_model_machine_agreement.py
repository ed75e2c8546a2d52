"""Cross-validation: the analytic model vs the executing machine.

The benchmarks trust that what `solo_rates` predicts is what the machine
produces. These tests close that loop across the workload library: run
real workloads to completion on the machine and compare run time, mean
IPC and event totals against pure-model predictions.
"""

import math

import pytest

from repro.pin.inscount import native_run_time
from repro.sim import NEHALEM, PPC970, SimMachine
from repro.sim.core import solo_rates
from repro.sim.events import Event
from repro.sim.workload import Workload
from repro.sim.workloads import spec


def _run_to_completion(arch, workload, tick=1.0, seed=5):
    machine = SimMachine(arch, tick=tick, seed=seed)
    proc = machine.spawn("job", workload)
    counters = {
        e: machine.counters.open(e, proc.pid, proc.uid)
        for e in (Event.INSTRUCTIONS, Event.CYCLES, Event.CACHE_MISSES)
    }
    guard = 0
    while proc.alive and guard < 100_000:
        machine.run_for(10.0)
        guard += 1
    assert not proc.alive, "workload must finish"
    return machine, proc, {e: c.value for e, c in counters.items()}


def _noise_free(workload: Workload) -> Workload:
    from dataclasses import replace

    return Workload(
        workload.name,
        tuple(replace(p, noise=0.0) for p in workload.phases),
        repeat=workload.repeat,
    )


@pytest.mark.parametrize(
    "bench", ["429.mcf", "456.hmmer", "470.lbm", "464.h264ref"]
)
def test_machine_matches_model_run_time(bench):
    workload = _noise_free(spec.workload(bench))
    predicted = native_run_time(NEHALEM, workload)
    machine, proc, counts = _run_to_completion(NEHALEM, workload)
    assert proc.cpu_time == pytest.approx(predicted, rel=0.02)
    assert counts[Event.INSTRUCTIONS] == pytest.approx(
        workload.total_instructions, rel=1e-9
    )


def test_machine_matches_model_mean_ipc():
    workload = _noise_free(spec.workload("482.sphinx3"))
    machine, proc, counts = _run_to_completion(NEHALEM, workload)
    measured = counts[Event.INSTRUCTIONS] / counts[Event.CYCLES]
    # Weighted-harmonic model mean.
    cycles = sum(
        p.instructions / solo_rates(NEHALEM, p).ipc for p in workload.phases
    )
    predicted = workload.total_instructions / cycles
    assert measured == pytest.approx(predicted, rel=0.02)


def test_machine_matches_model_llc_misses():
    workload = _noise_free(spec.workload("429.mcf"))
    machine, proc, counts = _run_to_completion(NEHALEM, workload)
    predicted = sum(
        p.instructions * solo_rates(NEHALEM, p).rate(Event.CACHE_MISSES)
        for p in workload.phases
    )
    # Bus contention from the task itself can shift the effective latency
    # but never the miss *count* — misses depend on capacities alone.
    assert counts[Event.CACHE_MISSES] == pytest.approx(predicted, rel=0.01)


def test_cross_arch_run_time_ordering():
    workload = _noise_free(spec.workload("473.astar"))
    ppc_workload = _noise_free(spec.ppc_workload("473.astar"))
    _, neh, _ = _run_to_completion(NEHALEM, workload)
    _, ppc, _ = _run_to_completion(PPC970, ppc_workload, tick=2.0)
    assert ppc.cpu_time > 1.5 * neh.cpu_time
