"""Counting vs sampling mode (§2.5/§4, Moore [29]).

Tiptop uses counting — exact but requiring a read per task per event.
Sampling reconstructs the count from PMU interrupts every N events: cheap
but statistical. The simulated kernel implements both; these tests pin the
semantics the ablation bench measures.
"""

import pytest

from repro.errors import CounterStateError
from repro.perf.counter import Counter
from repro.perf.events import resolve_event
from repro.perf.simbackend import SimBackend
from repro.sim.counters import CounterTable
from repro.sim.events import Event
from tests.strategies import lanes


class TestKernelSampling:
    def _accrue(self, table, counter, total, per_tick=1000.0):
        ticks = int(total / per_tick)
        for _ in range(ticks):
            table.accrue(
                counter.tid,
                lanes({counter.event: per_tick}),
                wall_dt=1.0,
                scheduled_dt=1.0,
                alive=True,
            )

    def test_value_is_period_quantised(self):
        table = CounterTable(pmu_width=4, seed=1)
        c = table.open(Event.INSTRUCTIONS, 1, 0, sample_period=997)
        self._accrue(table, c, 100_000.0)
        assert c.value % 997 == 0

    def test_estimate_tracks_truth(self):
        table = CounterTable(pmu_width=4, seed=1)
        c = table.open(Event.INSTRUCTIONS, 1, 0, sample_period=1000)
        self._accrue(table, c, 1_000_000.0)
        assert c.value == pytest.approx(1_000_000.0, rel=0.02)

    def test_sampling_loses_some_interrupts(self):
        """The statistical mode systematically undercounts a little."""
        table = CounterTable(pmu_width=4, seed=5)
        c = table.open(Event.INSTRUCTIONS, 1, 0, sample_period=100)
        self._accrue(table, c, 10_000_000.0)
        assert c.value < 10_000_000.0
        assert c.value == pytest.approx(10_000_000.0, rel=0.01)

    def test_counting_mode_is_exact(self):
        table = CounterTable(pmu_width=4, seed=5)
        c = table.open(Event.INSTRUCTIONS, 1, 0)
        self._accrue(table, c, 10_000_000.0)
        assert c.value == pytest.approx(10_000_000.0, abs=1e-6)

    def test_bad_period_rejected(self):
        table = CounterTable(pmu_width=4)
        with pytest.raises(CounterStateError):
            table.open(Event.CYCLES, 1, 0, sample_period=0)

    def test_carry_preserved_across_ticks(self):
        """Sub-period deltas accumulate instead of vanishing."""
        table = CounterTable(pmu_width=4, seed=1)
        c = table.open(Event.INSTRUCTIONS, 1, 0, sample_period=1000)
        for _ in range(999):
            table.accrue(
                1, lanes({Event.INSTRUCTIONS: 1.0}), wall_dt=1.0,
                scheduled_dt=1.0, alive=True,
            )
        assert c.value == 0  # still below one period
        table.accrue(
            1, lanes({Event.INSTRUCTIONS: 1.0}), wall_dt=1.0, scheduled_dt=1.0,
            alive=True,
        )
        assert c.value == 1000


class TestBackendSampling:
    def test_sampled_counter_through_stack(self, coarse_machine, endless_workload):
        proc = coarse_machine.spawn("j", endless_workload)
        backend = SimBackend(coarse_machine)
        exact = Counter(backend, resolve_event("instructions"), proc.pid)
        sampled = Counter(
            backend, resolve_event("instructions"), proc.pid, sample_period=100_000
        )
        coarse_machine.run_for(10.0)
        d_exact = exact.delta()
        d_sampled = sampled.delta()
        assert d_sampled == pytest.approx(d_exact, rel=0.01)
        assert d_sampled != d_exact  # but not *equal*: it is an estimate

    def test_small_period_more_accurate_than_large(
        self, coarse_machine, endless_workload
    ):
        proc = coarse_machine.spawn("j", endless_workload)
        backend = SimBackend(coarse_machine)
        exact = Counter(backend, resolve_event("instructions"), proc.pid)
        fine = Counter(
            backend, resolve_event("instructions"), proc.pid, sample_period=10_000
        )
        coarse = Counter(
            backend,
            resolve_event("instructions"),
            proc.pid,
            sample_period=1_000_000_000,
        )
        coarse_machine.run_for(5.0)
        truth = exact.delta()
        err_fine = abs(fine.delta() - truth) / truth
        err_coarse = abs(coarse.delta() - truth) / truth
        assert err_fine < err_coarse


class TestMemLatencyEvent:
    """§3.4's outlook: memory-latency counters detect DRAM contention."""

    def test_latency_metric_solo(self, coarse_machine):
        from repro.sim.workloads import spec
        from repro.sim.workload import Workload

        phase = spec.workload("429.mcf").phases[2].with_budget(float("inf"))
        proc = coarse_machine.spawn("mcf", Workload("mcf", (phase,)))
        backend = SimBackend(coarse_machine)
        lat = Counter(backend, resolve_event("mem-latency-cycles"), proc.pid)
        miss = Counter(backend, resolve_event("cache-misses"), proc.pid)
        coarse_machine.run_for(10.0)
        avg_latency = lat.delta() / miss.delta()
        from repro.sim import NEHALEM

        # Near the uncontended DRAM latency when running alone.
        assert avg_latency == pytest.approx(NEHALEM.mem_latency, rel=0.15)

    def test_latency_rises_under_contention(self, endless_workload):
        from repro.sim import NEHALEM, SimMachine
        from repro.sim.workload import Workload
        from repro.sim.workloads import spec

        def avg_latency(n_copies):
            machine = SimMachine(NEHALEM, tick=0.5, seed=8)
            phase = spec.workload("429.mcf").phases[2].with_budget(float("inf"))
            procs = [
                machine.spawn(f"m{i}", Workload("mcf", (phase,)), affinity={i})
                for i in range(n_copies)
            ]
            backend = SimBackend(machine)
            lat = Counter(
                backend, resolve_event("mem-latency-cycles"), procs[0].pid
            )
            miss = Counter(backend, resolve_event("cache-misses"), procs[0].pid)
            machine.run_for(20.0)
            return lat.delta() / miss.delta()

        assert avg_latency(3) > 1.05 * avg_latency(1)

    def test_core2_pmu_lacks_the_counter(self, endless_workload):
        from repro.errors import EventError
        from repro.sim import CORE2, SimMachine

        machine = SimMachine(CORE2, tick=0.5)
        proc = machine.spawn("j", endless_workload)
        backend = SimBackend(machine)
        with pytest.raises(EventError):
            Counter(backend, resolve_event("mem-latency-cycles"), proc.pid)
