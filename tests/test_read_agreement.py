"""Batched vs per-handle counter reads must agree under faults.

Regression for a real divergence: the per-handle fallback in
``CounterGroup.read_deltas`` used to fold each counter's delta baseline
as it read. An EINTR injected mid-group (counter k of n) then left the
first k-1 baselines already advanced, so the sampler's retry re-read
identical values and silently reported zero deltas for those counters —
while the batched path (which reads everything before any baseline
moves) reported the full interval. Both paths are two-phase now; the
conformance harness's read-agreement oracle locks the contract, and
:class:`TestOracleHonesty` checks that its ``sequential`` run really
reads per handle.
"""

from collections import Counter
from pathlib import Path

import pytest

from repro.errors import PerfInterruptedError
from repro.perf.counter import CounterGroup
from repro.perf.events import resolve_event
from repro.perf.faults import FaultPlan, FaultSpec
from repro.perf.simbackend import SimBackend
from repro.core import sampler as sampler_module
from repro.verify import runner
from repro.verify.runner import _SequentialBackend, run_tool
from repro.verify.scenario import Scenario, TaskPlan

EVENTS = ("cycles", "instructions", "cache-misses")


def _machine_with_task(coarse_machine, endless_workload):
    proc = coarse_machine.spawn("busy", endless_workload)
    return coarse_machine, proc.pid


def _group(backend, tid):
    return CounterGroup(backend, [resolve_event(n) for n in EVENTS], tid)


def _eintr_plan():
    """EINTR on the 5th read: the middle counter of the second batch
    (the baseline consumed reads 1-3). Plans hold per-op call indices,
    so every run under comparison needs its own fresh instance."""
    return FaultPlan(1, (FaultSpec("read", "eintr", at_calls=frozenset({5})),))


class TestCounterGroupAgreement:
    def _deltas_after_fault(self, machine, endless_workload, *, sequential):
        machine, pid = _machine_with_task(machine, endless_workload)
        backend = SimBackend(machine, 0, faults=_eintr_plan())
        if sequential:
            backend = _SequentialBackend(backend)
        with _group(backend, pid) as group:
            group.read_deltas()  # baseline: reads 1-3
            machine.run_for(2.0)
            with pytest.raises(PerfInterruptedError):
                group.read_deltas()  # reads 4-5: aborts mid-group
            return group.read_deltas()  # the retry: reads 6-8

    def test_sequential_retry_keeps_full_interval(
        self, coarse_machine, endless_workload
    ):
        deltas = self._deltas_after_fault(
            coarse_machine, endless_workload, sequential=True
        )
        # The old lazy fallback returned 0.0 here for the counter read
        # before the fault (its baseline had already moved).
        assert all(deltas[name] > 0 for name in ("cycles", "instructions"))

    def test_paths_agree_exactly(self, endless_workload):
        from repro.sim import NEHALEM, SimMachine

        results = []
        for sequential in (False, True):
            machine = SimMachine(
                NEHALEM, sockets=1, cores_per_socket=4, tick=0.5, seed=11
            )
            results.append(
                self._deltas_after_fault(
                    machine, endless_workload, sequential=sequential
                )
            )
        assert results[0] == results[1]


class TestScenarioLevelAgreement:
    @pytest.fixture
    def scenario(self):
        return Scenario(
            kind="tool",
            seed=9,
            tick=0.25,
            delay=1.0,
            iterations=3,
            tasks=(
                TaskPlan(
                    name="busy", archetype="compute", target_ipc=1.8,
                    duration=float("inf"),
                ),
            ),
            faults=(FaultSpec(op="read", error="eintr", at_calls=(5,)),),
        )

    def test_fault_actually_fires(self, scenario):
        run = run_tool(scenario)
        assert run.read_retries > 0

    def test_oracle_is_green(self, scenario):
        from repro.verify import check_scenario

        violations = check_scenario(scenario)
        assert violations == [], "\n".join(
            f"[{v.oracle}] {v.message}" for v in violations
        )


class _CountingSimBackend(SimBackend):
    """Counts per-handle and batched reads on the real backend."""

    calls: Counter = Counter()

    def read(self, handle):
        self.calls["read"] += 1
        return super().read(handle)

    def read_groups(self, groups):
        self.calls["read_groups"] += 1
        return super().read_groups(groups)


class TestOracleHonesty:
    """The read-agreement oracle compares batched with per-handle reads
    only if the ``sequential`` run never reaches a batched method."""

    CORPUS = Path(__file__).parent / "corpus"

    def _run(self, monkeypatch, name, *, sequential):
        calls = Counter()
        passes: list[tuple[int, int, int]] = []
        read_groups = sampler_module.read_groups

        def tallied(backend, groups):
            before = (calls["read"], calls["read_groups"])
            reads = read_groups(backend, groups)
            passes.append(
                (
                    sum(map(len, groups)),
                    calls["read"] - before[0],
                    calls["read_groups"] - before[1],
                )
            )
            return reads

        monkeypatch.setattr(_CountingSimBackend, "calls", calls)
        monkeypatch.setattr(runner, "SimBackend", _CountingSimBackend)
        monkeypatch.setattr(sampler_module, "read_groups", tallied)
        scenario = Scenario.from_json((self.CORPUS / name).read_text())
        run = run_tool(scenario, sequential=sequential)
        assert len(passes) == scenario.iterations + 1
        return run, passes

    def test_sequential_run_reads_every_counter_itself(self, monkeypatch):
        _, passes = self._run(
            monkeypatch, "columnar-duty-churn.json", sequential=True
        )
        for handles, reads, batched in passes:
            assert batched == 0
            assert reads >= handles
        assert sum(handles for handles, _, _ in passes) > 0

    def test_sequential_chaos_run_makes_no_batched_call(self, monkeypatch):
        run, passes = self._run(monkeypatch, "fault-storm.json", sequential=True)
        assert run.read_retries > 0  # the chaos plan really fires
        assert all(batched == 0 and reads > 0 for _, reads, batched in passes[1:])

    @pytest.mark.parametrize(
        "name", ["columnar-duty-churn.json", "fault-storm.json"]
    )
    def test_batched_run_makes_one_call_per_pass(self, monkeypatch, name):
        _, passes = self._run(monkeypatch, name, sequential=False)
        for _, reads, batched in passes:
            assert batched == 1
            assert reads == 0
