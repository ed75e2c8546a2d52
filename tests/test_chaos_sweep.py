"""The chaos sweep: many seeds, zero crashes, zero leaks — plus the
``--chaos SEED`` replay guarantee at the TipTop and CLI layers.

This is the CI smoke version of the acceptance gate: 50 seeded fault
plans drive the full application loop (spawn/kill churn included) and
every run must complete with no unhandled exception and a balanced
open/close ledger.
"""

from __future__ import annotations

import math

import pytest

from repro.core import cli
from repro.core.app import SimHost, TipTop
from repro.core.options import Options
from repro.core.screen import get_screen
from repro.perf.faults import FaultPlan, default_specs
from repro.sim import NEHALEM, SimMachine
from repro.sim.branch import BranchBehavior
from repro.sim.cache import MemoryBehavior
from repro.sim.isa import InstructionMix
from repro.sim.workload import Phase, Workload

ENDLESS = Workload(
    "endless",
    (
        Phase(
            name="steady",
            instructions=math.inf,
            mix=InstructionMix.of(
                int_alu=0.5, load=0.2, store=0.05, branch=0.15, fp_sse=0.1
            ),
            memory=MemoryBehavior(working_set=1 * 1024 * 1024),
            branches=BranchBehavior(mispredict_ratio=0.02),
            exec_cpi=0.5,
            noise=0.0,
        ),
    ),
)

SWEEP_SEEDS = 50


def make_host(faults: FaultPlan | None) -> SimHost:
    machine = SimMachine(NEHALEM, sockets=1, cores_per_socket=2, tick=0.5,
                         seed=17)
    for i in range(3):
        machine.spawn(f"job{i}", ENDLESS)
    # Mid-run churn: one arrival, one departure, via the machine's own
    # timer queue (fires inside the tick loop, like real job turnover).
    machine.spawn_at(1.2, "late", ENDLESS)
    machine.kill_at(2.2, 1001)
    return SimHost(machine, faults=faults)


@pytest.mark.parametrize("seed", range(SWEEP_SEEDS))
def test_sweep_seed_completes_without_leaks(seed):
    host = make_host(FaultPlan(seed, default_specs(2.0)))
    options = Options(delay=1.0, batch=True, chaos=seed)
    blocks: list[str] = []
    with TipTop(host, options) as app:
        assert app.run_batch(4, write=blocks.append) == 4
    assert len(blocks) == 4
    backend = host.backend
    assert backend.opened_total == backend.closed_total
    assert backend.open_handle_count() == 0
    assert host.machine.counters.open_count() == 0


def test_sweep_actually_injects_faults():
    """The sweep must not pass vacuously: across the seeds, faults fire."""
    fired = 0
    for seed in range(10):
        host = make_host(FaultPlan(seed, default_specs(2.0)))
        with TipTop(host, Options(delay=1.0, batch=True, chaos=seed)) as app:
            app.run_batch(4, write=lambda s: None)
        fired += host.backend.faults.stats.total_injected()
    assert fired > 0


class TestReplay:
    def test_tiptop_chaos_replays_byte_identically(self):
        def run(seed: int) -> list[str]:
            host = make_host(None)  # TipTop seeds the plan from options
            options = Options(delay=1.0, batch=True, chaos=seed)
            blocks: list[str] = []
            with TipTop(host, options) as app:
                app.run_batch(4, write=blocks.append)
            return blocks

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_chaos_adds_health_column_once(self):
        host = make_host(None)
        with TipTop(host, Options(chaos=3)) as app:
            headers = [c.header for c in app.screen.columns]
        assert headers.count("HEALTH") == 1
        # A screen that already shows HEALTH keeps its one column.
        shown = get_screen("default").with_health()
        with TipTop(make_host(None), Options(chaos=3), shown) as app:
            assert app.screen is shown

    def test_cli_chaos_replays_byte_identically(self, capsys):
        argv = ["-b", "--sim", "-n", "2", "--chaos", "7"]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert cli.main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "HEALTH" in first

    def test_cli_chaos_requires_sim(self, capsys):
        assert cli.main(["-b", "--chaos", "7", "-n", "1"]) == 2
        err = capsys.readouterr().err
        assert "--sim" in err
