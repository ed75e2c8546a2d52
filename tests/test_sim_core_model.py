"""Pipeline rate model and calibration."""

import pytest

from repro.errors import SimulationError
from repro.sim import CORE2, NEHALEM, PPC970
from repro.sim.branch import BranchBehavior
from repro.sim.cache import MemoryBehavior
from repro.sim.core import (
    calibrate_phase,
    compute_rates,
    exec_cpi_for_target_ipc,
    memory_cpi,
    solo_rates,
)
from repro.sim.events import EVENT_CODE, Event
from repro.sim.isa import InstructionMix, OperandProfile
from repro.sim.workload import Phase


def _phase(**kw):
    defaults = dict(
        name="p",
        instructions=1e9,
        mix=InstructionMix.of(int_alu=0.5, load=0.25, branch=0.15, fp_x87=0.1),
        memory=MemoryBehavior(working_set=1 << 20),
        branches=BranchBehavior(mispredict_ratio=0.02),
        exec_cpi=0.6,
        noise=0.0,
    )
    defaults.update(kw)
    return Phase(**defaults)


class TestComputeRates:
    def test_cpi_is_sum_of_components(self):
        r = solo_rates(NEHALEM, _phase())
        assert r.cpi == pytest.approx(
            r.cpi_exec + r.cpi_memory + r.cpi_branch + r.cpi_assist
        )

    def test_events_have_instructions_unity(self):
        r = solo_rates(NEHALEM, _phase())
        assert r.rate(Event.INSTRUCTIONS) == 1.0
        assert r.rate(Event.CYCLES) == pytest.approx(r.cpi)

    def test_event_rates_match_mix(self):
        p = _phase()
        r = solo_rates(NEHALEM, p)
        assert r.rate(Event.LOADS) == p.mix.loads
        assert r.rate(Event.BRANCH_INSTRUCTIONS) == p.mix.branches
        assert r.rate(Event.X87_OPERATIONS) == p.mix.x87_ops

    def test_llc_events_for_three_level_arch(self):
        r = solo_rates(NEHALEM, _phase())
        assert r.rate(Event.L3_ACCESSES) > 0
        assert r.rate(Event.CACHE_MISSES) == pytest.approx(
            r.rate(Event.L3_MISSES)
        )

    def test_two_level_arch_has_no_l3(self):
        r = solo_rates(PPC970, _phase())
        assert r.rate(Event.L3_ACCESSES) == 0.0
        assert r.rate(Event.L3_MISSES) == 0.0
        assert r.rate(Event.CACHE_MISSES) == pytest.approx(
            r.rate(Event.L2_MISSES)
        )

    def test_issue_share_slows_exec_only(self):
        p = _phase()
        caps = [(s, float(s.size)) for s in NEHALEM.cache_levels]
        solo = compute_rates(NEHALEM, p, caps, issue_share=1.0)
        smt = compute_rates(NEHALEM, p, caps, issue_share=0.5)
        assert smt.cpi_exec == pytest.approx(2 * solo.cpi_exec)
        assert smt.cpi_memory == pytest.approx(solo.cpi_memory)

    def test_issue_share_bounds(self):
        p = _phase()
        caps = [(s, float(s.size)) for s in NEHALEM.cache_levels]
        with pytest.raises(SimulationError):
            compute_rates(NEHALEM, p, caps, issue_share=0.0)
        with pytest.raises(SimulationError):
            compute_rates(NEHALEM, p, caps, issue_share=1.5)

    def test_noise_factor_scales_exec(self):
        p = _phase()
        caps = [(s, float(s.size)) for s in NEHALEM.cache_levels]
        calm = compute_rates(NEHALEM, p, caps, noise_factor=1.0)
        rough = compute_rates(NEHALEM, p, caps, noise_factor=1.2)
        assert rough.cpi_exec == pytest.approx(1.2 * calm.cpi_exec)

    def test_assist_tax_visible(self):
        p = _phase(operands=OperandProfile(nonfinite=1.0))
        r = solo_rates(NEHALEM, p)
        assert r.cpi_assist > 10  # 0.1 x87 * 264 cycles
        assert r.rate(Event.FP_ASSIST) == pytest.approx(0.1)

    def test_memory_latency_override(self):
        p = _phase(memory=MemoryBehavior(working_set=1 << 28))
        caps = [(s, float(s.size)) for s in NEHALEM.cache_levels]
        fast = compute_rates(NEHALEM, p, caps, mem_latency_cycles=100.0)
        slow = compute_rates(NEHALEM, p, caps, mem_latency_cycles=400.0)
        assert slow.cpi_memory > fast.cpi_memory

    def test_arch_factor_applies(self):
        p = _phase(arch_factors=(("ppc970", 2.0),))
        base = solo_rates(PPC970, _phase())
        scaled = solo_rates(PPC970, p)
        assert scaled.cpi_exec == pytest.approx(2 * base.cpi_exec)

    def test_ipc_property(self):
        r = solo_rates(NEHALEM, _phase())
        assert r.ipc == pytest.approx(1 / r.cpi)

    def test_event_lanes_are_read_only(self):
        """A RateCache hands one rates object to every machine of a
        shard, so no reader may write a lane."""
        from repro.sim.core import RateCache

        caps = [(s, float(s.size)) for s in NEHALEM.cache_levels]
        cache = RateCache()
        p = _phase()
        cache.rates(NEHALEM, p, caps)
        hit = cache.rates(NEHALEM, p, caps)
        assert cache.hits == 1
        for r in (solo_rates(NEHALEM, p), hit):
            with pytest.raises(ValueError):
                r.events[EVENT_CODE[Event.CYCLES]] = 0.0


class TestMemoryCpi:
    def test_mlp_divides(self):
        p = _phase(memory=MemoryBehavior(working_set=1 << 28, mlp=1.0))
        q = _phase(memory=MemoryBehavior(working_set=1 << 28, mlp=4.0))
        assert solo_rates(NEHALEM, p).cpi_memory == pytest.approx(
            4 * solo_rates(NEHALEM, q).cpi_memory
        )

    def test_bad_mlp(self):
        r = solo_rates(NEHALEM, _phase())
        with pytest.raises(SimulationError):
            memory_cpi(r.miss_profile, list(NEHALEM.cache_levels), 180.0, mlp=0)


class TestCalibration:
    @pytest.mark.parametrize("target", [0.5, 1.0, 1.5, 1.8])
    def test_roundtrip(self, target):
        calibrated = calibrate_phase(NEHALEM, _phase(), target)
        assert solo_rates(NEHALEM, calibrated).ipc == pytest.approx(target, rel=1e-6)

    def test_high_ipc_needs_friendly_memory(self):
        friendly = _phase(memory=MemoryBehavior(working_set=16 * 1024))
        calibrated = calibrate_phase(NEHALEM, friendly, 2.5)
        assert solo_rates(NEHALEM, calibrated).ipc == pytest.approx(2.5, rel=1e-6)

    def test_unreachable_raises(self):
        heavy = _phase(
            memory=MemoryBehavior(working_set=1 << 31, mlp=1.0, locality=0.2)
        )
        with pytest.raises(SimulationError):
            exec_cpi_for_target_ipc(NEHALEM, heavy, 3.9)

    def test_nonpositive_target_rejected(self):
        with pytest.raises(SimulationError):
            exec_cpi_for_target_ipc(NEHALEM, _phase(), 0.0)

    def test_transfers_across_archs(self):
        """A memory-touching phase calibrated on Nehalem is slower on the
        older machines (Fig. 6's ordering); PPC970 is slowest."""
        p = calibrate_phase(
            NEHALEM,
            _phase(memory=MemoryBehavior(working_set=64 << 20, mlp=3.0)),
            0.9,
        )
        core2 = solo_rates(CORE2, p).ipc
        ppc = solo_rates(PPC970, p).ipc
        assert core2 < 0.9
        assert ppc < core2


class TestRateCacheEviction:
    """A full store must shed its *oldest* half, not thrash to empty."""

    def _fill(self, cache, n, start=0):
        phases = []
        for i in range(start, start + n):
            p = _phase(name=f"p{i}")
            phases.append(p)
            cache.rates(NEHALEM, p, [(s, float(s.size)) for s in NEHALEM.cache_levels])
        return phases

    def test_insert_at_capacity_evicts_oldest_half(self):
        from repro.sim.core import RateCache

        cache = RateCache(max_entries=8)
        phases = self._fill(cache, 8)
        assert len(cache) == 8
        extra = self._fill(cache, 1, start=100)
        # Oldest 4 gone, newest 4 survived, plus the trigger entry.
        assert len(cache) == 5
        caps = [(s, float(s.size)) for s in NEHALEM.cache_levels]
        hits_before = cache.hits
        for p in phases[4:] + extra:
            cache.rates(NEHALEM, p, caps)
        assert cache.hits == hits_before + 5
        misses_before = cache.misses
        for p in phases[:4]:
            cache.rates(NEHALEM, p, caps)
        assert cache.misses == misses_before + 4

    def test_drifting_working_set_stays_warm(self):
        """The grid's co-schedule population drifts as jobs come and go
        (a sliding window over phase keys). Wholesale clear() repeatedly
        dropped the still-live window (~68% hit rate on this script);
        keeping the recent half keeps it warm."""
        from repro.sim.core import RateCache

        cache = RateCache(max_entries=8)
        caps = [(s, float(s.size)) for s in NEHALEM.cache_levels]
        phases = [_phase(name=f"w{i}") for i in range(64)]
        accesses = 0
        for start in range(60):
            for p in phases[start:start + 5]:
                cache.rates(NEHALEM, p, caps)
                accesses += 1
        assert cache.hits / accesses > 0.75

    def test_hit_returns_identical_object_after_eviction_cycles(self):
        from repro.sim.core import RateCache

        cache = RateCache(max_entries=4)
        p = _phase(name="keep")
        caps = [(s, float(s.size)) for s in NEHALEM.cache_levels]
        first = cache.rates(NEHALEM, p, caps)
        self._fill(cache, 16, start=50)  # churn through several evictions
        again = cache.rates(NEHALEM, p, caps)
        # Entry was evicted and recomputed: equal rates, fresh object.
        assert again.events.tobytes() == first.events.tobytes()
        for name in ("cpi", "cpi_exec", "cpi_memory", "cpi_branch",
                     "cpi_assist"):
            assert getattr(again, name).hex() == getattr(first, name).hex()
        assert again.miss_profile == first.miss_profile

    def test_clear_still_empties(self):
        from repro.sim.core import RateCache

        cache = RateCache(max_entries=8)
        self._fill(cache, 5)
        cache.clear()
        assert len(cache) == 0
