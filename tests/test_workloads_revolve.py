"""The §3.1 R evolutionary-algorithm model (Figure 3)."""

import pytest

from repro.sim import NEHALEM, PPC970
from repro.sim.core import solo_rates
from repro.sim.events import Event
from repro.sim.workloads import revolve


class TestStructure:
    def test_original_starts_nominal(self):
        w = revolve.original()
        assert w.phases[0].name == "nominal"
        assert w.phases[0].instructions == pytest.approx(
            revolve.DIVERGENCE_STEP * revolve.STEP_INSTRUCTIONS
        )

    def test_original_has_pulses(self):
        w = revolve.original()
        names = w.phase_names()
        assert sum(1 for n in names if n.startswith("diverged")) == revolve.PULSE_CHUNKS
        assert sum(1 for n in names if n.startswith("pulse")) == revolve.PULSE_CHUNKS

    def test_diverged_instruction_budget(self):
        w = revolve.original()
        diverged = sum(
            p.instructions for p in w.phases if p.name.startswith("diverged")
        )
        pulses = sum(p.instructions for p in w.phases if p.name.startswith("pulse"))
        assert diverged + pulses == pytest.approx(revolve.DIVERGED_INSTRUCTIONS)

    def test_clipped_is_single_phase(self):
        w = revolve.clipped()
        assert len(w.phases) == 1
        assert w.phases[0].operands.assist_eligible == 0.0


class TestCalibration:
    def test_nominal_ipc_is_one(self):
        """Fig. 3a's first plateau."""
        w = revolve.original()
        assert solo_rates(NEHALEM, w.phases[0]).ipc == pytest.approx(1.0, rel=1e-6)

    def test_diverged_ipc_collapse(self):
        """Fig. 3a: IPC drops to ~0.03 after step 953."""
        w = revolve.original()
        diverged = next(p for p in w.phases if p.name.startswith("diverged"))
        assert solo_rates(NEHALEM, diverged).ipc == pytest.approx(0.03, abs=0.005)

    def test_diverged_assist_rate(self):
        """Fig. 3c's right axis: ~12 assists per 100 instructions."""
        w = revolve.original()
        diverged = next(p for p in w.phases if p.name.startswith("diverged"))
        rate = solo_rates(NEHALEM, diverged).rate(Event.FP_ASSIST)
        assert 100 * rate == pytest.approx(12.25, abs=1.0)

    def test_ppc_no_collapse(self):
        """Fig. 3d: same workload, no assist mechanism, no collapse."""
        w = revolve.original()
        nominal = solo_rates(PPC970, w.phases[0]).ipc
        diverged = solo_rates(
            PPC970, next(p for p in w.phases if p.name.startswith("diverged"))
        ).ipc
        assert diverged == pytest.approx(nominal, rel=0.25)
        assert nominal < 0.5  # much slower machine for this interpreter

    def test_speedups_match_paper(self):
        """§3.1: clipping gives ~2.3x overall and ~4.8x on the faulty part."""
        from repro.pin.inscount import native_run_time

        original = native_run_time(NEHALEM, revolve.original())
        clipped = native_run_time(NEHALEM, revolve.clipped())
        assert original / clipped == pytest.approx(2.3, rel=0.15)

        nominal_time = revolve.DIVERGENCE_STEP * revolve.STEP_INSTRUCTIONS / (
            1.0 * NEHALEM.freq_hz
        )
        faulty_original = original - nominal_time
        faulty_clipped = clipped - nominal_time
        assert faulty_original / faulty_clipped == pytest.approx(4.8, rel=0.2)

    def test_run_length_matches_fig3a(self):
        """~3327 five-second samples end to end on Nehalem."""
        from repro.pin.inscount import native_run_time

        total = native_run_time(NEHALEM, revolve.original())
        samples = total / revolve.SAMPLE_PERIOD
        assert samples == pytest.approx(3327, rel=0.12)
