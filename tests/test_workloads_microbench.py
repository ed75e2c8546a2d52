"""The Figure 4/5 micro-benchmark model (Table 1)."""

import pytest

from repro.errors import WorkloadError
from repro.sim import NEHALEM, PPC970
from repro.sim.core import solo_rates
from repro.sim.events import Event
from repro.sim.workloads.microbench import (
    FINITE_EXEC_CPI,
    INSTRUCTIONS_PER_ITERATION,
    fp_microbench,
)


class TestConstruction:
    def test_four_instructions_per_iteration(self):
        w = fp_microbench("x87", "finite", iterations=1000)
        assert w.total_instructions == 4000

    def test_mix_matches_figure5(self):
        """addq, fadd, cmpq, jne: 50 % int ALU, 25 % FP, 25 % branch."""
        phase = fp_microbench("x87", "finite").phases[0]
        assert phase.mix.x87_ops == pytest.approx(0.25)
        assert phase.mix.branches == pytest.approx(0.25)
        assert phase.mix.mem_refs == 0.0

    def test_sse_variant_uses_sse(self):
        phase = fp_microbench("sse", "finite").phases[0]
        assert phase.mix.sse_ops == pytest.approx(0.25)
        assert phase.mix.x87_ops == 0.0

    def test_bad_isa(self):
        with pytest.raises(WorkloadError):
            fp_microbench("avx512", "finite")

    def test_bad_operand_class(self):
        with pytest.raises(WorkloadError):
            fp_microbench("x87", "subnormal")

    def test_bad_iterations(self):
        with pytest.raises(WorkloadError):
            fp_microbench("x87", "finite", iterations=0)


class TestTable1:
    """The measured behaviour of Table 1."""

    def _ipc(self, isa, operands, arch=NEHALEM):
        return solo_rates(arch, fp_microbench(isa, operands).phases[0]).ipc

    def _assist_pct(self, isa, operands, arch=NEHALEM):
        r = solo_rates(arch, fp_microbench(isa, operands).phases[0])
        return 100 * r.rate(Event.FP_ASSIST)

    def test_x87_finite(self):
        assert self._ipc("x87", "finite") == pytest.approx(1.33, abs=0.01)
        assert self._assist_pct("x87", "finite") == 0.0

    def test_x87_infinite(self):
        assert self._ipc("x87", "inf") == pytest.approx(0.015, abs=0.002)
        assert self._assist_pct("x87", "inf") == pytest.approx(25.0)

    def test_x87_nan_same_as_inf(self):
        assert self._ipc("x87", "nan") == self._ipc("x87", "inf")

    def test_sse_unaffected(self):
        assert self._ipc("sse", "inf") == pytest.approx(1.33, abs=0.01)
        assert self._assist_pct("sse", "inf") == 0.0

    def test_87x_slowdown(self):
        slow = self._ipc("x87", "finite") / self._ipc("x87", "inf")
        assert slow == pytest.approx(87.0, rel=0.06)

    def test_ppc970_immune(self):
        """Fig. 3d's root cause: no assist mechanism on the PowerPC."""
        fin = self._ipc("x87", "finite", PPC970)
        inf = self._ipc("x87", "inf", PPC970)
        assert inf == pytest.approx(fin, rel=0.01)

    def test_exec_cpi_is_dependency_bound(self):
        # 4 instructions in 3 cycles: the FP-add chain.
        assert FINITE_EXEC_CPI == pytest.approx(3 / INSTRUCTIONS_PER_ITERATION)
