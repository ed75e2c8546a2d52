"""Workload descriptors: phases of instruction-level behaviour.

A :class:`Workload` is an ordered list of :class:`Phase` objects, each a
budget of retired instructions with a fixed behavioural signature
(instruction mix, memory behaviour, branch behaviour, FP operand classes,
and a dependency-limited execution CPI). Phase boundaries are expressed in
*instructions retired*, which is what makes Figure 8's "IPC versus executed
instructions" alignment across architectures natural: the same binary
retires (nearly) the same instruction stream everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.errors import WorkloadError
from repro.sim.branch import BranchBehavior
from repro.sim.cache import MemoryBehavior
from repro.sim.isa import FINITE_OPERANDS, InstructionMix, OperandProfile
from repro.util.stats import left_sum


@dataclass(frozen=True)
class Phase:
    """One behavioural phase of a workload.

    Attributes:
        name: label for debugging and analysis.
        instructions: retired-instruction budget of the phase;
            ``math.inf`` makes the phase endless (long-running services).
        mix: instruction-class fractions.
        memory: working set / locality / streaming / MLP description.
        branches: branch predictability.
        operands: FP operand-class distribution (assist eligibility).
        exec_cpi: dependency-limited execution CPI on the *reference*
            architecture (Nehalem); scaled by ``ArchModel.cpi_scale``
            elsewhere. Excludes all miss/mispredict/assist penalties.
        noise: lognormal sigma applied per scheduling tick to ``exec_cpi``
            (models the run-to-run variability of §2.5).
        arch_factors: per-architecture multipliers on ``exec_cpi`` as
            ``(arch_name, factor)`` pairs. Real code interacts with each
            micro-architecture idiosyncratically (gromacs ripples only on
            Nehalem, astar's last phases shift on PPC970 — §3.2); this is
            the calibration hook for those effects.
    """

    name: str
    instructions: float
    mix: InstructionMix
    memory: MemoryBehavior
    branches: BranchBehavior = field(default_factory=BranchBehavior)
    operands: OperandProfile = FINITE_OPERANDS
    exec_cpi: float = 0.6
    noise: float = 0.03
    arch_factors: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.instructions <= 0:
            raise WorkloadError(
                f"phase {self.name!r} needs a positive instruction budget"
            )
        if self.exec_cpi <= 0:
            raise WorkloadError(f"phase {self.name!r} needs exec_cpi > 0")
        if self.noise < 0:
            raise WorkloadError(f"phase {self.name!r} has negative noise")

    def with_budget(self, instructions: float) -> "Phase":
        """Copy of this phase with a different instruction budget."""
        return replace(self, instructions=instructions)

    def arch_factor(self, arch_name: str) -> float:
        """Execution-CPI multiplier of this phase on ``arch_name`` (1.0 default)."""
        for name, factor in self.arch_factors:
            if name == arch_name:
                return factor
        return 1.0


@dataclass(frozen=True)
class Workload:
    """An ordered sequence of phases, optionally repeated.

    Attributes:
        name: workload label (benchmark name, job name).
        phases: the phase sequence.
        repeat: how many times the whole sequence runs (>= 1);
            ignored if any phase is infinite.
    """

    name: str
    phases: tuple[Phase, ...]
    repeat: int = 1

    def __post_init__(self) -> None:
        if not self.phases:
            raise WorkloadError(f"workload {self.name!r} has no phases")
        if self.repeat < 1:
            raise WorkloadError(f"workload {self.name!r} repeat must be >= 1")
        infinite = [p for p in self.phases if math.isinf(p.instructions)]
        if infinite and infinite[0] is not self.phases[-1] or len(infinite) > 1:
            raise WorkloadError(
                f"workload {self.name!r}: only the final phase may be infinite"
            )

    @property
    def total_instructions(self) -> float:
        """Total retired instructions (inf for endless workloads)."""
        return self._tables()[0] * self.repeat

    def _tables(self) -> tuple[float, tuple[float, ...]]:
        """``(per_pass, cumulative budgets)``, memoised.

        ``locate`` runs on every dispatch of every thread sharing this
        workload; the sums are loop-invariant, so they are accumulated once
        — in exactly the order the unmemoised code used, keeping every
        float identical — and cached on the instance.
        """
        cached = self.__dict__.get("_locate_tables")
        if cached is None:
            per_pass = left_sum(p.instructions for p in self.phases)
            cums: list[float] = []
            cum = 0.0
            for phase in self.phases:
                cum += phase.instructions
                cums.append(cum)
            cached = (per_pass, tuple(cums))
            object.__setattr__(self, "_locate_tables", cached)
        return cached

    def locate(self, retired: float) -> tuple[Phase, float] | None:
        """Phase active after ``retired`` instructions, and budget left in it.

        Returns ``None`` when the workload has completed (the process should
        exit). ``retired`` counts from the very start, across repeats.
        """
        if retired < 0:
            raise WorkloadError(f"retired must be >= 0, got {retired}")
        per_pass, cums = self._tables()
        if math.isinf(per_pass):
            pass_retired = retired
        else:
            # Accumulated float error from walking phase-by-phase can leave
            # `retired` an ulp short of a boundary; snap within a relative
            # epsilon so walkers cannot stall on sub-ulp remainders. The
            # epsilon scales with the *global* cursor (where the ulp noise
            # lives), not with the local pass offset or phase budget.
            eps = 1e-12 * max(per_pass, retired, 1.0)
            full_passes = int((retired + eps) // per_pass)
            if full_passes >= self.repeat:
                return None
            pass_retired = max(0.0, retired - full_passes * per_pass)
        eps = 1e-12 * max(retired, 1.0)
        for phase, cum in zip(self.phases, cums):
            if math.isinf(phase.instructions):
                return phase, math.inf
            if pass_retired < cum - eps:
                return phase, cum - pass_retired
        # retired landed exactly on a pass boundary: start the next pass
        return self.phases[0], self.phases[0].instructions

    def phase_names(self) -> list[str]:
        """Names of the phases in order."""
        return [p.name for p in self.phases]


def steady(name: str, phase: Phase) -> Workload:
    """A single-phase workload (convenience)."""
    return Workload(name=name, phases=(phase,))
