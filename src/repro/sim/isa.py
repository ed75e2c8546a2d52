"""Instruction classes and instruction-mix descriptors.

A workload phase is characterised not by a trace but by the *fractions* of
each instruction class it retires — the level of abstraction at which the
paper's metrics (IPC, LPI, FPI, BPI, miss ratios) live (§2.6).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property

from repro.errors import WorkloadError


class InstructionClass(enum.Enum):
    """Retired-instruction categories distinguished by the pipeline model."""

    INT_ALU = "int-alu"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    FP_SSE = "fp-sse"
    FP_X87 = "fp-x87"
    NOP = "nop"


@dataclass(frozen=True)
class InstructionMix:
    """Fractions of retired instructions per class; must sum to 1.

    The class fractions the pipeline model reads (``loads``, ``fp_ops``,
    ...) are resolved once per mix, on first read.

    Use :meth:`of` to build one from keyword fractions with validation::

        mix = InstructionMix.of(int_alu=0.5, load=0.25, branch=0.25)
    """

    fractions: dict[InstructionClass, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        total = sum(self.fractions.values())
        if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-6):
            raise WorkloadError(f"instruction mix sums to {total}, expected 1.0")
        for cls, frac in self.fractions.items():
            if frac < 0:
                raise WorkloadError(f"negative fraction {frac} for {cls}")

    @classmethod
    def of(cls, **kwargs: float) -> "InstructionMix":
        """Build a mix from keyword fractions named after the enum values.

        Keyword names are the enum member names lower-cased
        (``int_alu``, ``load``, ``store``, ``branch``, ``fp_sse``,
        ``fp_x87``, ``nop``).
        """
        fractions: dict[InstructionClass, float] = {}
        for name, frac in kwargs.items():
            try:
                member = InstructionClass[name.upper()]
            except KeyError as exc:
                raise WorkloadError(f"unknown instruction class {name!r}") from exc
            fractions[member] = frac
        return cls(fractions)

    def fraction(self, ic: InstructionClass) -> float:
        """Fraction of retired instructions in class ``ic`` (0 if absent)."""
        return self.fractions.get(ic, 0.0)

    @cached_property
    def loads(self) -> float:
        """Load fraction (the paper's LPI when multiplied by 1)."""
        return self.fraction(InstructionClass.LOAD)

    @cached_property
    def stores(self) -> float:
        """Store fraction."""
        return self.fraction(InstructionClass.STORE)

    @cached_property
    def mem_refs(self) -> float:
        """Memory references (loads + stores) per instruction."""
        return self.loads + self.stores

    @cached_property
    def branches(self) -> float:
        """Branch fraction (BPI)."""
        return self.fraction(InstructionClass.BRANCH)

    @cached_property
    def fp_ops(self) -> float:
        """Floating-point fraction (FPI), both x87 and SSE."""
        return self.fraction(InstructionClass.FP_SSE) + self.fraction(
            InstructionClass.FP_X87
        )

    @cached_property
    def x87_ops(self) -> float:
        """x87 floating-point fraction (assist-eligible on Intel models)."""
        return self.fraction(InstructionClass.FP_X87)

    @cached_property
    def sse_ops(self) -> float:
        """SSE floating-point fraction."""
        return self.fraction(InstructionClass.FP_SSE)

    def scaled_toward(self, other: "InstructionMix", weight: float) -> "InstructionMix":
        """Linear blend of two mixes (``weight`` toward ``other``).

        Used by workload builders to interpolate between phase mixes.
        """
        if not 0 <= weight <= 1:
            raise WorkloadError(f"blend weight must be in [0, 1], got {weight}")
        classes = set(self.fractions) | set(other.fractions)
        blended = {
            ic: (1 - weight) * self.fraction(ic) + weight * other.fraction(ic)
            for ic in classes
        }
        return InstructionMix(blended)


@dataclass(frozen=True)
class OperandProfile:
    """Distribution of floating-point operand classes within a phase.

    ``nonfinite`` is the fraction of FP operations whose operands are
    Inf/NaN; ``denormal`` the fraction on denormals. Both trigger micro-code
    assist on architectures that have the mechanism (§3.1); regular values
    never do.
    """

    nonfinite: float = 0.0
    denormal: float = 0.0

    def __post_init__(self) -> None:
        for name, value in (("nonfinite", self.nonfinite), ("denormal", self.denormal)):
            if not 0 <= value <= 1:
                raise WorkloadError(f"{name} fraction must be in [0, 1], got {value}")
        if self.nonfinite + self.denormal > 1 + 1e-9:
            raise WorkloadError("operand class fractions exceed 1")

    @property
    def assist_eligible(self) -> float:
        """Fraction of FP operations that can require micro-code assist."""
        return self.nonfinite + self.denormal


#: All-finite operands — the common case.
FINITE_OPERANDS = OperandProfile()
