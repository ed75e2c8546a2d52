"""Hand-crafted micro-kernels with analytically known event counts (§2.4).

The paper's first validation: "we manually crafted micro-kernels for which
we can analytically estimate the number of instructions (by inspecting the
assembly file of a single basic-block loop), the number of cache misses or
the misprediction ratio (random or periodic indirect jumps to well known
locations). Tiptop reports numbers in line with predictions."

This module provides exactly that workflow:

* a tiny assembly-like description of a single basic-block loop
  (:class:`Instr` / :class:`MicroKernel`) — the Figure 5 listings are
  expressible verbatim;
* an **analytic predictor** (:meth:`MicroKernel.predict`) computing exact
  per-event totals from the listing: instructions, branches, mispredicts
  (periodic or random indirect-jump patterns), loads/stores, cache misses
  from a stride/footprint model;
* a compiler to the machine substrate (:meth:`MicroKernel.to_workload`),
  so the same kernel runs under the full tiptop stack and the counter
  readings can be checked against the predictions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import WorkloadError
from repro.sim.arch import ArchModel
from repro.sim.branch import BranchBehavior, random_jump_ratio
from repro.sim.cache import MemoryBehavior
from repro.sim.events import Event
from repro.sim.isa import InstructionClass, InstructionMix, OperandProfile
from repro.sim.workload import Phase, Workload


class Op(enum.Enum):
    """Micro-kernel opcodes (the subset the paper's kernels need)."""

    ALU = "alu"          # addq/cmpq-style integer op
    LOAD = "load"        # memory read
    STORE = "store"      # memory write
    FADD_X87 = "fadd"    # x87 FP add (assist-eligible)
    ADDSD_SSE = "addsd"  # SSE scalar FP add
    BRANCH = "branch"    # conditional loop branch (predictable)
    IJMP = "ijmp"        # indirect jump with a target pattern
    NOP = "nop"


@dataclass(frozen=True)
class Instr:
    """One static instruction of the loop body.

    Attributes:
        op: the opcode.
        targets: for IJMP: number of distinct jump targets.
        pattern: for IJMP: ``"periodic"`` (perfectly predicted after
            warm-up) or ``"random"`` (mispredicts at 1 - 1/targets).
        nonfinite: for FP ops: operands are Inf/NaN (assist on x87).
    """

    op: Op
    targets: int = 1
    pattern: str = "periodic"
    nonfinite: bool = False

    def __post_init__(self) -> None:
        if self.op is Op.IJMP:
            if self.targets < 1:
                raise WorkloadError("ijmp needs >= 1 target")
            if self.pattern not in ("periodic", "random"):
                raise WorkloadError(
                    f"ijmp pattern must be periodic|random, got {self.pattern!r}"
                )


@dataclass(frozen=True)
class Prediction:
    """Analytic per-event totals for a full kernel run."""

    counts: dict[Event, float]

    def __getitem__(self, event: Event) -> float:
        return self.counts.get(event, 0.0)

    @property
    def mispredict_ratio(self) -> float:
        """Predicted mispredicts per branch."""
        branches = self[Event.BRANCH_INSTRUCTIONS]
        return self[Event.BRANCH_MISSES] / branches if branches else 0.0


@dataclass(frozen=True)
class MicroKernel:
    """A single basic-block loop.

    Attributes:
        name: kernel label.
        body: the loop body's instructions (the loop branch included).
        iterations: trip count.
        footprint: bytes the loop touches (drives cache-miss prediction).
        stride: bytes between consecutive memory accesses; with a 64-byte
            line, stride >= 64 makes every access a (predictable) miss for
            footprints beyond the cache, stride 0 keeps everything in
            registers/one line.
    """

    name: str
    body: tuple[Instr, ...]
    iterations: float
    footprint: int = 0
    stride: int = 0

    def __post_init__(self) -> None:
        if not self.body:
            raise WorkloadError(f"kernel {self.name!r} has an empty body")
        if self.iterations < 1:
            raise WorkloadError(f"kernel {self.name!r} needs >= 1 iteration")
        if self.footprint < 0 or self.stride < 0:
            raise WorkloadError(f"kernel {self.name!r}: negative geometry")

    # -- static structure ----------------------------------------------------
    def _count_ops(self, *ops: Op) -> int:
        return sum(1 for i in self.body if i.op in ops)

    # -- analytic prediction ---------------------------------------------------
    def _miss_ratio(self, arch: ArchModel) -> float:
        """Fraction of memory accesses missing the LLC, from the stride
        model: footprints within the LLC never miss after warm-up; beyond
        it, every new line is a miss (one per line / accesses per line)."""
        refs = self._count_ops(Op.LOAD, Op.STORE)
        if refs == 0 or self.footprint == 0 or self.stride == 0:
            return 0.0
        if self.footprint <= arch.llc.size:
            return 0.0
        accesses_per_line = max(1, arch.llc.line // self.stride)
        return min(1.0, 1.0 / accesses_per_line)

    def predict(self, arch: ArchModel) -> Prediction:
        """Exact expected totals for the whole run on ``arch``."""
        n = self.iterations
        counts: dict[Event, float] = {}
        counts[Event.INSTRUCTIONS] = len(self.body) * n
        branches = self._count_ops(Op.BRANCH, Op.IJMP) * n
        counts[Event.BRANCH_INSTRUCTIONS] = branches

        mispredicts = 0.0
        for instr in self.body:
            if instr.op is Op.IJMP and instr.pattern == "random":
                mispredicts += random_jump_ratio(instr.targets) * n
            # periodic jumps and the loop branch predict perfectly.
        counts[Event.BRANCH_MISSES] = mispredicts

        counts[Event.LOADS] = self._count_ops(Op.LOAD) * n
        counts[Event.STORES] = self._count_ops(Op.STORE) * n
        refs = counts[Event.LOADS] + counts[Event.STORES]
        counts[Event.CACHE_MISSES] = refs * self._miss_ratio(arch)

        x87 = self._count_ops(Op.FADD_X87) * n
        sse = self._count_ops(Op.ADDSD_SSE) * n
        counts[Event.X87_OPERATIONS] = x87
        counts[Event.SSE_OPERATIONS] = sse
        counts[Event.FP_OPERATIONS] = x87 + sse
        assisted = sum(
            1 for i in self.body if i.op is Op.FADD_X87 and i.nonfinite
        )
        counts[Event.FP_ASSIST] = (
            assisted * n if arch.has_fp_assist else 0.0
        )
        return Prediction(counts)

    # -- compilation to the machine substrate ----------------------------------
    def to_workload(self, *, exec_cpi: float = 0.75) -> Workload:
        """Compile the kernel to a machine workload.

        The phase's mix/memory/branch/operand descriptors are derived from
        the listing, so the machine's counters reproduce :meth:`predict`'s
        per-event *rates* exactly (and the totals once the budget runs out).
        """
        n_body = len(self.body)
        fractions: dict[InstructionClass, float] = {}

        def add(cls: InstructionClass, count: int) -> None:
            if count:
                fractions[cls] = fractions.get(cls, 0.0) + count / n_body

        add(InstructionClass.INT_ALU, self._count_ops(Op.ALU))
        add(InstructionClass.LOAD, self._count_ops(Op.LOAD))
        add(InstructionClass.STORE, self._count_ops(Op.STORE))
        add(InstructionClass.BRANCH, self._count_ops(Op.BRANCH, Op.IJMP))
        add(InstructionClass.FP_X87, self._count_ops(Op.FADD_X87))
        add(InstructionClass.FP_SSE, self._count_ops(Op.ADDSD_SSE))
        add(InstructionClass.NOP, self._count_ops(Op.NOP))

        branches = self._count_ops(Op.BRANCH, Op.IJMP)
        mispredict_ratio = 0.0
        if branches:
            per_iter = sum(
                random_jump_ratio(i.targets)
                for i in self.body
                if i.op is Op.IJMP and i.pattern == "random"
            )
            mispredict_ratio = per_iter / branches

        fp_ops = self._count_ops(Op.FADD_X87, Op.ADDSD_SSE)
        nonfinite = 0.0
        if fp_ops:
            nonfinite = (
                sum(
                    1
                    for i in self.body
                    if i.op in (Op.FADD_X87, Op.ADDSD_SSE) and i.nonfinite
                )
                / fp_ops
            )

        refs = self._count_ops(Op.LOAD, Op.STORE)
        if refs and self.footprint and self.stride:
            # Streaming fraction reproduces the analytic LLC miss ratio.
            from repro.sim.arch import NEHALEM

            memory = MemoryBehavior(
                working_set=self.footprint,
                level_hit_ratios=(1.0, 1.0, 1.0),
                streaming=self._miss_ratio(NEHALEM),
                mlp=4.0,
            )
        else:
            memory = MemoryBehavior(working_set=64)

        phase = Phase(
            name=self.name,
            instructions=len(self.body) * self.iterations,
            mix=InstructionMix(fractions),
            memory=memory,
            branches=BranchBehavior(mispredict_ratio=mispredict_ratio),
            operands=OperandProfile(nonfinite=nonfinite),
            exec_cpi=exec_cpi,
            noise=0.0,
        )
        return Workload(name=self.name, phases=(phase,))


# ---------------------------------------------------------------------------
# The paper's kernels
# ---------------------------------------------------------------------------
def fig5_loop(isa: str = "x87", nonfinite: bool = False,
              iterations: float = 1e9) -> MicroKernel:
    """The Figure 5 listing: addq / fadd|addsd / cmpq / jne."""
    fp = Op.FADD_X87 if isa == "x87" else Op.ADDSD_SSE
    return MicroKernel(
        name=f"fig5-{isa}",
        body=(
            Instr(Op.ALU),
            Instr(fp, nonfinite=nonfinite),
            Instr(Op.ALU),
            Instr(Op.BRANCH),
        ),
        iterations=iterations,
    )


def random_jump_kernel(targets: int, iterations: float = 1e8) -> MicroKernel:
    """§2.4's "random indirect jumps to well known locations"."""
    return MicroKernel(
        name=f"random-ijmp-{targets}",
        body=(
            Instr(Op.ALU),
            Instr(Op.IJMP, targets=targets, pattern="random"),
            Instr(Op.ALU),
            Instr(Op.BRANCH),
        ),
        iterations=iterations,
    )


def periodic_jump_kernel(targets: int, iterations: float = 1e8) -> MicroKernel:
    """The periodic variant: fully predictable after warm-up."""
    return MicroKernel(
        name=f"periodic-ijmp-{targets}",
        body=(
            Instr(Op.ALU),
            Instr(Op.IJMP, targets=targets, pattern="periodic"),
            Instr(Op.ALU),
            Instr(Op.BRANCH),
        ),
        iterations=iterations,
    )


def streaming_kernel(
    footprint: int = 256 * 1024 * 1024,
    stride: int = 64,
    iterations: float = 1e8,
) -> MicroKernel:
    """A strided walk whose cache-miss count is known by construction."""
    return MicroKernel(
        name=f"stream-{stride}",
        body=(
            Instr(Op.LOAD),
            Instr(Op.ALU),
            Instr(Op.ALU),
            Instr(Op.BRANCH),
        ),
        iterations=iterations,
        footprint=footprint,
        stride=stride,
    )
