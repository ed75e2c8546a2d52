"""Core pipeline model: turn a phase + machine conditions into rates.

The model is additive in CPI, the textbook first-order decomposition::

    CPI = exec + memory + branch + fp_assist

* ``exec`` — the phase's dependency-limited execution CPI, scaled by the
  architecture's quality factor and inflated when SMT siblings share issue
  slots (floor: 1/issue_width).
* ``memory`` — per-level hit latencies weighted by access rates from the
  analytic cache model, divided by the phase's memory-level parallelism.
* ``branch`` — mispredicts/instruction x penalty.
* ``fp_assist`` — micro-code assists/instruction x penalty (§3.1).

The same function also emits per-instruction rates for every countable
:class:`~repro.sim.events.Event`, one lane each of a dense vector, which
is what the simulated PMU integrates over a scheduled slice.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from repro.errors import SimulationError
from repro.sim.arch import ArchModel, CacheLevelSpec
from repro.sim.branch import mispredicts_per_instruction
from repro.sim.cache import MissProfile, miss_chain
from repro.sim.events import EVENT_CODE, N_EVENT_CODES, Event
from repro.sim.isa import InstructionClass
from repro.sim.microcode import assist_outcome
from repro.sim.workload import Phase


#: The lane of each event in :attr:`SliceRates.events`, by event name.
_LANE = SimpleNamespace(**{event.name: i for event, i in EVENT_CODE.items()})


# Identity equality and hash: a generated ``==`` over ``events`` raises.
@dataclass(frozen=True, eq=False)
class SliceRates:
    """Per-instruction rates for one task under given machine conditions.

    Attributes:
        cpi: total cycles per instruction.
        cpi_exec: execution component.
        cpi_memory: cache/DRAM stall component.
        cpi_branch: branch mispredict component.
        cpi_assist: FP micro-code assist component.
        events: per-instruction rate of every countable event, as one
            read-only float64 vector with a lane per :data:`EVENT_CODE`
            (``INSTRUCTIONS`` is always 1.0; an event the arch's cache
            path cannot see reads 0.0). The columnar kernel multiplies it
            by the retired-instruction count on every scheduled slice.
        miss_profile: per-level access/miss rates.
    """

    cpi: float
    cpi_exec: float
    cpi_memory: float
    cpi_branch: float
    cpi_assist: float
    events: np.ndarray
    miss_profile: MissProfile

    @property
    def ipc(self) -> float:
        """Instructions per cycle implied by these rates."""
        return 1.0 / self.cpi

    def rate(self, event: Event) -> float:
        """The per-instruction rate of ``event``."""
        return float(self.events[EVENT_CODE[event]])


def memory_cpi(
    profile: MissProfile,
    levels: list[CacheLevelSpec],
    mem_latency_cycles: float,
    mlp: float = 1.6,
) -> float:
    """Stall CPI from the memory hierarchy.

    Accesses hitting level i+1 pay that level's latency; LLC misses pay the
    (possibly contention-inflated) memory latency. Latencies are divided by
    the MLP factor to model overlap of outstanding misses.
    """
    if mlp <= 0:
        raise SimulationError(f"mlp must be positive, got {mlp}")
    stall = 0.0
    for i in range(len(levels)):
        if i + 1 < len(levels):
            hits_next = profile.misses[i] - profile.misses[i + 1]
            stall += hits_next * levels[i + 1].latency
        else:
            stall += profile.misses[i] * mem_latency_cycles
    return stall / mlp


def compute_rates(
    arch: ArchModel,
    phase: Phase,
    level_capacities: list[tuple[CacheLevelSpec, float]],
    mem_latency_cycles: float | None = None,
    issue_share: float = 1.0,
    noise_factor: float = 1.0,
) -> SliceRates:
    """Full rate computation for ``phase`` on ``arch``.

    Args:
        arch: the micro-architecture.
        phase: active workload phase.
        level_capacities: ``(spec, effective_capacity)`` per level on the
            task's cache path (contention already folded into capacities).
        mem_latency_cycles: effective DRAM latency (defaults to the arch's
            uncontended latency).
        issue_share: fraction of the core's issue bandwidth available to
            this hardware thread (1.0 solo; < 1 with an active SMT sibling).
        noise_factor: multiplicative jitter on the execution component.
    """
    if not 0 < issue_share <= 1.0:
        raise SimulationError(f"issue_share must be in (0, 1], got {issue_share}")
    if mem_latency_cycles is None:
        mem_latency_cycles = arch.mem_latency

    mix = phase.mix
    profile = miss_chain(phase.memory, mix.mem_refs, level_capacities)
    specs = [spec for spec, _ in level_capacities]

    # Floor: a thread cannot sustain more than 2x the nominal issue width
    # even when penalties overlap perfectly with execution (the additive
    # CPI model otherwise lets calibration push exec below physical limits).
    cpi_exec = max(
        phase.exec_cpi
        * arch.cpi_scale
        * phase.arch_factor(arch.name)
        * noise_factor
        / issue_share,
        0.5 / arch.issue_width,
    )
    cpi_mem = memory_cpi(profile, specs, mem_latency_cycles, mlp=phase.memory.mlp)
    mpi = mispredicts_per_instruction(phase.branches, mix.branches)
    cpi_branch = mpi * arch.mispredict_penalty
    assist = assist_outcome(arch, mix, phase.operands)
    cpi = cpi_exec + cpi_mem + cpi_branch + assist.cpi_tax

    llc = len(profile.misses) - 1
    events = np.zeros(N_EVENT_CODES)
    events[_LANE.INSTRUCTIONS] = 1.0
    events[_LANE.CYCLES] = cpi
    events[_LANE.CACHE_REFERENCES] = profile.accesses[llc]
    events[_LANE.CACHE_MISSES] = profile.misses[llc]
    events[_LANE.BRANCH_INSTRUCTIONS] = mix.branches
    events[_LANE.BRANCH_MISSES] = mpi
    events[_LANE.BUS_CYCLES] = cpi * 0.25
    events[_LANE.FP_ASSIST] = assist.assists_per_instruction
    events[_LANE.UOPS_EXECUTED] = (
        arch.uops_per_instruction + assist.extra_uops_per_instruction
    )
    events[_LANE.LOADS] = mix.loads
    events[_LANE.STORES] = mix.stores
    events[_LANE.FP_OPERATIONS] = mix.fp_ops
    events[_LANE.X87_OPERATIONS] = mix.x87_ops
    events[_LANE.SSE_OPERATIONS] = mix.sse_ops
    events[_LANE.L1D_ACCESSES] = profile.accesses[0]
    events[_LANE.L1D_MISSES] = profile.misses[0]
    # §3.4 outlook: memory-access latency counters. Total cycles of
    # DRAM wait per instruction; dividing by LLC misses recovers the
    # (possibly contention-inflated) average memory latency.
    events[_LANE.MEM_LATENCY_CYCLES] = profile.misses[-1] * mem_latency_cycles
    if llc > 0:
        events[_LANE.L2_ACCESSES] = profile.accesses[1]
        events[_LANE.L2_MISSES] = profile.misses[1]
    if llc > 1:
        events[_LANE.L3_ACCESSES] = profile.accesses[2]
        events[_LANE.L3_MISSES] = profile.misses[2]
    # A RateCache hands one rates object to every machine of a shard.
    events.flags.writeable = False

    return SliceRates(
        cpi=cpi,
        cpi_exec=cpi_exec,
        cpi_memory=cpi_mem,
        cpi_branch=cpi_branch,
        cpi_assist=assist.cpi_tax,
        events=events,
        miss_profile=profile,
    )


def solo_rates(arch: ArchModel, phase: Phase) -> SliceRates:
    """Rates for ``phase`` running alone with full caches on ``arch``."""
    caps = [(spec, float(spec.size)) for spec in arch.cache_levels]
    return compute_rates(arch, phase, caps)


def exec_cpi_for_target_ipc(
    arch: ArchModel,
    phase: Phase,
    target_ipc: float,
    *,
    min_exec_cpi: float | None = None,
) -> float:
    """Solve for the ``exec_cpi`` that yields ``target_ipc`` solo on ``arch``.

    Used to calibrate phase models against the paper's measured solo IPC
    values: the memory/branch/assist penalties are computed for the
    uncontended machine, and the execution component absorbs the remainder.
    The result is expressed in reference-architecture units (divided by
    ``arch.cpi_scale``) so the same phase transfers across architectures.

    Raises:
        SimulationError: when the target is unreachable (penalties alone
            already exceed the cycle budget by more than the floor allows).
    """
    if target_ipc <= 0:
        raise SimulationError(f"target_ipc must be positive, got {target_ipc}")
    if min_exec_cpi is None:
        # Below the compute_rates() floor the solved value would be
        # silently clamped and the solo IPC would miss the target.
        min_exec_cpi = 0.5 / arch.issue_width
    probe = solo_rates(arch, phase)
    penalties = probe.cpi_memory + probe.cpi_branch + probe.cpi_assist
    budget = 1.0 / target_ipc - penalties
    if budget < min_exec_cpi:
        raise SimulationError(
            f"target IPC {target_ipc} unreachable for phase {phase.name!r}: "
            f"penalties alone cost {penalties:.3f} CPI"
        )
    return budget / arch.cpi_scale


def calibrate_phase(arch: ArchModel, phase: Phase, target_ipc: float) -> Phase:
    """Return a copy of ``phase`` whose solo IPC on ``arch`` is ``target_ipc``."""
    from dataclasses import replace

    return replace(
        phase, exec_cpi=exec_cpi_for_target_ipc(arch, phase, target_ipc)
    )


class RateCache:
    """Exact memo over :func:`compute_rates`.

    ``compute_rates`` is a pure function, so two calls with the *same
    objects* and the same scalar arguments return value-identical results.
    The cache keys on object identity (phases and cache-level specs live for
    the whole machine lifetime) plus the raw float arguments, and stores
    strong references to the keyed objects so an id can never be recycled
    while its entry is live. Eviction only costs speed, never correctness:
    a recomputed entry is bitwise-identical to the evicted one.

    Handed to the machines of a grid shard, it saves their tick kernels
    re-deriving rates for the (phase, capacities, latency, share)
    combinations that repeat every time the scheduler's round-robin orbit
    revisits a co-schedule.
    """

    def __init__(self, max_entries: int = 65536) -> None:
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        # key -> (rates, keepalive) where keepalive pins the ids in the key.
        self._store: dict[tuple, tuple[SliceRates, tuple]] = {}

    def rates(
        self,
        arch: ArchModel,
        phase: Phase,
        level_capacities: list[tuple[CacheLevelSpec, float]],
        mem_latency_cycles: float | None = None,
        issue_share: float = 1.0,
    ) -> SliceRates:
        """Memoised :func:`compute_rates` (identical result object on hit)."""
        key = (
            id(arch),
            id(phase),
            tuple((id(spec), cap) for spec, cap in level_capacities),
            mem_latency_cycles,
            issue_share,
        )
        entry = self._store.get(key)
        if entry is not None:
            self.hits += 1
            return entry[0]
        self.misses += 1
        result = compute_rates(
            arch,
            phase,
            level_capacities,
            mem_latency_cycles=mem_latency_cycles,
            issue_share=issue_share,
        )
        if len(self._store) >= self.max_entries:
            self._evict()
        keepalive = (arch, phase, tuple(spec for spec, _ in level_capacities))
        self._store[key] = (result, keepalive)
        return result

    def _evict(self) -> None:
        """Drop the oldest half of the store (insertion-order FIFO).

        A wholesale ``clear()`` makes any working set just over
        ``max_entries`` thrash to a 0% hit rate: the steady-state orbit of
        co-schedules is re-inserted and re-cleared every pass. Halving
        keeps the *recent* half — which contains the live orbit, since
        dict order is insertion order — so steady state stays hot.
        """
        for key in list(itertools.islice(self._store, len(self._store) // 2)):
            del self._store[key]

    def __len__(self) -> int:
        return len(self._store)

    def clear(self) -> None:
        """Drop all entries (correctness-neutral)."""
        self._store.clear()


#: Instruction classes with memory side effects, exposed for tests.
MEMORY_CLASSES = (InstructionClass.LOAD, InstructionClass.STORE)
