"""Analytic multi-level cache model with capacity contention.

The reproduction does not replay address traces; it models each workload
phase by its memory behaviour and each cache level by an analytic hit-ratio
curve — enough to reproduce the paper's coarse per-interval miss ratios
(DMIS in Fig. 1, the miss curves of Fig. 11).

Two curve sources are supported per phase:

* **Power-law working set** — ``hit = min(1, (C/W)^theta)``, the standard
  analytic approximation; good for single-knee workloads.
* **Calibrated per-level hits** — explicit full-capacity hit ratios per
  level (real workloads like mcf have multi-knee reuse profiles that no
  single power law matches); contention then scales each level's hits by
  ``(C_eff/C_full)^theta``.

Contention is modelled by splitting a shared level's capacity between its
active sharers proportionally to their access pressure. This yields the
paper's two headline interference effects: co-running mcf copies steal
shared-L3 capacity from each other (Fig. 11a/b), and two SMT threads on one
physical core thrash the SMT-shared L1/L2 (Fig. 11d).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError, WorkloadError
from repro.sim.arch import ArchModel, CacheLevelSpec, CacheScope
from repro.util.stats import left_sum


@dataclass(frozen=True)
class MemoryBehavior:
    """Per-phase description of memory reference behaviour.

    Attributes:
        working_set: bytes of data the phase touches with reuse (used by the
            power-law curve when ``level_hit_ratios`` is not given).
        locality: multiplier on each level's locality exponent; > 1 means
            the phase reacts *more* sharply to losing capacity (thrash-prone
            pointer chasing), < 1 means it barely notices.
        streaming: fraction of references that never re-use a line
            (stream through every level regardless of capacity).
        mlp: memory-level parallelism — how many misses overlap; divides
            the stall penalty (1 = serial pointer chasing, 4+ = well
            prefetched streams).
        level_hit_ratios: optional explicit *cumulative* hit fractions per
            level at full capacity: entry i is the fraction of references
            whose reuse distance fits within level i (so it must be
            non-decreasing). Real multi-knee reuse profiles (mcf) are
            expressed this way. Missing trailing levels default to the
            power-law value.
        miss_amplification: per-level exponent ``phi`` for contention
            response when ``level_hit_ratios`` is used: misses scale as
            ``(1/share)^phi`` when the task's capacity share shrinks below
            what it needs (phi = 1 means halving the share doubles the
            misses). Lets a workload be thrash-prone at the SMT-shared L2
            but nearly indifferent to losing L3 share, as mcf is (Fig. 11).
            Defaults to 0.5 at every level.
    """

    working_set: int
    locality: float = 1.0
    streaming: float = 0.0
    mlp: float = 1.6
    level_hit_ratios: tuple[float, ...] | None = None
    miss_amplification: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.working_set < 0:
            raise WorkloadError(f"working_set must be >= 0, got {self.working_set}")
        if self.locality <= 0:
            raise WorkloadError(f"locality must be > 0, got {self.locality}")
        if not 0 <= self.streaming <= 1:
            raise WorkloadError(f"streaming must be in [0, 1], got {self.streaming}")
        if self.mlp <= 0:
            raise WorkloadError(f"mlp must be > 0, got {self.mlp}")
        if self.level_hit_ratios is not None:
            previous = 0.0
            for h in self.level_hit_ratios:
                if not 0 <= h <= 1:
                    raise WorkloadError(f"hit fraction {h} outside [0, 1]")
                if h < previous - 1e-9:
                    raise WorkloadError(
                        "level_hit_ratios must be non-decreasing (cumulative)"
                    )
                previous = h
        if self.miss_amplification is not None:
            for phi in self.miss_amplification:
                if phi < 0:
                    raise WorkloadError(f"negative miss amplification {phi}")


def hit_ratio(capacity: float, working_set: float, exponent: float) -> float:
    """Power-law hit ratio of a cache of ``capacity`` for ``working_set``.

    Returns 1.0 when the working set fits, ``(C/W)^theta`` otherwise.
    A zero working set always hits; zero capacity always misses.
    """
    if working_set <= 0:
        return 1.0
    if capacity <= 0:
        return 0.0
    ratio = capacity / working_set
    if ratio >= 1.0:
        return 1.0
    return ratio**exponent


def cumulative_hit(
    behavior: MemoryBehavior,
    level_index: int,
    spec: CacheLevelSpec,
    effective_capacity: float,
) -> float:
    """Cumulative hit fraction within one level under contention.

    This is the fraction of references whose reuse distance fits in the
    level's *effective* (contention-reduced) capacity, before inclusion
    clamping.

    With explicit ``level_hit_ratios``, contention amplifies the *miss*
    fraction: ``1 - G = (1 - G_full) * (1/share)^phi``, where the share is
    measured against the capacity the task can actually use
    (``min(level size, working set)`` — a 1 MB working set keeps hitting in
    its 2 MB slice of a 12 MB LLC). With the power-law fallback, the hit
    curve is simply re-evaluated at the effective capacity.
    """
    ratios = behavior.level_hit_ratios
    if ratios is not None and level_index < len(ratios):
        phi = 0.5
        if behavior.miss_amplification is not None and level_index < len(
            behavior.miss_amplification
        ):
            phi = behavior.miss_amplification[level_index]
        needed = float(spec.size)
        if behavior.working_set > 0:
            needed = min(needed, float(behavior.working_set))
        share = min(1.0, effective_capacity / needed) if needed > 0 else 1.0
        if share <= 0:
            return 0.0
        miss = (1.0 - ratios[level_index]) * share**-phi
        return max(0.0, 1.0 - miss)
    theta = behavior.locality * spec.locality_exponent
    power = hit_ratio(effective_capacity, behavior.working_set, theta or 1e-9)
    return spec.hit_floor + (1.0 - spec.hit_floor) * power


@dataclass
class CacheInstance:
    """One physical cache: a level spec plus the PUs that share it."""

    spec: CacheLevelSpec
    level_index: int
    pu_ids: frozenset[int]

    def __hash__(self) -> int:
        return hash((self.level_index, self.pu_ids))

    def effective_capacity(self, pressures: dict[int, float], task_key: int) -> float:
        """Capacity share of ``task_key`` given all sharers' access pressures.

        ``pressures`` maps a task key to its access rate into this cache
        (references per second). A task running alone gets the full
        capacity; co-runners split it proportionally to pressure. A small
        epsilon keeps the share positive for idle-but-present sharers.
        """
        own = pressures.get(task_key, 0.0)
        total = left_sum(pressures.values())
        if total <= 0:
            return float(self.spec.size)
        eps = 0.02 * total
        share = (own + eps) / (total + eps * len(pressures))
        return self.spec.size * share


@dataclass
class MissProfile:
    """Per-level access/miss rates for one task in one interval.

    All rates are per retired instruction. ``accesses[i]`` is the rate of
    references reaching level ``i``; ``misses[i]`` the rate missing it;
    ``misses[-1]`` therefore is the memory-traffic rate.
    """

    accesses: list[float] = field(default_factory=list)
    misses: list[float] = field(default_factory=list)

    @property
    def llc_miss_rate(self) -> float:
        """LLC misses per instruction (the paper's DMIS/100 when x100)."""
        return self.misses[-1] if self.misses else 0.0

    @property
    def llc_access_rate(self) -> float:
        """LLC accesses per instruction."""
        return self.accesses[-1] if self.accesses else 0.0


def miss_chain(
    behavior: MemoryBehavior,
    mem_refs_per_instr: float,
    levels: list[tuple[CacheLevelSpec, float]],
) -> MissProfile:
    """Propagate references through the hierarchy.

    Args:
        behavior: the phase's memory behaviour.
        mem_refs_per_instr: loads+stores per retired instruction.
        levels: ordered ``(spec, effective_capacity)`` pairs, L1 first.

    Returns:
        A :class:`MissProfile` with per-level access and miss rates.
    """
    reuse_refs = mem_refs_per_instr * (1.0 - behavior.streaming)
    stream_refs = mem_refs_per_instr * behavior.streaming

    # Cumulative per-level hit fractions, then inclusion clamping from the
    # outermost level inward: in an inclusive hierarchy a line can only live
    # in L2 if it also lives in L3, so losing LLC share raises *every*
    # inner level's misses (Fig. 11b), while losing SMT-shared L2 share
    # leaves LLC misses untouched (Fig. 11d).
    raw = [
        cumulative_hit(behavior, i, spec, capacity)
        for i, (spec, capacity) in enumerate(levels)
    ]
    clamped = list(raw)
    for i in range(len(clamped) - 2, -1, -1):
        clamped[i] = min(clamped[i], clamped[i + 1])

    profile = MissProfile()
    prev_g = 0.0
    for g in clamped:
        profile.accesses.append(reuse_refs * (1.0 - prev_g) + stream_refs)
        profile.misses.append(reuse_refs * (1.0 - g) + stream_refs)
        prev_g = g
    return profile


class CacheHierarchy:
    """All cache instances of a machine, built from arch + PU layout.

    Args:
        arch: the micro-architecture (level specs and scopes).
        pu_to_core: mapping of PU id -> core id.
        core_to_socket: mapping of core id -> socket id.
    """

    def __init__(
        self,
        arch: ArchModel,
        pu_to_core: dict[int, int],
        core_to_socket: dict[int, int],
    ) -> None:
        self.arch = arch
        self.instances: list[CacheInstance] = []
        self._by_pu: dict[int, list[CacheInstance]] = {pu: [] for pu in pu_to_core}
        for level_index, spec in enumerate(arch.cache_levels):
            groups: dict[object, set[int]] = {}
            for pu, core in pu_to_core.items():
                if spec.scope is CacheScope.PER_PU:
                    key: object = ("pu", pu)
                elif spec.scope is CacheScope.PER_CORE:
                    key = ("core", core)
                elif spec.scope is CacheScope.PER_SOCKET:
                    key = ("socket", core_to_socket[core])
                else:  # pragma: no cover - enum is exhaustive
                    raise SimulationError(f"unhandled scope {spec.scope}")
                groups.setdefault(key, set()).add(pu)
            for pus in groups.values():
                inst = CacheInstance(spec, level_index, frozenset(pus))
                self.instances.append(inst)
                for pu in pus:
                    self._by_pu[pu].append(inst)
        for pu, insts in self._by_pu.items():
            insts.sort(key=lambda i: i.level_index)

    def path_for_pu(self, pu_id: int) -> list[CacheInstance]:
        """Cache instances a reference from ``pu_id`` traverses, L1 first."""
        try:
            return self._by_pu[pu_id]
        except KeyError as exc:
            raise SimulationError(f"unknown PU {pu_id}") from exc

    def levels_with_capacity(
        self,
        pu_id: int,
        pressures: dict[CacheInstance, dict[int, float]] | None,
        task_key: int,
    ) -> list[tuple[CacheLevelSpec, float]]:
        """Resolve each level on ``pu_id``'s path to an effective capacity.

        ``pressures`` maps instance -> {task_key: refs/sec}; ``None`` means
        uncontended (full capacity at every level).
        """
        out: list[tuple[CacheLevelSpec, float]] = []
        for inst in self.path_for_pu(pu_id):
            if pressures is None:
                out.append((inst.spec, float(inst.spec.size)))
            else:
                cap = inst.effective_capacity(pressures.get(inst, {}), task_key)
                out.append((inst.spec, cap))
        return out
