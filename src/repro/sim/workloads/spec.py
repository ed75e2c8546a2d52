"""SPEC CPU2006 phase models calibrated against the paper's figures.

Each benchmark is described by an instruction mix, a memory behaviour
(cumulative per-level hit fractions and contention exponents), a branch
behaviour, and a list of phases as ``(name, weight, target solo IPC on
Nehalem)``. The execution CPI of every phase is solved at build time with
:func:`repro.sim.core.calibrate_phase`, so the *solo* IPC on the reference
architecture is exact by construction and everything else — the other
architectures, co-run contention, miss-rate responses — emerges from the
machine model.

Sources of the shapes:

* 429.mcf, 473.astar — Fig. 6 (phase profiles on Nehalem/Core2/PPC970) and
  Fig. 11 (mcf's miss rates and co-run slowdowns; the cumulative hit
  profile (0.85, 0.91, 0.92) with contention exponents (0.53, 0.75, 0.08)
  encodes "thrashes the SMT-shared L2 badly, barely notices losing L3
  share" — the key to Fig. 11d).
* 410.bwaves, 435.gromacs — Fig. 7 (gromacs ripples only on Nehalem).
* 456.hmmer, 482.sphinx3, 464.h264ref, 433.milc — Fig. 9 (gcc vs icc:
  higher IPC wins / lower IPC wins / phase inversion / same speed).
* Fig. 8 — astar's phase boundaries are instruction counts, so the IPC
  versus instructions-retired curves of the two Intel machines coincide;
  the PPC970 *binary* retires ~6 % more instructions (different compiler),
  shifting its curve.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import WorkloadError
from repro.sim.arch import NEHALEM
from repro.sim.branch import BranchBehavior
from repro.sim.cache import MemoryBehavior
from repro.sim.core import calibrate_phase
from repro.sim.isa import InstructionMix
from repro.sim.workload import Phase, Workload
from repro.util.stats import left_sum

#: Compilers of §3.3 (Fig. 9). GCC 4.4.3 and icc 11.0 in the paper.
GCC = "gcc"
ICC = "icc"


@dataclass(frozen=True)
class PhaseShape:
    """One phase of a benchmark model.

    Attributes:
        name: phase label.
        weight: fraction of the run's instructions spent here.
        ipc: target solo IPC on the Nehalem reference machine.
        arch_factors: optional per-arch execution multipliers (see
            :class:`repro.sim.workload.Phase`).
        noise: per-tick execution jitter override (None = benchmark default).
    """

    name: str
    weight: float
    ipc: float
    arch_factors: tuple[tuple[str, float], ...] = ()
    noise: float | None = None


@dataclass(frozen=True)
class BenchmarkModel:
    """Full description of one SPEC benchmark (per compiler).

    Attributes:
        name: SPEC identifier ("429.mcf").
        mix: instruction-class mix.
        memory: memory behaviour.
        branches: branch behaviour.
        noise: default per-tick execution jitter.
        variants: compiler -> (total instructions, phase shapes).
        ppc_instruction_scale: relative instruction count of the PowerPC
            binary (different ISA/compiler; Fig. 8's horizontal shift).
    """

    name: str
    mix: InstructionMix
    memory: MemoryBehavior
    branches: BranchBehavior
    noise: float
    variants: dict[str, tuple[float, tuple[PhaseShape, ...]]]
    ppc_instruction_scale: float = 1.06

    def compilers(self) -> tuple[str, ...]:
        """Compilers this model has variants for."""
        return tuple(self.variants)


def _mk(name: str, **kw) -> BenchmarkModel:
    return BenchmarkModel(name=name, **kw)


_MODELS: dict[str, BenchmarkModel] = {}


def _register(model: BenchmarkModel) -> None:
    _MODELS[model.name] = model


# ---------------------------------------------------------------------------
# Fig. 6 / Fig. 11 benchmarks
# ---------------------------------------------------------------------------
_register(
    _mk(
        "429.mcf",
        mix=InstructionMix.of(
            int_alu=0.36, load=0.30, store=0.05, branch=0.24, fp_sse=0.05
        ),
        memory=MemoryBehavior(
            working_set=1_700 * 1024 * 1024,
            level_hit_ratios=(0.85, 0.91, 0.92),
            miss_amplification=(1.45, 2.35, 0.48),
            mlp=6.0,
        ),
        branches=BranchBehavior(mispredict_ratio=0.04),
        noise=0.03,
        variants={
            GCC: (
                6.5e11,
                (
                    PhaseShape("startup", 0.08, 0.66),
                    PhaseShape("simplex-a", 0.22, 0.45),
                    PhaseShape("pricing-a", 0.25, 0.62),
                    PhaseShape("simplex-b", 0.25, 0.48),
                    PhaseShape("pricing-b", 0.20, 0.58),
                ),
            )
        },
    )
)

_register(
    _mk(
        "473.astar",
        mix=InstructionMix.of(
            int_alu=0.44, load=0.28, store=0.07, branch=0.18, fp_sse=0.03
        ),
        memory=MemoryBehavior(
            working_set=300 * 1024 * 1024,
            level_hit_ratios=(0.93, 0.95, 0.975),
            miss_amplification=(0.6, 0.7, 0.5),
            mlp=3.5,
        ),
        branches=BranchBehavior(mispredict_ratio=0.05),
        noise=0.03,
        variants={
            GCC: (
                1.4e12,
                (
                    PhaseShape("way-1", 0.15, 1.02),
                    PhaseShape("rivers-1", 0.20, 0.62),
                    PhaseShape("way-2", 0.20, 1.06),
                    PhaseShape("rivers-2", 0.15, 0.68),
                    # The relative IPC of the last phases differs on the
                    # PowerPC (Fig. 6b, §3.2).
                    PhaseShape("biglakes", 0.15, 0.90, arch_factors=(("ppc970", 1.35),)),
                    PhaseShape("final", 0.15, 0.55, arch_factors=(("ppc970", 0.80),)),
                ),
            )
        },
    )
)

# ---------------------------------------------------------------------------
# Fig. 7 benchmarks
# ---------------------------------------------------------------------------
_register(
    _mk(
        "410.bwaves",
        mix=InstructionMix.of(
            int_alu=0.22, load=0.33, store=0.10, branch=0.06, fp_sse=0.29
        ),
        memory=MemoryBehavior(
            working_set=800 * 1024 * 1024,
            level_hit_ratios=(0.96, 0.97, 0.985),
            miss_amplification=(0.4, 0.5, 0.6),
            streaming=0.02,
            mlp=7.0,
        ),
        branches=BranchBehavior(mispredict_ratio=0.01),
        noise=0.02,
        variants={
            GCC: (
                2.2e12,
                (
                    PhaseShape("solve-1", 0.20, 1.35),
                    PhaseShape("bc-1", 0.06, 1.10),
                    PhaseShape("solve-2", 0.20, 1.38),
                    PhaseShape("bc-2", 0.06, 1.12),
                    PhaseShape("solve-3", 0.22, 1.35),
                    PhaseShape("bc-3", 0.06, 1.15),
                    PhaseShape("solve-4", 0.20, 1.30),
                ),
            )
        },
    )
)

# 435.gromacs is built specially below (Nehalem-only ripples).

# ---------------------------------------------------------------------------
# The rest of the suite (§2.4/§2.5 run *all* of SPEC 2006). Characteristics
# follow the published workload characterisations: integer codes are
# branchy; libquantum/lbm stream; omnetpp/xalancbmk chase pointers; namd/
# povray live in the caches.
# ---------------------------------------------------------------------------
def _suite(name, *, mix, memory, mispredict, noise, total, ipcs):
    shapes = tuple(
        PhaseShape(f"slice-{i}", 1.0 / len(ipcs), ipc) for i, ipc in enumerate(ipcs)
    )
    _register(
        _mk(
            name,
            mix=mix,
            memory=memory,
            branches=BranchBehavior(mispredict_ratio=mispredict),
            noise=noise,
            variants={GCC: (total, shapes)},
        )
    )


_suite(
    "400.perlbench",
    mix=InstructionMix.of(int_alu=0.49, load=0.24, store=0.11, branch=0.15, nop=0.01),
    memory=MemoryBehavior(
        working_set=50 * 1024 * 1024, level_hit_ratios=(0.97, 0.985, 0.995), mlp=2.5
    ),
    mispredict=0.04,
    noise=0.03,
    total=2.1e12,
    ipcs=(1.55, 1.4, 1.5),
)

_suite(
    "401.bzip2",
    mix=InstructionMix.of(int_alu=0.52, load=0.26, store=0.09, branch=0.13),
    memory=MemoryBehavior(
        working_set=8 * 1024 * 1024, level_hit_ratios=(0.96, 0.975, 0.998), mlp=3.0
    ),
    mispredict=0.055,
    noise=0.03,
    total=1.8e12,
    ipcs=(1.25, 1.05, 1.2, 1.1),
)

_suite(
    "403.gcc",
    mix=InstructionMix.of(int_alu=0.44, load=0.26, store=0.12, branch=0.18),
    memory=MemoryBehavior(
        working_set=80 * 1024 * 1024, level_hit_ratios=(0.95, 0.97, 0.985), mlp=3.0
    ),
    mispredict=0.05,
    noise=0.04,
    total=1.1e12,
    ipcs=(0.95, 0.75, 0.9),
)

_suite(
    "445.gobmk",
    mix=InstructionMix.of(int_alu=0.5, load=0.25, store=0.1, branch=0.15),
    memory=MemoryBehavior(
        working_set=30 * 1024 * 1024, level_hit_ratios=(0.97, 0.99, 0.998), mlp=2.0
    ),
    mispredict=0.09,
    noise=0.03,
    total=1.6e12,
    ipcs=(0.95, 0.9),
)

_suite(
    "458.sjeng",
    mix=InstructionMix.of(int_alu=0.52, load=0.23, store=0.08, branch=0.17),
    memory=MemoryBehavior(
        working_set=170 * 1024 * 1024, level_hit_ratios=(0.975, 0.99, 0.997), mlp=2.0
    ),
    mispredict=0.08,
    noise=0.02,
    total=2.2e12,
    ipcs=(1.1, 1.05),
)

_suite(
    "462.libquantum",
    mix=InstructionMix.of(int_alu=0.35, load=0.31, store=0.14, branch=0.2),
    memory=MemoryBehavior(
        working_set=100 * 1024 * 1024,
        level_hit_ratios=(0.96, 0.965, 0.97),
        streaming=0.02,
        mlp=6.5,
    ),
    mispredict=0.015,
    noise=0.02,
    total=2.6e12,
    ipcs=(0.62, 0.6),
)

_suite(
    "471.omnetpp",
    mix=InstructionMix.of(int_alu=0.4, load=0.31, store=0.12, branch=0.17),
    memory=MemoryBehavior(
        working_set=150 * 1024 * 1024,
        level_hit_ratios=(0.93, 0.95, 0.965),
        miss_amplification=(0.8, 1.0, 0.4),
        mlp=4.0,
    ),
    mispredict=0.045,
    noise=0.03,
    total=6.9e11,
    ipcs=(0.5, 0.42, 0.48),
)

_suite(
    "483.xalancbmk",
    mix=InstructionMix.of(int_alu=0.43, load=0.3, store=0.09, branch=0.18),
    memory=MemoryBehavior(
        working_set=60 * 1024 * 1024, level_hit_ratios=(0.95, 0.96, 0.985), mlp=3.5
    ),
    mispredict=0.035,
    noise=0.03,
    total=1.2e12,
    ipcs=(0.85, 0.78, 0.82),
)

_suite(
    "444.namd",
    mix=InstructionMix.of(int_alu=0.27, load=0.26, store=0.07, branch=0.08, fp_sse=0.32),
    memory=MemoryBehavior(
        working_set=45 * 1024 * 1024, level_hit_ratios=(0.985, 0.995, 0.999), mlp=2.0
    ),
    mispredict=0.012,
    noise=0.015,
    total=3.3e12,
    ipcs=(1.75, 1.7),
)

_suite(
    "450.soplex",
    mix=InstructionMix.of(int_alu=0.33, load=0.3, store=0.08, branch=0.14, fp_sse=0.15),
    memory=MemoryBehavior(
        working_set=250 * 1024 * 1024,
        level_hit_ratios=(0.94, 0.955, 0.975),
        mlp=4.5,
    ),
    mispredict=0.03,
    noise=0.03,
    total=8.5e11,
    ipcs=(0.72, 0.6, 0.7),
)

_suite(
    "453.povray",
    mix=InstructionMix.of(int_alu=0.35, load=0.26, store=0.09, branch=0.13, fp_sse=0.17),
    memory=MemoryBehavior(
        working_set=3 * 1024 * 1024, level_hit_ratios=(0.985, 0.997, 0.9995), mlp=2.0
    ),
    mispredict=0.025,
    noise=0.02,
    total=2.4e12,
    ipcs=(1.5, 1.45),
)

_suite(
    "470.lbm",
    mix=InstructionMix.of(int_alu=0.2, load=0.32, store=0.14, branch=0.04, fp_sse=0.3),
    memory=MemoryBehavior(
        working_set=400 * 1024 * 1024,
        level_hit_ratios=(0.955, 0.96, 0.965),
        streaming=0.015,
        mlp=7.5,
    ),
    mispredict=0.008,
    noise=0.015,
    total=1.5e12,
    ipcs=(0.58, 0.56),
)

_suite(
    "437.leslie3d",
    mix=InstructionMix.of(int_alu=0.24, load=0.3, store=0.11, branch=0.06, fp_sse=0.29),
    memory=MemoryBehavior(
        working_set=130 * 1024 * 1024,
        level_hit_ratios=(0.965, 0.975, 0.985),
        mlp=5.0,
    ),
    mispredict=0.01,
    noise=0.02,
    total=2.0e12,
    ipcs=(1.15, 1.05, 1.1),
)

_suite(
    "459.GemsFDTD",
    mix=InstructionMix.of(int_alu=0.23, load=0.33, store=0.12, branch=0.05, fp_sse=0.27),
    memory=MemoryBehavior(
        working_set=850 * 1024 * 1024,
        level_hit_ratios=(0.955, 0.965, 0.975),
        mlp=5.5,
    ),
    mispredict=0.01,
    noise=0.02,
    total=1.4e12,
    ipcs=(0.82, 0.76),
)


# ---------------------------------------------------------------------------
# Fig. 9 benchmarks (gcc vs icc)
# ---------------------------------------------------------------------------
_register(
    _mk(
        "456.hmmer",
        mix=InstructionMix.of(
            int_alu=0.55, load=0.25, store=0.05, branch=0.10, fp_sse=0.05
        ),
        memory=MemoryBehavior(
            working_set=150 * 1024,
            level_hit_ratios=(0.99, 0.998, 0.999),
            mlp=2.0,
        ),
        branches=BranchBehavior(mispredict_ratio=0.008),
        noise=0.02,
        variants={
            # Fig. 9a: icc's code has a clearly higher IPC and wins.
            GCC: (
                3.4e12,
                (
                    PhaseShape("search-1", 0.5, 1.85),
                    PhaseShape("search-2", 0.5, 1.82),
                ),
            ),
            ICC: (
                3.4e12,
                (
                    PhaseShape("search-1", 0.5, 2.35),
                    PhaseShape("search-2", 0.5, 2.32),
                ),
            ),
        },
    )
)

_register(
    _mk(
        "482.sphinx3",
        mix=InstructionMix.of(
            int_alu=0.40, load=0.28, store=0.06, branch=0.12, fp_sse=0.14
        ),
        memory=MemoryBehavior(
            working_set=30 * 1024 * 1024,
            level_hit_ratios=(0.96, 0.97, 0.99),
            mlp=3.0,
        ),
        branches=BranchBehavior(mispredict_ratio=0.03),
        noise=0.03,
        variants={
            # Fig. 9b: gcc's IPC is higher but icc executes far fewer
            # instructions and finishes first.
            GCC: (
                2.4e12,
                (
                    PhaseShape("utt-1", 0.30, 1.38),
                    PhaseShape("utt-2", 0.20, 1.28),
                    PhaseShape("utt-3", 0.30, 1.40),
                    PhaseShape("utt-4", 0.20, 1.30),
                ),
            ),
            ICC: (
                1.75e12,
                (
                    PhaseShape("utt-1", 0.30, 1.18),
                    PhaseShape("utt-2", 0.20, 1.10),
                    PhaseShape("utt-3", 0.30, 1.20),
                    PhaseShape("utt-4", 0.20, 1.12),
                ),
            ),
        },
    )
)

_register(
    _mk(
        "464.h264ref",
        mix=InstructionMix.of(
            int_alu=0.50, load=0.26, store=0.08, branch=0.10, fp_sse=0.06
        ),
        memory=MemoryBehavior(
            working_set=5 * 1024 * 1024,
            level_hit_ratios=(0.97, 0.98, 0.999),
            mlp=2.5,
        ),
        branches=BranchBehavior(mispredict_ratio=0.02),
        noise=0.02,
        variants={
            # Fig. 9c: the inversion — gcc leads in the first (short)
            # phase, trails in the second; total run times are close.
            GCC: (
                3.1e12,
                (
                    PhaseShape("foreman", 0.29, 2.10),
                    PhaseShape("sss-main", 0.71, 1.45),
                ),
            ),
            ICC: (
                3.1e12,
                (
                    PhaseShape("foreman", 0.29, 1.75),
                    PhaseShape("sss-main", 0.71, 1.65),
                ),
            ),
        },
    )
)

_register(
    _mk(
        "433.milc",
        mix=InstructionMix.of(
            int_alu=0.28, load=0.32, store=0.10, branch=0.07, fp_sse=0.23
        ),
        memory=MemoryBehavior(
            working_set=400 * 1024 * 1024,
            level_hit_ratios=(0.96, 0.97, 0.985),
            streaming=0.01,
            mlp=4.0,
        ),
        branches=BranchBehavior(mispredict_ratio=0.01),
        noise=0.02,
        variants={
            # Fig. 9d: same wall time; gcc's IPC constantly higher because
            # its code executes proportionally more instructions.
            GCC: (
                1.45e12,
                (
                    PhaseShape("su3-1", 0.5, 1.05),
                    PhaseShape("su3-2", 0.5, 1.02),
                ),
            ),
            ICC: (
                1.216e12,
                (
                    PhaseShape("su3-1", 0.5, 0.88),
                    PhaseShape("su3-2", 0.5, 0.855),
                ),
            ),
        },
    )
)

#: 435.gromacs ripple structure (Fig. 7b): alternating hi/lo IPC visible on
#: Nehalem only; on Core2/PPC970 the hi phases carry a compensating factor.
_GROMACS_PAIRS = 8
_GROMACS_IPC_LO = 1.55
_GROMACS_IPC_HI = 1.68
_GROMACS_TOTAL = 3.2e12

_GROMACS_BASE = dict(
    mix=InstructionMix.of(
        int_alu=0.30, load=0.24, store=0.08, branch=0.07, fp_sse=0.31
    ),
    memory=MemoryBehavior(
        working_set=2 * 1024 * 1024,
        level_hit_ratios=(0.97, 0.99, 0.999),
        mlp=2.0,
    ),
    branches=BranchBehavior(mispredict_ratio=0.015),
    noise=0.015,
)


def _build_gromacs() -> Workload:
    base = Phase(
        name="seed",
        instructions=1.0,
        mix=_GROMACS_BASE["mix"],
        memory=_GROMACS_BASE["memory"],
        branches=_GROMACS_BASE["branches"],
        noise=_GROMACS_BASE["noise"],
    )
    lo = calibrate_phase(NEHALEM, base, _GROMACS_IPC_LO)
    hi = calibrate_phase(NEHALEM, base, _GROMACS_IPC_HI)
    # On Core2/PPC970 the hi phases run at the lo phases' execution CPI:
    # the ripple is a Nehalem-specific micro-architectural interaction.
    flatten = lo.exec_cpi / hi.exec_cpi
    per_pair = _GROMACS_TOTAL / _GROMACS_PAIRS
    phases: list[Phase] = []
    for i in range(_GROMACS_PAIRS):
        phases.append(
            replace(
                hi,
                name=f"nb-kernel-{i}",
                instructions=per_pair * 0.55,
                arch_factors=(("core2", flatten), ("ppc970", flatten)),
            )
        )
        phases.append(replace(lo, name=f"update-{i}", instructions=per_pair * 0.45))
    return Workload(name="435.gromacs", phases=tuple(phases))


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------
_CACHE: dict[tuple[str, str], Workload] = {}


def available() -> list[str]:
    """Names of all modelled SPEC benchmarks."""
    return sorted([*_MODELS, "435.gromacs"])


def compilers(name: str) -> tuple[str, ...]:
    """Compilers a benchmark has variants for.

    Raises:
        WorkloadError: for an unknown benchmark.
    """
    if name == "435.gromacs":
        return (GCC,)
    model = _model(name)
    return model.compilers()


def _model(name: str) -> BenchmarkModel:
    try:
        return _MODELS[name]
    except KeyError as exc:
        raise WorkloadError(
            f"unknown SPEC benchmark {name!r}; known: {available()}"
        ) from exc


def workload(name: str, compiler: str = GCC) -> Workload:
    """Build (and cache) the workload for ``name`` compiled by ``compiler``.

    Phase execution CPIs are calibrated so each phase's solo IPC on the
    Nehalem reference machine equals the model's target.

    Raises:
        WorkloadError: unknown benchmark or compiler variant.
    """
    key = (name, compiler)
    if key in _CACHE:
        return _CACHE[key]
    if name == "435.gromacs":
        if compiler != GCC:
            raise WorkloadError(f"435.gromacs has no {compiler!r} variant")
        built = _build_gromacs()
        _CACHE[key] = built
        return built
    model = _model(name)
    try:
        total, shapes = model.variants[compiler]
    except KeyError as exc:
        raise WorkloadError(
            f"{name} has no {compiler!r} variant (has {model.compilers()})"
        ) from exc
    weight_sum = left_sum(s.weight for s in shapes)
    if abs(weight_sum - 1.0) > 1e-6:
        raise WorkloadError(f"{name}/{compiler} phase weights sum to {weight_sum}")
    phases: list[Phase] = []
    for shape in shapes:
        seed = Phase(
            name=shape.name,
            instructions=total * shape.weight,
            mix=model.mix,
            memory=model.memory,
            branches=model.branches,
            noise=model.noise if shape.noise is None else shape.noise,
            arch_factors=shape.arch_factors,
        )
        phases.append(calibrate_phase(NEHALEM, seed, shape.ipc))
    built = Workload(name=f"{name}", phases=tuple(phases))
    _CACHE[key] = built
    return built


def ppc_workload(name: str, compiler: str = GCC) -> Workload:
    """The PowerPC build of a benchmark: same phases, more instructions.

    Different compiler and ISA mean the PPC binary retires a slightly
    different instruction stream — Fig. 8 shows astar's curve shifting
    horizontally relative to the two (identical-binary) Intel machines.
    """
    base = workload(name, compiler)
    scale = 1.06 if name == "435.gromacs" else _model(name).ppc_instruction_scale
    phases = tuple(
        p.with_budget(p.instructions * scale) for p in base.phases
    )
    return Workload(name=f"{name}-ppc", phases=phases)
