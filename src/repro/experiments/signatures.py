"""Frozen per-phase metric signatures for every library workload.

A *signature* is the analytically exact solo behaviour of a workload on
the reference machine — per-phase IPC, CPI decomposition, cache miss
ratios and branch behaviour — rounded to 12 significant digits and
committed as a golden file. The models are pure functions of their
parameters, so the signature is bitwise reproducible on any platform;
any calibration drift (a retuned penalty, an edited hit ratio, a solver
change) breaks the comparison loudly instead of silently shifting every
figure built on top.

Regenerate after *deliberate* model changes with::

    python -m repro.experiments --regen-signatures

and review the golden diff like any other behaviour change.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.sim.arch import NEHALEM, ArchModel
from repro.sim.core import solo_rates
from repro.sim.events import Event
from repro.sim.workload import Phase, Workload

from repro.experiments import library

#: Significant digits the golden pins (documented in DESIGN.md).
DIGITS = 12

#: Golden file location relative to the repository root.
GOLDEN_RELPATH = Path("tests") / "data" / "workload_signatures.json"


def freeze(value: float) -> float:
    """Round to :data:`DIGITS` significant digits, exactly.

    ``float(f"{x:.12g}")`` is deterministic across platforms (both the
    formatting and the parse are correctly rounded), so two regenerations
    of the same model produce byte-identical JSON.
    """
    return float(f"{value:.{DIGITS}g}")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def phase_signature(arch: ArchModel, phase: Phase) -> dict:
    """The frozen observable vector of one phase, solo on ``arch``."""
    rates = solo_rates(arch, phase)
    ev = rates.rate
    sig = {
        "name": phase.name,
        "instructions": freeze(phase.instructions),
        "ipc": freeze(rates.ipc),
        "cpi": freeze(rates.cpi),
        "cpi_exec": freeze(rates.cpi_exec),
        "cpi_memory": freeze(rates.cpi_memory),
        "cpi_branch": freeze(rates.cpi_branch),
        "cpi_assist": freeze(rates.cpi_assist),
        "l1_miss_ratio": freeze(
            _ratio(ev(Event.L1D_MISSES), ev(Event.L1D_ACCESSES))
        ),
        "l2_miss_ratio": freeze(
            _ratio(ev(Event.L2_MISSES), ev(Event.L2_ACCESSES))
        ),
        "l3_miss_ratio": freeze(
            _ratio(ev(Event.L3_MISSES), ev(Event.L3_ACCESSES))
        ),
        "llc_misses_per_instruction": freeze(ev(Event.CACHE_MISSES)),
        "branch_fraction": freeze(ev(Event.BRANCH_INSTRUCTIONS)),
        "mispredict_ratio": freeze(
            _ratio(ev(Event.BRANCH_MISSES), ev(Event.BRANCH_INSTRUCTIONS))
        ),
        "assists_per_instruction": freeze(ev(Event.FP_ASSIST)),
        "mem_latency_cpi": freeze(ev(Event.MEM_LATENCY_CYCLES)),
    }
    return sig


def workload_signature(workload: Workload, arch: ArchModel = NEHALEM) -> dict:
    """The full signature of one workload: repeat count, total budget,
    and every phase's frozen vector."""
    return {
        "name": workload.name,
        "repeat": workload.repeat,
        "total_instructions": freeze(workload.total_instructions),
        "phases": [phase_signature(arch, p) for p in workload.phases],
    }


def library_signatures(arch: ArchModel = NEHALEM) -> dict[str, dict]:
    """Signatures of every library workload (SPEC both compilers,
    revolve, FP microbenchmarks, modern archetypes)."""
    return {
        name: workload_signature(library.resolve(name), arch)
        for name in library.signature_names()
    }


def golden_document(arch: ArchModel = NEHALEM) -> dict:
    """The full golden-file content for ``arch``."""
    return {
        "schema": 1,
        "arch": arch.name,
        "digits": DIGITS,
        "workloads": library_signatures(arch),
    }


def canonical_json(document: dict) -> str:
    """The byte-exact serialisation the golden file and tests compare."""
    return json.dumps(document, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_golden(path: Path | str, arch: ArchModel = NEHALEM) -> Path:
    """(Re)generate the golden signature file at ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(canonical_json(golden_document(arch)))
    return path


def load_golden(path: Path | str) -> dict:
    """Read a previously written golden document."""
    return json.loads(Path(path).read_text())
