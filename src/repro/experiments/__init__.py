"""Deterministic experiments over the full workload library.

The package LIKWID-style "packages measurements as named, reusable
configurations": an experiment is a declarative TOML/JSON spec sweeping
``configs x workloads x seeds``; every cell runs through the simulated
machine's columnar tick path and the whole artifact (JSON/CSV/Markdown
under ``benchmarks/out/``) is a pure function of the spec — regenerable
byte-identically on any machine.

Layers (import order, no cycles):

* :mod:`~repro.experiments.library` — the unified named-workload
  registry with ``@compiler``/``#phase``/``/scale`` modifiers.
* :mod:`~repro.experiments.signatures` — frozen 12-significant-digit
  per-phase metric signatures of every library workload.
* :mod:`~repro.experiments.spec` — spec schema, loading, validation.
* :mod:`~repro.experiments.matrix` — the factorial cell planner.
* :mod:`~repro.experiments.executor` — the counters and tool harnesses.
* :mod:`~repro.experiments.report` — canonical artifact writers.
* :mod:`~repro.experiments.runner` — orchestration (``--jobs`` fan-out).
* :mod:`~repro.experiments.cli` — ``python -m repro.experiments``.
"""

from repro.experiments import library, signatures
from repro.experiments.matrix import Cell, plan
from repro.experiments.report import build_artifact, canonical_json
from repro.experiments.runner import run, run_cells
from repro.experiments.spec import CellConfig, ExperimentSpec, from_dict, load

__all__ = [
    "Cell",
    "CellConfig",
    "ExperimentSpec",
    "build_artifact",
    "canonical_json",
    "from_dict",
    "library",
    "load",
    "plan",
    "run",
    "run_cells",
    "signatures",
]
