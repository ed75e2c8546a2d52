"""Differential conformance harness: scenarios, oracles, shrinking.

The reproduction now carries several independent implementations of the
same observable behaviour — grid engines, the columnar tick kernel and
its scalar reference, per-handle and batched counter reads, a scalar and
a vectorised expression evaluator — each claiming exact agreement.
``repro.verify`` turns those claims into machine-checked properties:

* :mod:`repro.verify.scenario` — a declarative, JSON-serialisable
  :class:`~repro.verify.scenario.Scenario` plus a seeded generator that
  composes workload mixes, spawn/kill churn, fault plans, engine choices
  and multiplexing pressure into whole-system test cases.
* :mod:`repro.verify.runner` — executes one scenario through every
  implementation pair the oracles need.
* :mod:`repro.verify.reference` — the scalar per-object tick the
  machine's columnar kernel must match bit for bit.
* :mod:`repro.verify.oracles` — the registry of differential checks and
  semantic invariants; each returns
  :class:`~repro.verify.oracles.Violation` records.
* :mod:`repro.verify.shrink` — greedy scenario minimisation and the
  ``verify/repro-<hash>.json`` replay artifacts.
* ``python -m repro.verify`` — fuzz / replay front-end
  (:mod:`repro.verify.cli`).
"""

from repro.verify.oracles import Violation, check, check_scenario
from repro.verify.runner import Execution, execute
from repro.verify.scenario import Scenario, generate
from repro.verify.shrink import replay_artifact, shrink, write_artifact

__all__ = [
    "Execution",
    "Scenario",
    "Violation",
    "check",
    "check_scenario",
    "execute",
    "generate",
    "replay_artifact",
    "shrink",
    "write_artifact",
]
