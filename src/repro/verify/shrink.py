"""Greedy scenario minimisation and replay artifacts.

When a fuzzed scenario trips an oracle, the raw scenario is usually too
big to debug (several tasks, chaos, deferred spawns, kill timers). The
shrinker walks a fixed candidate list — drop a task, drop a job, strip
chaos, shorten the run — keeping any simplification under which the
failure still reproduces, and restarts from the top after every success
until a full pass changes nothing (a local fixpoint).

The minimised scenario plus the violations it produces are written to
``verify/repro-<hash>.json``; ``python -m repro.verify --replay FILE``
re-executes the artifact byte-identically and reports whether the
violations still reproduce.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterator
from dataclasses import replace
from pathlib import Path

from repro.errors import ConfigError
from repro.verify.oracles import Violation, check_scenario
from repro.verify.scenario import SCHEMA_VERSION, Scenario

FailFn = Callable[[Scenario], list[Violation]]


def _candidates(s: Scenario) -> Iterator[Scenario]:
    """Simplified variants of ``s``, most aggressive first."""
    # Drop whole tasks / jobs (keep at least one so the run does work).
    if len(s.tasks) > 1:
        for i in range(len(s.tasks)):
            yield replace(s, tasks=s.tasks[:i] + s.tasks[i + 1 :])
    if len(s.jobs) > 1:
        for i in range(len(s.jobs)):
            yield replace(s, jobs=s.jobs[:i] + s.jobs[i + 1 :])
    # Strip chaos entirely, then explicit fault clauses one by one.
    if s.chaos_seed is not None:
        yield replace(s, chaos_seed=None)
    if s.faults:
        for i in range(len(s.faults)):
            yield replace(s, faults=s.faults[:i] + s.faults[i + 1 :])
    # Shorten the run.
    if s.iterations > 1:
        yield replace(s, iterations=max(1, s.iterations // 2))
    # Simplify individual tasks.
    for i, t in enumerate(s.tasks):
        simpler = []
        if t.kill_at is not None:
            simpler.append(replace(t, kill_at=None))
        if t.spawn_at > 0.0:
            simpler.append(replace(t, spawn_at=0.0))
        if t.nthreads > 1:
            simpler.append(replace(t, nthreads=1))
        if t.duty_cycle != 1.0:
            simpler.append(replace(t, duty_cycle=1.0))
        for variant in simpler:
            yield replace(s, tasks=s.tasks[:i] + (variant,) + s.tasks[i + 1 :])
    # Relax environment knobs.
    if s.pmu_width is not None:
        yield replace(s, pmu_width=None)
    if s.per_thread:
        yield replace(s, per_thread=False)
    if s.monitor_uid != 0:
        yield replace(s, monitor_uid=0)
    # Grid-side simplifications: strip worker chaos first (most failures
    # under chaos are recovery bugs, but if the failure survives without
    # chaos it is a much simpler engine bug), then drop engines.
    if s.grid_chaos_seed is not None:
        yield replace(s, grid_chaos_seed=None)
    if s.grid_faults:
        for i in range(len(s.grid_faults)):
            yield replace(
                s, grid_faults=s.grid_faults[:i] + s.grid_faults[i + 1 :]
            )
    if s.restart_budget < 8 and s.grid_chaotic:
        yield replace(s, restart_budget=8)
    # Link cuts (served scenarios) shrink the same way: whole schedule
    # first, then explicit fault clauses one at a time.
    if s.net_chaos_seed is not None:
        yield replace(s, net_chaos_seed=None)
    if s.net_faults:
        for i in range(len(s.net_faults)):
            yield replace(
                s, net_faults=s.net_faults[:i] + s.net_faults[i + 1 :]
            )
    # Drop the transport sweep before the cheaper engine drops: it
    # multiplies the runs per candidate evaluation.
    if s.transports:
        yield replace(s, transports=())
    if (
        "supervised" in s.engines
        and len(s.engines) > 1
        and not s.grid_chaotic
    ):
        yield replace(
            s, engines=tuple(e for e in s.engines if e != "supervised")
        )
    if s.workers > 1:
        yield replace(s, workers=1)
    if s.n_nodes > 1:
        yield replace(s, n_nodes=s.n_nodes - 1)
    if s.kind == "grid" and s.span > 4 * s.tick:
        half = max(4, round(s.span / s.tick) // 2)
        yield replace(s, span=half * s.tick)


def shrink(
    scenario: Scenario,
    failing: FailFn | None = None,
    *,
    max_evals: int = 200,
) -> Scenario:
    """Greedily minimise ``scenario`` while ``failing`` keeps failing.

    Args:
        scenario: a scenario known to produce violations.
        failing: predicate returning the violations of a candidate
            (default: :func:`check_scenario`). A candidate is accepted
            iff this returns a non-empty list.
        max_evals: hard cap on candidate executions; shrinking is
            best-effort and stops at the cap with whatever it has.
    """
    if failing is None:
        failing = check_scenario
    current = scenario
    evals = 0
    progress = True
    while progress and evals < max_evals:
        progress = False
        for candidate in _candidates(current):
            if evals >= max_evals:
                break
            evals += 1
            try:
                still_failing = bool(failing(candidate))
            except Exception:
                # A candidate that crashes the harness outright is a
                # different bug; don't shrink toward it.
                still_failing = False
            if still_failing:
                current = candidate
                progress = True
                break  # restart the scan from the simplified scenario
    return current


# -- artifacts ----------------------------------------------------------------

def write_artifact(
    scenario: Scenario,
    violations: list[Violation],
    directory: str | Path = "verify",
) -> Path:
    """Persist a failing scenario as ``<directory>/repro-<hash>.json``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": SCHEMA_VERSION,
        "hash": scenario.digest(),
        "scenario": scenario.to_dict(),
        "violations": [v.to_dict() for v in violations],
    }
    path = directory / f"repro-{scenario.digest()}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def replay_artifact(
    path: str | Path,
) -> tuple[Scenario, list[Violation], list[Violation]]:
    """Re-execute an artifact; return (scenario, recorded, current).

    ``recorded`` is what the original run reported; ``current`` is what
    the oracles say now. Replay is byte-deterministic, so a divergence
    between the two means the code under test changed.

    Raises:
        ConfigError: the artifact is missing, is not JSON, or holds a
            malformed scenario; the message says which.
    """
    try:
        payload = json.loads(Path(path).read_text())
        scenario = Scenario.from_dict(payload["scenario"])
        recorded = [
            Violation(oracle=v["oracle"], message=v["message"])
            for v in payload.get("violations", [])
        ]
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{type(exc).__name__}: {exc}") from exc
    current = check_scenario(scenario)
    return scenario, recorded, current


__all__ = [
    "replay_artifact",
    "shrink",
    "write_artifact",
]
