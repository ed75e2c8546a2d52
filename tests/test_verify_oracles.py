"""The conformance harness end to end: fuzzing, oracles, shrinking.

The fuzz block is the acceptance criterion of the harness: 60 fresh
seeded scenarios all come back green from every oracle. The injected-bug
block proves the harness has teeth — a deliberately broken engine path
is caught by the differential oracles, shrunk to a tiny scenario, and
reproduced deterministically from its replay artifact.
"""

import math

import pytest

from repro.sim.columns import ColumnKernel
from repro.verify import check, check_scenario, execute, generate, shrink
from repro.verify.oracles import Violation, deep_diff
from repro.verify.shrink import replay_artifact, write_artifact
from repro.verify.scenario import Scenario, TaskPlan

#: The fuzz budget demanded by the harness acceptance criteria.
FUZZ_SEEDS = 60


@pytest.mark.parametrize("seed", range(FUZZ_SEEDS))
def test_fuzz_seed_passes_all_oracles(seed):
    violations = check_scenario(generate(seed))
    assert violations == [], "\n".join(
        f"[{v.oracle}] {v.message}" for v in violations
    )


def _oversubscribed_scenario() -> Scenario:
    """Five runnable tasks on two logical PUs: some task is always
    unscheduled, so the kernel's idle-clock step must do real work."""
    tasks = tuple(
        TaskPlan(
            name=f"compute{i}", archetype="compute", target_ipc=1.8,
            duration=math.inf,
        )
        for i in range(5)
    )
    return Scenario(
        kind="tool", seed=3, cores_per_socket=1, tick=0.25, delay=1.0,
        iterations=3, tasks=tasks,
    )


def _break_idle_clock(mp: pytest.MonkeyPatch) -> None:
    """The injected bug: the kernel's idle-clock step becomes a no-op, so
    idle tasks silently lose enabled time on the kernel only — the scalar
    reference still advances them."""
    mp.setattr(ColumnKernel, "_idle_step", lambda self, work, dt: None)


class TestInjectedBug:
    def test_divergence_is_caught(self, monkeypatch):
        _break_idle_clock(monkeypatch)
        violations = check_scenario(_oversubscribed_scenario())
        assert any(v.oracle == "advance-equivalence" for v in violations)

    def test_shrinks_to_minimal_repro(self, monkeypatch, tmp_path):
        _break_idle_clock(monkeypatch)
        scenario = _oversubscribed_scenario()
        small = shrink(scenario)
        # Two PUs: three single-thread tasks is the least oversubscription
        # that keeps a task idle, and one interval suffices to see it.
        assert len(small.tasks) <= 3
        assert small.iterations == 1
        violations = check_scenario(small)
        assert any(v.oracle == "advance-equivalence" for v in violations)

        path = write_artifact(small, violations, tmp_path)
        assert path.name == f"repro-{small.digest()}.json"
        replayed, recorded, current = replay_artifact(path)
        assert replayed == small
        assert {v.oracle for v in recorded} == {v.oracle for v in violations}
        assert current  # deterministic: the bug still reproduces

    def test_artifact_goes_quiet_once_fixed(self, tmp_path):
        with pytest.MonkeyPatch.context() as mp:
            _break_idle_clock(mp)
            small = shrink(_oversubscribed_scenario())
            path = write_artifact(small, check_scenario(small), tmp_path)
        # Patch undone: the replay runs against healthy code.
        _, recorded, current = replay_artifact(path)
        assert recorded
        assert current == []


class TestShrinker:
    def test_keeps_failure_reproducing(self):
        """Shrinking against a synthetic predicate only accepts candidates
        that still fail, and stops at a fixpoint."""
        scenario = generate(2)  # a multi-task tool scenario
        assert len(scenario.tasks) > 1

        def failing(s):
            # "Bug" requires a task named like the first one.
            if any(t.name == scenario.tasks[0].name for t in s.tasks):
                return [Violation("synthetic", "still there")]
            return []

        small = shrink(scenario, failing)
        assert len(small.tasks) == 1
        assert small.tasks[0].name == scenario.tasks[0].name
        assert small.chaos_seed is None

    def test_eval_budget_respected(self):
        calls = 0

        def failing(s):
            nonlocal calls
            calls += 1
            return [Violation("synthetic", "always")]

        shrink(generate(2), failing, max_evals=5)
        assert calls <= 5

    def test_crashing_candidate_not_accepted(self):
        scenario = generate(2)

        def failing(s):
            if len(s.tasks) < len(scenario.tasks):
                raise RuntimeError("harness crash")
            return [Violation("synthetic", "original fails")]

        small = shrink(scenario, failing)
        assert len(small.tasks) == len(scenario.tasks)


class TestOracleInternals:
    def test_deep_diff_reports_first_paths(self):
        a = {"x": [1, 2], "y": {"z": 1.0}}
        b = {"x": [1, 3], "y": {"z": 2.0}}
        diffs = deep_diff(a, b)
        assert any("$.x[1]" in d for d in diffs)
        assert any("$.y.z" in d for d in diffs)

    def test_deep_diff_nan_equal(self):
        assert deep_diff({"v": math.nan}, {"v": math.nan}) == []

    def test_deep_diff_length_mismatch(self):
        assert deep_diff([1], [1, 2]) == ["$: length 1 != 2"]

    def test_violation_to_dict(self):
        v = Violation("conservation", "lost 3 events")
        assert v.to_dict() == {
            "oracle": "conservation",
            "message": "lost 3 events",
        }

    def test_health_oracle_flags_illegal_label(self):
        ex = execute(generate(0))
        assert ex.base is not None and ex.base.health
        ex.base.health[0][9999] = "zombie"
        violations = check(ex)
        assert any(v.oracle == "health-legal" for v in violations)

    def test_doctored_snapshot_breaks_replay_oracle(self):
        ex = execute(generate(1))
        assert ex.base is not None and ex.replay is not None
        ex.replay.snapshot["now"] = ex.replay.snapshot["now"] + 1.0
        violations = check(ex)
        assert any(v.oracle == "replay-determinism" for v in violations)
