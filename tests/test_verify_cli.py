"""The ``python -m repro.verify`` front end and the tiptop --replay hook."""

import json

import pytest

from repro.core.cli import main as tiptop_main
from repro.sim.columns import ColumnKernel
from repro.verify.cli import build_parser, main
from repro.verify.oracles import check_scenario
from repro.verify.shrink import shrink, write_artifact
from tests.test_verify_oracles import _break_idle_clock, _oversubscribed_scenario


class TestFuzzMode:
    def test_green_seeds_exit_zero(self, capsys):
        assert main(["--fuzz", "3", "--seed", "300"]) == 0
        out = capsys.readouterr().out
        assert "3 scenario(s) checked, 0 failing" in out

    def test_time_box_stops_early(self, capsys):
        assert main(["--fuzz", "50", "--time-box", "0"]) == 0
        err = capsys.readouterr().err
        assert "time box reached after 0/50 seeds" in err

    def test_failing_seed_writes_artifact_and_exits_nonzero(
        self, monkeypatch, tmp_path, capsys
    ):
        _break_idle_clock(monkeypatch)
        # Seed 3 regenerates as a small scenario; fuzzing any seed range
        # under the broken engine must catch at least the oversubscribed
        # ones. Use a generated seed known to oversubscribe: fall back to
        # checking the artifact flow via an explicit failing scenario.
        scenario = _oversubscribed_scenario()
        monkeypatch.setattr(
            "repro.verify.cli.generate", lambda seed: scenario
        )
        rc = main([
            "--fuzz", "1",
            "--artifact-dir", str(tmp_path),
            "--max-shrink-evals", "40",
        ])
        assert rc == 1
        artifacts = list(tmp_path.glob("repro-*.json"))
        assert len(artifacts) == 1
        payload = json.loads(artifacts[0].read_text())
        assert payload["violations"]
        assert payload["scenario"]["kind"] == "tool"
        err = capsys.readouterr().err
        assert "violation(s)" in err and "artifact:" in err


class TestReplayMode:
    @pytest.fixture
    def artifact(self, tmp_path):
        with pytest.MonkeyPatch.context() as mp:
            _break_idle_clock(mp)
            small = shrink(_oversubscribed_scenario(), max_evals=40)
            return write_artifact(small, check_scenario(small), tmp_path)

    def test_replay_green_after_fix(self, artifact, capsys):
        assert main(["--replay", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "no longer reproduce" in out

    def test_replay_red_while_broken(self, artifact, monkeypatch, capsys):
        _break_idle_clock(monkeypatch)
        assert main(["--replay", str(artifact)]) == 1
        out = capsys.readouterr().out
        assert "[advance-equivalence]" in out

    def test_tiptop_replay_flag_delegates(self, artifact, capsys):
        assert tiptop_main(["--replay", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "recorded violation(s)" in out


class TestParser:
    def test_requires_a_mode(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_modes_are_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--fuzz", "1", "--replay", "x.json"])

    def test_module_is_executable(self):
        import repro.verify.__main__  # noqa: F401 -- import fails loudly


def test_counter_table_hook_still_exists():
    """The injected-bug tests monkeypatch the kernel's idle-clock step;
    fail fast here if a rename ever silently turns them into no-op tests.
    (The name recalls the ``CounterTable`` method that step replaced.)"""
    assert callable(getattr(ColumnKernel, "_idle_step"))
