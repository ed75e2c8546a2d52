"""Screen configuration files (the XML-config equivalent)."""

import json

import pytest

from repro.core.cli import main
from repro.core.config_file import load_screens, parse_screens
from repro.core.screen import get_screen
from repro.errors import ConfigError

GOOD = {
    "screens": [
        {
            "name": "hpc",
            "description": "roofline-ish rates",
            "columns": [
                {"header": "FPC", "expr": "fp_operations / cycles"},
                {"header": "LPC", "expr": "loads / cycles"},
            ],
        },
        {
            "name": "tiny",
            "bare": True,
            "columns": [{"header": "IPC", "expr": "instructions / cycles"}],
        },
    ]
}


class TestParse:
    def test_screens_list(self):
        screens = parse_screens(GOOD)
        assert [s.name for s in screens] == ["hpc", "tiny"]

    def test_single_dict(self):
        screens = parse_screens(GOOD["screens"][0])
        assert screens[0].name == "hpc"

    def test_bare_list(self):
        screens = parse_screens(GOOD["screens"])
        assert len(screens) == 2

    def test_rejects_scalar(self):
        with pytest.raises(ConfigError):
            parse_screens("nope")

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            parse_screens({"screens": []})

    def test_rejects_duplicates(self):
        dup = [GOOD["screens"][0], GOOD["screens"][0]]
        with pytest.raises(ConfigError):
            parse_screens(dup)

    def test_rejects_unknown_identifier(self):
        bad = {
            "name": "x",
            "columns": [{"header": "X", "expr": "tachyons / cycles"}],
        }
        with pytest.raises(ConfigError):
            parse_screens(bad)


class TestLoad:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "screens.json"
        path.write_text(json.dumps(GOOD))
        screens = load_screens(path)
        hpc = get_screen("hpc", screens)
        assert {e.name for e in hpc.required_events()} == {
            "fp-operations", "loads", "cycles",
        }

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_screens(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_screens(path)

    def test_find_missing_name(self, tmp_path):
        path = tmp_path / "screens.json"
        path.write_text(json.dumps(GOOD))
        with pytest.raises(ConfigError):
            get_screen("absent", load_screens(path))


class TestCliIntegration:
    def test_screen_file_flag(self, tmp_path, capsys):
        path = tmp_path / "screens.json"
        path.write_text(json.dumps(GOOD))
        rc = main(["--sim", "-b", "-n", "1", "-W", str(path), "-S", "hpc"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "FPC" in out and "LPC" in out

    def test_screen_file_bad_name(self, tmp_path, capsys):
        path = tmp_path / "screens.json"
        path.write_text(json.dumps(GOOD))
        rc = main(["--sim", "-b", "-n", "1", "-W", str(path), "-S", "absent"])
        assert rc == 1
        assert "unknown screen 'absent'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, header",
        [([], "DMIS"), (["-S", "cache"], "L2MIS")],
        ids=["no-S", "builtin"],
    )
    def test_screen_file_keeps_builtins(self, tmp_path, capsys, args, header):
        path = tmp_path / "screens.json"
        path.write_text(json.dumps(GOOD))
        rc = main(["--sim", "-b", "-n", "1", "-W", str(path), *args])
        assert rc == 0
        assert header in capsys.readouterr().out

    def test_file_screen_shadows_builtin(self, tmp_path, capsys):
        path = tmp_path / "screens.json"
        path.write_text(json.dumps({"name": "cache", "columns": ["GHZ"]}))
        rc = main(["--sim", "-b", "-n", "1", "-W", str(path), "-S", "cache"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "GHZ" in out and "L2MIS" not in out

    def test_list_screens_with_file(self, tmp_path, capsys):
        path = tmp_path / "screens.json"
        shadow = {"name": "cache", "description": "mine", "columns": ["IPC"]}
        path.write_text(json.dumps([shadow, *GOOD["screens"]]))
        assert main(["--list-screens", "-W", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == [
            "default", "fpassist", "cache", "branch", "mix", "latency",
            "hpc", "tiny",
        ]
        assert lines[2] == "cache      mine"

    def test_list_screens_reports_bad_file(self, tmp_path, capsys):
        assert main(["--list-screens", "-W", str(tmp_path / "absent.json")]) == 1
        assert capsys.readouterr().err.startswith("tiptop: cannot read")
