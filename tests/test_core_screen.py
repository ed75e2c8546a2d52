"""Screens: built-ins and config-driven customs."""

import pytest

from repro.core.metrics import METRICS
from repro.core.screen import (
    builtin_screens,
    get_screen,
    screen_from_config,
)
from repro.errors import ConfigError

#: Each built-in's derived columns, frozen: this order opens the counters
#: (multiplex rotation) and lays out every golden and digest.
LAYOUTS = {
    "default": ["Mcycle", "Minst", "IPC", "DMIS"],
    "fpassist": ["IPC", "ASSIST", "UPI"],
    "cache": ["IPC", "L1MIS", "L2MIS", "L3MIS"],
    "branch": ["IPC", "BPI", "%MISP"],
    "mix": ["IPC", "FPI", "LPI", "BPI", "FPC", "LPC", "DMIS"],
    "latency": ["IPC", "DMIS", "MEMLAT"],
}


class TestBuiltins:
    def test_default_matches_fig1(self):
        headers = [c.header for c in get_screen("default").columns]
        assert headers == [
            "PID", "USER", "%CPU", "Mcycle", "Minst", "IPC", "DMIS", "COMMAND",
        ]

    def test_default_events(self):
        names = {e.name for e in get_screen("default").required_events()}
        assert names == {"cycles", "instructions", "cache-misses"}

    def test_fpassist_screen_counts_assists(self):
        names = {e.name for e in get_screen("fpassist").required_events()}
        assert "fp-assist" in names
        assert "uops-executed" in names

    def test_cache_screen_counts_levels(self):
        names = {e.name for e in get_screen("cache").required_events()}
        assert {"l1d-misses", "l2-misses", "l3-misses"} <= names

    def test_all_builtins_resolve(self):
        for screen in builtin_screens():
            screen.required_events()

    def test_unknown_screen(self):
        with pytest.raises(ConfigError):
            get_screen("holographic")

    def test_layouts_come_from_the_catalogue(self):
        assert [s.name for s in builtin_screens()] == list(LAYOUTS)
        for screen in builtin_screens():
            derived = [c for c in screen.columns if c.expression is not None]
            assert [c.header for c in derived] == LAYOUTS[screen.name]
            for column in derived:
                metric = METRICS[column.header]
                assert column.expression.text == metric.expr
                assert (column.width, column.decimals) == (
                    metric.width, metric.decimals,
                )


class TestLookup:
    """``get_screen(name, extra)``: the one name-to-screen lookup."""

    MINE = screen_from_config({"name": "mine", "columns": ["GHZ"]})
    CACHE = screen_from_config({"name": "cache", "columns": ["L3MIS"]})

    def test_extra_shadows_builtin(self):
        assert get_screen("cache", [self.CACHE]) is self.CACHE
        assert get_screen("mine", [self.MINE]) is self.MINE
        assert get_screen("default", [self.MINE]) is builtin_screens()[0]

    def test_unknown_name_lists_every_choice(self):
        with pytest.raises(ConfigError, match=r"unknown screen 'x'.*'mine'"):
            get_screen("x", [self.MINE])


class TestCustomScreens:
    def test_minimal_config(self):
        screen = screen_from_config(
            {
                "name": "mine",
                "columns": [{"header": "IPC", "expr": "instructions / cycles"}],
            }
        )
        headers = [c.header for c in screen.columns]
        # Intrinsics wrap the derived column.
        assert headers == ["PID", "USER", "%CPU", "IPC", "COMMAND"]

    def test_bare_config(self):
        screen = screen_from_config(
            {
                "name": "bare",
                "bare": True,
                "columns": [{"header": "X", "expr": "cycles"}],
            }
        )
        assert [c.header for c in screen.columns] == ["X"]

    def test_width_and_decimals(self):
        screen = screen_from_config(
            {
                "name": "w",
                "columns": [
                    {"header": "D", "expr": "cycles", "width": 12, "decimals": 4}
                ],
            }
        )
        col = next(c for c in screen.columns if c.header == "D")
        assert col.width == 12
        assert col.decimals == 4

    def test_missing_name(self):
        with pytest.raises(ConfigError):
            screen_from_config({"columns": [{"header": "X", "expr": "cycles"}]})

    def test_empty_columns(self):
        with pytest.raises(ConfigError):
            screen_from_config({"name": "x", "columns": []})

    def test_malformed_column(self):
        with pytest.raises(ConfigError):
            screen_from_config({"name": "x", "columns": [{"header": "X"}]})

    @pytest.mark.parametrize(
        "bad",
        [
            {"width": "wide"},
            {"width": 8.5},
            {"width": True},
            {"decimals": -1},
            {"decimals": "2"},
            {"expr": 5},
            {"header": 5},
        ],
        ids=[
            "width-text", "width-float", "width-bool", "decimals-negative",
            "decimals-text", "expr-number", "header-number",
        ],
    )
    def test_malformed_value_is_config_error(self, bad):
        column = {"header": "X", "expr": "cycles", **bad}
        with pytest.raises(ConfigError):
            screen_from_config({"name": "x", "columns": [column]})

    def test_catalogue_name_column(self):
        screen = screen_from_config({"name": "x", "columns": ["MISS_RATIO"]})
        column = screen.columns[3]
        assert column.header == "MISS_RATIO"
        assert column.expression.text == METRICS["MISS_RATIO"].expr

    def test_unknown_identifier_rejected_eagerly(self):
        with pytest.raises(ConfigError):
            screen_from_config(
                {"name": "x", "columns": [{"header": "X", "expr": "warp_core"}]}
            )

    def test_builtin_variables_allowed(self):
        screen = screen_from_config(
            {
                "name": "ghz",
                "columns": [{"header": "GHZ", "expr": "cycles / delta_t / 1e9"}],
            }
        )
        assert {e.name for e in screen.required_events()} == {"cycles"}
