"""Tool options."""

import dataclasses

import pytest

from repro.core.options import Options
from repro.errors import ConfigError


class TestValidation:
    def test_defaults(self):
        o = Options()
        assert o.delay == 2.0
        assert not o.batch
        assert o.screen == "default"

    def test_bad_delay(self):
        with pytest.raises(ConfigError):
            Options(delay=0)

    def test_bad_iterations(self):
        with pytest.raises(ConfigError):
            Options(iterations=0)

    def test_bad_max_tasks(self):
        with pytest.raises(ConfigError):
            Options(max_tasks=0)

    def test_chaos_defaults_off(self):
        assert Options().chaos is None

    def test_fields_are_the_tools_own(self):
        """Grid, serve and connect values live on the command line only."""
        assert [f.name for f in dataclasses.fields(Options)] == [
            "delay",
            "batch",
            "iterations",
            "per_thread",
            "watch_uid",
            "watch_pids",
            "screen",
            "sort_by",
            "max_tasks",
            "profile",
            "chaos",
        ]


class TestWants:
    def test_default_watches_everything(self):
        o = Options()
        assert o.wants(pid=1, uid=0)

    def test_uid_filter(self):
        o = Options(watch_uid=1000)
        assert o.wants(pid=1, uid=1000)
        assert not o.wants(pid=1, uid=1001)

    def test_pid_filter(self):
        o = Options(watch_pids=frozenset({5, 6}))
        assert o.wants(pid=5, uid=0)
        assert not o.wants(pid=7, uid=0)

    def test_filters_combine(self):
        o = Options(watch_uid=1000, watch_pids=frozenset({5}))
        assert o.wants(pid=5, uid=1000)
        assert not o.wants(pid=6, uid=1000)
        assert not o.wants(pid=5, uid=0)
