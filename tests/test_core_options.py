"""Tool options."""

import dataclasses

import pytest

from repro.core.options import Options
from repro.core.proclist import watched
from repro.errors import ConfigError
from repro.procfs.model import ProcessInfo, ProcessTable


def _table(*procs):
    """A listing of (pid, uid) processes."""
    return ProcessTable.from_rows(
        ProcessInfo(pid, (pid,), uid, "u", "c", 0.0, 0.0, 0)
        for pid, uid in procs
    )


def _wants(options, *, pid, uid):
    """Whether the process list's watch filter lets one process through."""
    return watched(options, _table((pid, uid))).tolist() == [0]


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
    """The watch options as the process list applies them: one mask over
    the whole listing, rows kept in pid order."""

    def test_default_watches_everything(self):
        o = Options()
        assert _wants(o, pid=1, uid=0)
        assert watched(o, _table((9, 0), (2, 5), (4, 0))).tolist() == [0, 1, 2]

    def test_uid_filter(self):
        o = Options(watch_uid=1000)
        assert _wants(o, pid=1, uid=1000)
        assert not _wants(o, pid=1, uid=1001)

    def test_pid_filter(self):
        o = Options(watch_pids=frozenset({5, 6}))
        assert _wants(o, pid=5, uid=0)
        assert not _wants(o, pid=7, uid=0)

    def test_filters_combine(self):
        o = Options(watch_uid=1000, watch_pids=frozenset({5}))
        assert _wants(o, pid=5, uid=1000)
        assert not _wants(o, pid=6, uid=1000)
        assert not _wants(o, pid=5, uid=0)
        table = _table((6, 1000), (5, 1000), (4, 0), (3, 1000))
        assert table.pid[watched(o, table)].tolist() == [5]
