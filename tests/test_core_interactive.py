"""Interactive live-mode commands."""

import pytest

from repro import Options, SimHost
from repro.core.interactive import InteractiveSession, help_frame
from repro.core.screen import screen_from_config
from repro.errors import ConfigError


class Keys:
    """A scripted input source: one list of commands per refresh."""

    def __init__(self, *per_refresh):
        self.queues = list(per_refresh)

    def __call__(self):
        return self.queues.pop(0) if self.queues else []


@pytest.fixture
def host(coarse_machine, endless_workload):
    coarse_machine.spawn("busy", endless_workload, uid=1000)
    coarse_machine.spawn("other", endless_workload, uid=1001, duty_cycle=0.02)
    return SimHost(coarse_machine)


def _session(host, keys, **opt):
    return InteractiveSession(
        host, Options(delay=2.0, **opt), input_source=keys
    )


class TestCommands:
    def test_quit_stops_loop(self, host):
        session = _session(host, Keys([], ["q"]))
        frames = session.run(max_iterations=50)
        assert len(frames) == 1  # one refresh before the quit

    def test_delay_change(self, host):
        session = _session(host, Keys(["d 7"], ["q"]))
        session.run()
        assert session.options.delay == 7.0
        assert host.machine.now == pytest.approx(7.0)

    def test_delay_bad_argument_reports(self, host):
        session = _session(host, Keys(["d soon"], ["q"]))
        frames = session.run()
        assert any("needs a number" in f for f in frames)

    def test_screen_switch_reattaches(self, host):
        session = _session(host, Keys(["s cache"], ["q"]))
        frames = session.run()
        assert "L2MIS" in frames[-1]
        assert host.machine.counters.open_count() == 0  # closed at exit

    def test_unknown_screen_reports(self, host):
        session = _session(host, Keys(["s warp"], ["q"]))
        frames = session.run()
        assert any("unknown screen" in f for f in frames)

    def test_thread_toggle(self, host):
        session = _session(host, Keys(["H"], ["q"]))
        session.run()
        assert session.options.per_thread

    def test_idle_toggle_hides_rows(self, host):
        noisy = _session(host, Keys([], ["q"]))
        visible = noisy.run()[-1]
        assert "other" in visible

        host2_frames = _session(host, Keys(["i"], ["q"])).run()
        assert "other" not in host2_frames[-1]
        assert "busy" in host2_frames[-1]

    def test_uid_filter_and_clear(self, host):
        session = _session(host, Keys(["u 1000"], [], ["u"], [], ["q"]))
        frames = session.run()
        assert "other" not in frames[0]
        assert "other" in frames[-1]

    def test_help(self, host):
        session = _session(host, Keys(["h"], ["q"]))
        frames = session.run()
        assert any("interactive commands" in f for f in frames)

    def test_extra_screens_are_listed_and_selectable(self, host):
        hpc = screen_from_config({"name": "hpc", "columns": ["FPC", "LPC"]})
        session = InteractiveSession(
            host,
            Options(delay=2.0),
            input_source=Keys(["h", "s hpc"], ["q"]),
            extra_screens=[hpc],
        )
        frames = session.run()
        assert frames[0].endswith("latency, hpc")
        assert "FPC" in frames[-1]

    def test_unknown_command_reports(self, host):
        session = _session(host, Keys(["z"], ["q"]))
        frames = session.run()
        assert any("unknown command" in f for f in frames)

    def test_handle_raises_directly(self, host):
        session = _session(host, Keys())
        with pytest.raises(ConfigError):
            session.handle("d never")
        session.close()

    def test_empty_command_ignored(self, host):
        session = _session(host, Keys(["", "  "], ["q"]))
        frames = session.run()
        assert len(frames) == 1

    def test_max_iterations_bound(self, host):
        session = _session(host, Keys())
        frames = session.run(max_iterations=3)
        assert len(frames) == 3


class TestHelpFrame:
    def test_lists_screens(self):
        text = help_frame()
        for name in ("default", "cache", "fpassist", "latency"):
            assert name in text
