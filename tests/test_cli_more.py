"""CLI flag coverage beyond the basics."""

import pytest

from repro.core.cli import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.delay == 2.0
        assert args.iterations == 10
        assert not args.batch
        assert args.screen == "default"

    def test_repeatable_pid(self):
        args = build_parser().parse_args(["-p", "5", "-p", "9"])
        assert args.pid == [5, 9]

    def test_threads_flag(self):
        assert build_parser().parse_args(["-H"]).threads

    def test_grid_transport_is_not_a_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["--grid-transport", "fork"])
        assert info.value.code == 2

    def test_grid_hosts_is_not_a_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["--grid-hosts", "2"])
        assert info.value.code == 2


class TestRuns:
    def test_uid_filter_empties_view(self, capsys):
        # Fig. 1's demo users have generated uids; uid 1 matches none.
        assert main(["--sim", "-b", "-n", "1", "-u", "1"]) == 0
        out = capsys.readouterr().out
        assert "process1" not in out

    def test_pid_filter(self, capsys):
        assert main(["--sim", "-b", "-n", "1", "-p", "1000"]) == 0
        out = capsys.readouterr().out
        assert "process1" in out
        assert "process2" not in out

    def test_per_thread_mode_runs(self, capsys):
        assert main(["--sim", "-b", "-n", "1", "-H"]) == 0
        assert "process1" in capsys.readouterr().out

    def test_latency_screen(self, capsys):
        assert main(["--sim", "-b", "-n", "1", "-S", "latency"]) == 0
        assert "MEMLAT" in capsys.readouterr().out

    def test_mix_screen(self, capsys):
        assert main(["--sim", "-b", "-n", "1", "-S", "mix"]) == 0
        out = capsys.readouterr().out
        for header in ("FPI", "LPI", "BPI", "FPC", "LPC"):
            assert header in out

    def test_invalid_delay_rejected_by_options(self, capsys):
        assert main(["--sim", "-b", "-n", "1", "-d", "0"]) == 1
        assert "delay" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_grid_workers_below_one_is_rejected(self, capsys, workers):
        assert main(["--sim", "--grid-workers", workers, "-n", "1"]) == 1
        captured = capsys.readouterr()
        assert "grid_workers must be >= 1" in captured.err
        assert "engine=" not in captured.out

    def test_grid_banner_prints_the_workers_that_run(self, capsys):
        # The default grid has 5 nodes: 8 workers clamp to 5 processes.
        assert main(["--sim", "--grid-workers", "8", "-d", "2", "-n", "2"]) == 0
        banner = capsys.readouterr().out.splitlines()[0]
        assert "engine=supervised workers=5," in banner
