"""Batch-stream parsing: renderer <-> parser round trip."""

import pytest

from repro import Options, SimHost, TipTop
from repro.core.batchparse import parse_blocks, series_from_blocks
from repro.errors import ReproError


@pytest.fixture
def stream_and_pids(coarse_machine, endless_workload):
    a = coarse_machine.spawn("alpha", endless_workload)
    b = coarse_machine.spawn("beta", endless_workload)
    blocks: list[str] = []
    with TipTop(SimHost(coarse_machine), Options(delay=2.0)) as app:
        app.run_batch(4, write=blocks.append)
    return "\n".join(blocks), (a.pid, b.pid)


class TestRoundTrip:
    def test_block_count_and_stamps(self, stream_and_pids):
        stream, _ = stream_and_pids
        blocks = parse_blocks(stream)
        assert len(blocks) == 4
        assert blocks[0].time == pytest.approx(2.0)
        assert all(b.interval == pytest.approx(2.0) for b in blocks)

    def test_rows_and_headers(self, stream_and_pids):
        stream, (pid_a, _) = stream_and_pids
        block = parse_blocks(stream)[0]
        assert block.headers[0] == "PID"
        assert block.headers[-1] == "COMMAND"
        row = block.row_for(pid_a)
        assert row is not None
        assert row["COMMAND"] == "alpha"
        assert isinstance(row["IPC"], float)
        assert row["%CPU"] == pytest.approx(100.0, abs=1.0)

    def test_series_extraction(self, stream_and_pids):
        stream, (pid_a, _) = stream_and_pids
        blocks = parse_blocks(stream)
        times, ipcs = series_from_blocks(blocks, pid_a, "IPC")
        assert len(times) == 4
        assert all(0.5 < v < 3.0 for v in ipcs)

    def test_missing_pid_empty_series(self, stream_and_pids):
        stream, _ = stream_and_pids
        blocks = parse_blocks(stream)
        times, values = series_from_blocks(blocks, 424242, "IPC")
        assert times == [] and values == []


class TestStrictness:
    def test_garbage_stamp(self):
        with pytest.raises(ReproError):
            parse_blocks("hello world\n")

    def test_missing_header(self):
        with pytest.raises(ReproError):
            parse_blocks("--- t=1.0s interval=1.0s ---\n")

    def test_wrong_header_start(self):
        with pytest.raises(ReproError):
            parse_blocks("--- t=1.0s interval=1.0s ---\nUSER PID\n")

    def test_short_row(self):
        text = (
            "--- t=1.0s interval=1.0s ---\n"
            "   PID USER %CPU COMMAND\n"
            "  1 bob\n"
        )
        with pytest.raises(ReproError):
            parse_blocks(text)

    def test_nan_cell_becomes_none(self):
        text = (
            "--- t=1.0s interval=1.0s ---\n"
            "   PID USER  IPC COMMAND\n"
            "  1 bob    - sleepy\n"
        )
        block = parse_blocks(text)[0]
        assert block.rows[0]["IPC"] is None

    def test_empty_stream(self):
        assert parse_blocks("") == []
