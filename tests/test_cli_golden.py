"""Frozen tiptop stdout, untouched by ``--profile``, and quiet exits into
closed pipes.

``tests/data/cli`` holds the stdout of thirteen tiptop runs: plain batch,
per-thread batch, chaos batch, one live frame, a batch run of each of the
other five built-in screens, ``--list-screens``, and three
``--grid-workers 3`` runs (clean and under two ``--grid-chaos`` seeds).
The sampling, rendering, screen, simulation and grid paths must
reproduce them byte for byte. A deliberate output change regenerates a
file with
``PYTHONPATH=src python -m repro.core.cli <args> > tests/data/cli/<file>``
and says why in its commit.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data" / "cli"

GOLDENS = {
    "batch_n3.txt": ["--sim", "-b", "-n", "3"],
    "batch_threads_n2.txt": ["--sim", "-b", "-n", "2", "-H"],
    "batch_chaos7_n2.txt": ["--sim", "-b", "-n", "2", "--chaos", "7"],
    "live_n1.txt": ["--sim", "-n", "1"],
    "batch_fpassist_n2.txt": ["--sim", "-b", "-n", "2", "-S", "fpassist"],
    "batch_cache_n2.txt": ["--sim", "-b", "-n", "2", "-S", "cache"],
    "batch_branch_n2.txt": ["--sim", "-b", "-n", "2", "-S", "branch"],
    "batch_mix_n2.txt": ["--sim", "-b", "-n", "2", "-S", "mix"],
    "batch_latency_n2.txt": ["--sim", "-b", "-n", "2", "-S", "latency"],
    "list_screens.txt": ["--list-screens"],
    "grid_w3_n8.txt": ["--sim", "--grid-workers", "3", "-d", "2", "-n", "8"],
    "grid_w3_chaos1_n8.txt": [
        "--sim", "--grid-workers", "3", "--grid-chaos", "1", "-d", "2", "-n", "8",
    ],
    "grid_w3_chaos4_n8.txt": [
        "--sim", "--grid-workers", "3", "--grid-chaos", "4", "-d", "2", "-n", "8",
    ],
}

#: Each ``--grid-chaos`` golden and the clean golden of the same layout.
GRID_CHAOS = {
    "grid_w3_chaos1_n8.txt": "grid_w3_n8.txt",  # a garbled reply
    "grid_w3_chaos4_n8.txt": "grid_w3_n8.txt",  # a crash
}


def tiptop(args: list[str], **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.core.cli", *args], timeout=120, **kwargs
    )


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_stdout_is_byte_identical_to_golden(name):
    result = tiptop(GOLDENS[name], capture_output=True)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == (DATA / name).read_bytes()


@pytest.mark.parametrize("chaos, clean", sorted(GRID_CHAOS.items()))
def test_grid_chaos_recovers_to_the_clean_run(chaos, clean):
    """A worker fault is recovered by restart and journal replay, so a
    chaos run prints the clean run's bytes, then its supervisor log."""
    text = (DATA / chaos).read_text()
    cut = text.index("supervisor:")
    assert cut > 0
    assert text[:cut] == (DATA / clean).read_text()


@pytest.mark.parametrize("name", ["batch_n3.txt", "batch_chaos7_n2.txt"])
def test_profile_changes_no_stdout_byte(name):
    """``--profile`` writes only to stderr: stdout stays the golden, and
    each block gets one ``profile:`` line whose ``tasks=`` is that
    block's row count."""
    result = tiptop([*GOLDENS[name], "--profile"], capture_output=True)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == (DATA / name).read_bytes()
    blocks = result.stdout.decode().split("--- t=")[1:]
    # Each block is its "--- t=" line, the column header, then its rows.
    rows = [len(block.strip("\n").splitlines()) - 2 for block in blocks]
    profiles = [
        line
        for line in result.stderr.decode().splitlines()
        if line.startswith("profile:")
    ]
    assert [int(line.rsplit("tasks=", 1)[1]) for line in profiles] == rows


@pytest.mark.parametrize(
    "args, unbuffered",
    [
        # Unbuffered, the first block's write meets the closed pipe;
        # buffered, the final flush does.
        (["--sim", "-b", "-n", "3"], "1"),
        (["--sim", "-b", "-n", "3"], ""),
        (["--sim", "-n", "2"], "1"),
    ],
    ids=["batch-unbuffered", "batch-buffered", "live"],
)
def test_closed_pipe_exits_without_traceback(args, unbuffered):
    """``tiptop -b | head -1``: the reader leaves early, tiptop stops
    quietly instead of printing a BrokenPipeError traceback."""
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first block
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    try:
        result = tiptop(args, stdout=write_end, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write_end)
    assert result.stderr == b""
    assert result.returncode == 1
