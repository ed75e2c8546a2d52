"""Hypothesis strategies and helpers shared by the tests."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.core.frame import SnapshotFrame
from repro.sim.events import EVENT_CODE, N_EVENT_CODES

EVENTS = ("cache-misses", "cycles", "instructions")


def lanes(deltas: dict) -> np.ndarray:
    """The ``{Event: count}`` ``deltas`` as the lane vector that
    :meth:`~repro.sim.counters.CounterTable.accrue` takes (0.0 elsewhere)."""
    vec = np.zeros(N_EVENT_CODES)
    for event, count in deltas.items():
        vec[EVENT_CODE[event]] = count
    return vec


class NoScan(dict):
    """A process table that fails the test if anything walks it."""

    def values(self):
        raise AssertionError("scanned every process")

    def __iter__(self):
        raise AssertionError("scanned every process")


@st.composite
def recordings(draw, names, metric=None) -> list[SnapshotFrame]:
    """The frames of one recording: distinct times, one to four tasks each.

    Every frame counts the same events. When ``metric`` is given, it draws
    the cells of two derived columns, ``DMIS`` and ``IPC``. Event and
    metric keys are in sorted order, the order ``Recorder.to_csv`` writes.
    """
    events = sorted(draw(st.sets(st.sampled_from(EVENTS))))
    headers = ("DMIS", "IPC") if metric is not None else ()
    columns = (
        ("PID", "pid"), ("USER", "user"), ("%CPU", "cpu"),
        *((h, "expr") for h in headers), ("COMMAND", "command"),
    )
    times = draw(
        st.lists(st.floats(0, 1e6, allow_nan=False), unique=True, max_size=4)
    )
    frames = []
    for time in times:
        n = draw(st.integers(1, 4))

        def column(elements):
            return draw(st.lists(elements, min_size=n, max_size=n))

        def floats(high):
            return np.array(column(st.floats(0, high, allow_nan=False)))

        pids = np.array(column(st.integers(1, 1 << 22)), dtype=np.int64)
        frames.append(
            SnapshotFrame(
                time=time,
                interval=draw(st.floats(0, 60, allow_nan=False)),
                pids=pids,
                tids=pids.copy(),
                uids=np.array(column(st.integers(0, 65535)), dtype=np.int64),
                users=tuple(column(names)),
                comms=tuple(column(names)),
                cpu_pct=floats(100),
                cpu_time=floats(1e6),
                processors=np.array(column(st.integers(0, 63)), dtype=np.int64),
                deltas={e: floats(1e15) for e in events},
                metrics={h: np.array(column(metric)) for h in headers},
                columns=columns,
            )
        )
    return frames


def assert_same_frame(a: SnapshotFrame, b: SnapshotFrame) -> None:
    """Equal cell for cell (NaN matching NaN), whatever the dict order."""
    assert (a.time, a.interval, a.columns) == (b.time, b.interval, b.columns)
    for name in ("pids", "tids", "uids", "users", "comms", "cpu_pct",
                 "cpu_time", "processors"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    for group in ("deltas", "metrics", "labels"):
        mine, theirs = getattr(a, group), getattr(b, group)
        assert sorted(mine) == sorted(theirs)
        for key, values in mine.items():
            np.testing.assert_array_equal(values, theirs[key])
