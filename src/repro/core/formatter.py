"""Rendering: live frames and top-b-style batch streams.

Tiptop has no graphics (§2.1): live mode repaints a text screen (ncurses in
the original; a plain string frame here, which is also what the tests
assert against), batch mode appends snapshot blocks to a stream "convenient
for further processing" with sed/awk-style tools.

The renderers work column by column: each screen column's cells come from
one field of the snapshot's :class:`~repro.core.frame.SnapshotFrame` (one
``tolist``), each converted and padded to the column's width by one ``%``
format (:meth:`~repro.core.columns.Column.cells`), and the rows are joined
from the formatted columns. Output thus pays at most one format per
cell, with no second pass over the cells to fit them; a float column
formats each distinct value once.
"""

from __future__ import annotations

from repro.core.columns import Column, ColumnKind
from repro.core.frame import SnapshotFrame
from repro.core.sampler import Snapshot
from repro.core.screen import Screen
from repro.util.tabulate import render_table
from repro.util.units import format_seconds


def _column_texts(column: Column, frame: SnapshotFrame) -> list[str]:
    """One screen column's cells, in row order, formatted to its width."""
    kind = column.kind
    if kind is ColumnKind.PID:
        values = frame.pids.tolist()
    elif kind is ColumnKind.USER:
        values = frame.users
    elif kind is ColumnKind.CPU_PCT:
        values = frame.cpu_pct
    elif kind is ColumnKind.TIME:
        values = frame.cpu_time
    elif kind is ColumnKind.COMMAND:
        values = frame.comms
    elif kind is ColumnKind.PROCESSOR:
        values = frame.processors.tolist()
    elif column.header in frame.metrics:
        values = frame.metrics[column.header]
    else:
        # Label columns (HEALTH) carry strings, shown as they are.
        labels = frame.labels.get(column.header, ("",) * len(frame))
        return column.to_format().cells(labels)
    return column.cells(values)


def render_frame_table(screen: Screen, frame: SnapshotFrame) -> str:
    """The column table for a frame (header included)."""
    return render_table(
        [c.to_format() for c in screen.columns],
        [_column_texts(c, frame) for c in screen.columns],
    )


def render_frame(
    screen: Screen,
    snapshot: Snapshot,
    *,
    idle_threshold: float = 0.0,
) -> str:
    """One live-mode frame: summary line plus the column table."""
    frame = snapshot.frame
    busy = int((frame.cpu_pct >= 50.0).sum())
    table = render_frame_table(
        screen, frame.select(frame.cpu_pct >= idle_threshold)
    )
    header = (
        f"tiptop - up {format_seconds(frame.time)}, "
        f"{len(frame)} tasks, {busy} running, "
        f"delay {frame.interval:.1f}s"
    )
    return header + "\n" + table


def render_batch(screen: Screen, snapshot: Snapshot) -> str:
    """One batch-mode block (timestamp line, table, trailing blank line)."""
    frame = snapshot.frame
    stamp = f"--- t={frame.time:.1f}s interval={frame.interval:.1f}s ---"
    return stamp + "\n" + render_frame_table(screen, frame) + "\n"
