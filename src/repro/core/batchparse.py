"""Parse batch-mode output back into structured data.

Batch mode exists for "further processing, in the spirit of UNIX filters
such as sed, awk" (§2.1). This module is the awk side: it parses a stream
of batch blocks back into typed records, so downstream tooling (and our
tests) can round-trip the text format. The parser is deliberately strict —
a format drift between renderer and parser should fail loudly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import ReproError

_STAMP_RE = re.compile(
    r"^--- t=(?P<time>[0-9.]+)s interval=(?P<interval>[0-9.]+)s ---$"
)


@dataclass(frozen=True)
class BatchRow:
    """One parsed task row.

    Numeric cells are floats; NaN cells ("-") become None; PID is int.
    """

    pid: int
    cells: dict[str, float | str | None]

    def __getitem__(self, header: str) -> float | str | None:
        return self.cells[header]


@dataclass(frozen=True)
class BatchBlock:
    """One parsed refresh block."""

    time: float
    interval: float
    headers: tuple[str, ...]
    rows: tuple[BatchRow, ...]

    def row_for(self, pid: int) -> BatchRow | None:
        """Row of one pid, or None."""
        for row in self.rows:
            if row.pid == pid:
                return row
        return None


def _parse_cell(text: str) -> float | str | None:
    if text == "-":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def parse_blocks(stream: str) -> list[BatchBlock]:
    """Parse a concatenation of batch blocks.

    The format is fixed-width columns, so splitting on whitespace is only
    safe because the renderer never emits spaces inside numeric cells and
    COMMAND (the only free-text column) comes last.

    Raises:
        ReproError: malformed stamps, missing headers, or rows whose cell
            count disagrees with the header.
    """
    blocks: list[BatchBlock] = []
    lines = stream.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i].strip()
        if not line:
            i += 1
            continue
        match = _STAMP_RE.match(line)
        if not match:
            raise ReproError(f"expected a block stamp, got {line!r}")
        time = float(match.group("time"))
        interval = float(match.group("interval"))
        i += 1
        if i >= len(lines):
            raise ReproError(f"block at t={time} has no header line")
        headers = tuple(lines[i].split())
        if not headers or headers[0] != "PID":
            raise ReproError(f"unexpected header line {lines[i]!r}")
        i += 1
        rows: list[BatchRow] = []
        while i < len(lines):
            row_line = lines[i]
            if not row_line.strip() or _STAMP_RE.match(row_line.strip()):
                break
            parts = row_line.split(None, len(headers) - 1)
            if len(parts) != len(headers):
                raise ReproError(
                    f"row has {len(parts)} cells for {len(headers)} headers: "
                    f"{row_line!r}"
                )
            cells = {h: _parse_cell(p) for h, p in zip(headers, parts)}
            pid_cell = cells.get("PID")
            if not isinstance(pid_cell, float):
                raise ReproError(f"non-numeric PID in {row_line!r}")
            rows.append(BatchRow(pid=int(pid_cell), cells=cells))
            i += 1
        blocks.append(
            BatchBlock(
                time=time,
                interval=interval,
                headers=headers,
                rows=tuple(rows),
            )
        )
    return blocks


def series_from_blocks(
    blocks: list[BatchBlock], pid: int, header: str
) -> tuple[list[float], list[float]]:
    """(times, values) of one column for one pid — the awk one-liner."""
    times: list[float] = []
    values: list[float] = []
    for block in blocks:
        row = block.row_for(pid)
        if row is None:
            continue
        value = row[header]
        if isinstance(value, float):
            times.append(block.time)
            values.append(value)
    return times, values
