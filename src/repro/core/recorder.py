"""Time-series capture of sampled metrics.

The paper's figures are all time series of per-interval metrics (IPC every
5 s, misses per 100 instructions every 10 s...). :class:`Recorder`
accumulates :class:`~repro.core.frame.SnapshotFrame` blocks — one per
snapshot — and exposes exactly the series the figures plot, computed with
numpy masks over concatenated columns rather than per-sample Python loops:
by pid, by command, against time or against cumulative instructions
(Fig. 8's x-axis).

CSV persistence round-trips losslessly through the frames: counter deltas,
NaN metric cells, non-ASCII command names, tids/uids/processors and the
screen column layout all survive ``to_csv`` -> ``from_csv`` bit-for-bit
(floats are serialised with ``repr``).
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from repro.core.frame import SnapshotFrame
from repro.core.sampler import Snapshot

_FIXED = ["time", "pid", "comm", "user", "cpu_pct"]
_EXTENDED = ["tid", "uid", "cpu_time", "processor", "interval"]
_METRIC_PREFIX = "value:"
_LABEL_PREFIX = "label:"
_COLSPEC = "screen_columns"


class Recorder:
    """Accumulates snapshot frames; serves series from columnar storage."""

    def __init__(self) -> None:
        self._frames: list[SnapshotFrame] = []
        self._index: _Index | None = None

    # -- ingestion ----------------------------------------------------------
    def record(self, snapshot: Snapshot) -> None:
        """Fold one snapshot's frame in."""
        self.record_frame(snapshot.frame)

    def record_frame(self, frame: SnapshotFrame) -> None:
        """Fold one columnar frame in (empty frames are dropped)."""
        if len(frame) == 0:
            return
        self._frames.append(frame)
        self._index = None

    @property
    def frames(self) -> list[SnapshotFrame]:
        """The recorded frames, in record order."""
        return list(self._frames)

    def pids(self) -> list[int]:
        """All pids seen, sorted."""
        return sorted(set(self._get_index().pids.tolist()))

    # -- columnar queries ---------------------------------------------------
    def _get_index(self) -> "_Index":
        if self._index is None:
            self._index = _Index(self._frames)
        return self._index

    def series(
        self, pid: int, header: str, *, drop_nan: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """(times, values) of one derived column for one pid."""
        idx = self._get_index()
        values, present = idx.metric(header)
        mask = (idx.pids == pid) & present
        if drop_nan:
            mask = mask & ~np.isnan(values)
        return idx.times[mask], values[mask]

    def series_vs_instructions(
        self, pid: int, header: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """(cumulative instructions, values) — Fig. 8's x-axis.

        Requires the screen to have counted ``instructions``.
        """
        idx = self._get_index()
        mask = idx.pids == pid
        instr = idx.events.get("instructions")
        if instr is None:
            totals = np.zeros(int(mask.sum()))
        else:
            totals = np.cumsum(instr[mask])
        values, present = idx.metric(header)
        picked = values[mask]
        ok = present[mask] & ~np.isnan(picked)
        return totals[ok], picked[ok]

    def mean(self, pid: int, header: str) -> float:
        """Time-average of a derived column for one pid (NaN if empty)."""
        _, values = self.series(pid, header)
        return float(np.mean(values)) if len(values) else math.nan

    def total_delta(self, pid: int, event_name: str) -> float:
        """Sum of an event's deltas over the whole recording."""
        idx = self._get_index()
        column = idx.events.get(event_name)
        if column is None:
            return 0.0
        return float(column[idx.pids == pid].sum())

    # -- persistence --------------------------------------------------------
    def to_csv(self) -> str:
        """Serialise the recording as CSV (one line per task-interval).

        Columns: the five fixed columns (time, pid, comm, user,
        cpu_pct), every counter delta (union across frames, sorted), the
        extended identity columns (tid, uid, cpu_time, processor,
        interval), one ``value:<header>`` column per derived metric, one
        ``label:<header>`` column per string column, and finally the
        per-frame screen layout. Floats are written with ``repr`` so the
        round trip is lossless, including NaN cells; the csv module quotes
        commas and preserves non-ASCII command names.
        """
        events = sorted({name for f in self._frames for name in f.deltas})
        metric_headers = sorted({h for f in self._frames for h in f.metrics})
        label_headers = sorted({h for f in self._frames for h in f.labels})
        header = [
            *_FIXED,
            *events,
            *_EXTENDED,
            *(_METRIC_PREFIX + h for h in metric_headers),
            *(_LABEL_PREFIX + h for h in label_headers),
            _COLSPEC,
        ]
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        for f in self._frames:
            colspec = ";".join(f"{kind}:{name}" for name, kind in f.columns)
            for i in range(len(f)):
                row = [
                    repr(f.time),
                    str(int(f.pids[i])),
                    f.comms[i],
                    f.users[i],
                    repr(float(f.cpu_pct[i])),
                ]
                for e in events:
                    col = f.deltas.get(e)
                    row.append(repr(float(col[i])) if col is not None else "0.0")
                row.extend(
                    [
                        str(int(f.tids[i])),
                        str(int(f.uids[i])),
                        repr(float(f.cpu_time[i])),
                        str(int(f.processors[i])),
                        repr(f.interval),
                    ]
                )
                for h in metric_headers:
                    col = f.metrics.get(h)
                    row.append(repr(float(col[i])) if col is not None else "")
                for h in label_headers:
                    col = f.labels.get(h)
                    row.append(col[i] if col is not None else "")
                row.append(colspec)
                writer.writerow(row)
        return buffer.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "Recorder":
        """Rebuild a recording from :meth:`to_csv` output.

        Raises:
            ValueError: malformed header or rows.
        """
        rows = [r for r in csv.reader(io.StringIO(text)) if r]
        if not rows:
            return cls()
        header = rows[0]
        if header[: len(_FIXED)] != _FIXED or header[-1] != _COLSPEC:
            raise ValueError(f"unexpected CSV header {header[:5]}")
        for row in rows[1:]:
            if len(row) != len(header):
                raise ValueError(f"row arity mismatch: {','.join(row)!r}")
        recorder = cls()
        recorder._frames.extend(_frames_from_extended_csv(header, rows[1:]))
        return recorder


class _Index:
    """Concatenated columns over a frame list (built lazily, cached)."""

    def __init__(self, frames: list[SnapshotFrame]) -> None:
        self._frames = frames
        n = sum(len(f) for f in frames)
        if frames:
            self.times = np.concatenate(
                [np.full(len(f), f.time) for f in frames]
            )
            self.pids = np.concatenate([f.pids for f in frames])
        else:
            self.times = np.empty(0)
            self.pids = np.empty(0, dtype=np.int64)
        event_names: list[str] = []
        for f in frames:
            for name in f.deltas:
                if name not in event_names:
                    event_names.append(name)
        self.events = {
            name: np.concatenate(
                [
                    f.deltas.get(name, np.zeros(len(f)))
                    for f in frames
                ]
            )
            if frames
            else np.empty(0)
            for name in event_names
        }
        self._n = n
        self._metric_cache: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def metric(self, header: str) -> tuple[np.ndarray, np.ndarray]:
        """(values, present) for one numeric column across all frames.

        ``present`` is False where a frame does not carry the column; NaN
        cells stay NaN.
        """
        cached = self._metric_cache.get(header)
        if cached is not None:
            return cached
        values_parts: list[np.ndarray] = []
        present_parts: list[np.ndarray] = []
        for f in self._frames:
            column = f.numeric_column(header)
            if column is None:
                values_parts.append(np.full(len(f), math.nan))
                present_parts.append(np.zeros(len(f), dtype=bool))
            else:
                values_parts.append(column)
                present_parts.append(np.ones(len(f), dtype=bool))
        if values_parts:
            result = (
                np.concatenate(values_parts),
                np.concatenate(present_parts),
            )
        else:
            result = (np.empty(0), np.empty(0, dtype=bool))
        self._metric_cache[header] = result
        return result


# -- CSV decoding --------------------------------------------------------------
def _runs(rows: list[list[str]], key) -> list[list[list[str]]]:
    """Split rows into runs of consecutive rows with equal ``key``: one
    run per recorded frame."""
    runs: list[list[list[str]]] = []
    for row in rows:
        if not runs or key(row) != key(runs[-1][0]):
            runs.append([])
        runs[-1].append(row)
    return runs


def _frames_from_extended_csv(
    header: list[str], rows: list[list[str]]
) -> list[SnapshotFrame]:
    n_fixed = len(_FIXED)
    split = None
    for i in range(n_fixed, len(header)):
        if header[i : i + len(_EXTENDED)] == _EXTENDED:
            split = i
            break
    if split is None:
        raise ValueError(f"CSV header lacks the extended columns {_EXTENDED}")
    events = header[n_fixed:split]
    tail = header[split + len(_EXTENDED) : -1]
    metric_headers = [
        h[len(_METRIC_PREFIX):] for h in tail if h.startswith(_METRIC_PREFIX)
    ]
    label_headers = [
        h[len(_LABEL_PREFIX):] for h in tail if h.startswith(_LABEL_PREFIX)
    ]

    return [
        _frame_from_csv_group(group, split, events, metric_headers, label_headers)
        # One frame per run of equal (time, interval, colspec) cells.
        for group in _runs(rows, lambda row: (row[0], row[split + 4], row[-1]))
    ]


def _frame_from_csv_group(
    group: list[list[str]],
    split: int,
    events: list[str],
    metric_headers: list[str],
    label_headers: list[str],
) -> SnapshotFrame:
    n = len(group)
    colspec = group[0][-1]
    columns: tuple[tuple[str, str], ...] = ()
    if colspec:
        columns = tuple(
            (name, kind)
            for kind, name in (
                entry.split(":", 1) for entry in colspec.split(";")
            )
        )
    kinds = dict(columns)
    n_fixed = len(_FIXED)
    metric_base = split + len(_EXTENDED)
    metrics: dict[str, np.ndarray] = {}
    for j, h in enumerate(metric_headers):
        if kinds.get(h) != "expr":
            continue
        metrics[h] = np.fromiter(
            (float(row[metric_base + j]) for row in group), dtype=float, count=n
        )
    labels: dict[str, tuple[str, ...]] = {}
    label_base = metric_base + len(metric_headers)
    for j, h in enumerate(label_headers):
        # "health" columns (chaos mode's HEALTH) are string-valued and
        # round-trip through label storage like any other label.
        if kinds.get(h) not in ("label", "health"):
            continue
        labels[h] = tuple(row[label_base + j] for row in group)
    return SnapshotFrame(
        time=float(group[0][0]),
        interval=float(group[0][split + 4]),
        pids=np.fromiter((int(r[1]) for r in group), dtype=np.int64, count=n),
        tids=np.fromiter(
            (int(r[split]) for r in group), dtype=np.int64, count=n
        ),
        uids=np.fromiter(
            (int(r[split + 1]) for r in group), dtype=np.int64, count=n
        ),
        users=tuple(r[3] for r in group),
        comms=tuple(r[2] for r in group),
        cpu_pct=np.fromiter((float(r[4]) for r in group), dtype=float, count=n),
        cpu_time=np.fromiter(
            (float(r[split + 2]) for r in group), dtype=float, count=n
        ),
        processors=np.fromiter(
            (int(r[split + 3]) for r in group), dtype=np.int64, count=n
        ),
        deltas={
            e: np.fromiter(
                (float(r[n_fixed + j]) for r in group), dtype=float, count=n
            )
            for j, e in enumerate(events)
        },
        metrics=metrics,
        labels=labels,
        columns=columns,
    )
