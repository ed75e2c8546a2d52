"""Columnar snapshot container: the pipeline's one per-refresh data shape.

The paper's promise is monitoring at negligible overhead (§2.5), so every
pipeline stage — sampling, recording, rendering, triggers, serving,
analysis — exchanges one numpy-backed :class:`SnapshotFrame` per refresh
instead of per-task objects: identity columns (pids, tids, uids, users,
commands), /proc-derived columns (%CPU, cumulative CPU time, last
processor), one float64 array per counter event, and one float64 array per
derived screen column. Downstream stages slice arrays instead of looping.

The ``columns`` field records the screen layout as ``(header, kind)``
pairs (kind is a :class:`~repro.core.columns.ColumnKind` value string), so
a frame is self-describing: renderers and the CSV codec can reconstruct
any cell without consulting the screen that produced it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import ReproError

#: header -> ColumnKind.value for the intrinsic screen columns.
INTRINSIC_KINDS = {
    "PID": "pid",
    "USER": "user",
    "%CPU": "cpu",
    "TIME+": "time",
    "COMMAND": "command",
    "P": "processor",
}


@dataclass(frozen=True)
class SnapshotFrame:
    """One refresh as a column block (all arrays share one row axis).

    Attributes:
        time: snapshot timestamp (seconds since boot).
        interval: seconds since the previous snapshot (0.0 on the first).
        pids: process ids, int64.
        tids: monitored task ids (== pids unless per-thread mode), int64.
        uids: owner uids, int64 (-1 when unknown).
        users: owner login names.
        comms: command names.
        cpu_pct: %CPU over the interval, float64.
        cpu_time: cumulative CPU seconds, float64.
        processors: CPU each task last ran on, int64 (-1 when unknown).
        deltas: scaled counter deltas, one float64 array per event name.
        metrics: derived column values, one float64 array per header.
        labels: non-intrinsic string columns (rare; kept for losslessness).
        columns: screen layout as (header, kind-value) pairs.
    """

    time: float
    interval: float
    pids: np.ndarray
    tids: np.ndarray
    uids: np.ndarray
    users: tuple[str, ...]
    comms: tuple[str, ...]
    cpu_pct: np.ndarray
    cpu_time: np.ndarray
    processors: np.ndarray
    deltas: dict[str, np.ndarray]
    metrics: dict[str, np.ndarray]
    labels: dict[str, tuple[str, ...]] = field(default_factory=dict)
    columns: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        n = len(self.pids)
        for name in ("tids", "uids", "cpu_pct", "cpu_time", "processors",
                     "users", "comms"):
            if len(getattr(self, name)) != n:
                raise ReproError(
                    f"frame column {name!r} has {len(getattr(self, name))} "
                    f"entries for {n} tasks"
                )
        for group_name in ("deltas", "metrics", "labels"):
            for key, col in getattr(self, group_name).items():
                if len(col) != n:
                    raise ReproError(
                        f"frame {group_name} column {key!r} has {len(col)} "
                        f"entries for {n} tasks"
                    )

    def __len__(self) -> int:
        return len(self.pids)

    # -- constructors -------------------------------------------------------
    @classmethod
    def empty(cls, time: float = 0.0, interval: float = 0.0) -> "SnapshotFrame":
        """A zero-task frame."""
        return cls(
            time=time,
            interval=interval,
            pids=np.empty(0, dtype=np.int64),
            tids=np.empty(0, dtype=np.int64),
            uids=np.empty(0, dtype=np.int64),
            users=(),
            comms=(),
            cpu_pct=np.empty(0),
            cpu_time=np.empty(0),
            processors=np.empty(0, dtype=np.int64),
            deltas={},
            metrics={},
        )

    # -- reshaping ----------------------------------------------------------
    def take(self, order: "list[int] | np.ndarray") -> "SnapshotFrame":
        """Frame with rows permuted/selected by integer index."""
        idx = np.asarray(order, dtype=np.intp)
        picks = idx.tolist()
        return replace(
            self,
            pids=self.pids[idx],
            tids=self.tids[idx],
            uids=self.uids[idx],
            users=tuple(map(self.users.__getitem__, picks)),
            comms=tuple(map(self.comms.__getitem__, picks)),
            cpu_pct=self.cpu_pct[idx],
            cpu_time=self.cpu_time[idx],
            processors=self.processors[idx],
            deltas={k: v[idx] for k, v in self.deltas.items()},
            metrics={k: v[idx] for k, v in self.metrics.items()},
            labels={
                k: tuple(map(v.__getitem__, picks))
                for k, v in self.labels.items()
            },
        )

    def select(self, mask: np.ndarray) -> "SnapshotFrame":
        """Frame with only the rows where ``mask`` is true."""
        return self.take(np.flatnonzero(mask))

    # -- codec hooks --------------------------------------------------------
    def wire_columns(self):
        """Canonical column enumeration for binary codecs.

        Yields ``(group, name, values)`` triples in the fixed wire order:
        the six identity/``/proc`` arrays first (group ``"fixed"``), the
        two intrinsic string tuples (group ``"strings"``), then the
        ``deltas``, ``metrics`` and ``labels`` dictionaries in their own
        insertion order. :mod:`repro.serve.protocol` serialises exactly
        this sequence, so two frames that compare bitwise-equal encode to
        identical bytes and vice versa.
        """
        yield "fixed", "pids", self.pids
        yield "fixed", "tids", self.tids
        yield "fixed", "uids", self.uids
        yield "fixed", "cpu_pct", self.cpu_pct
        yield "fixed", "cpu_time", self.cpu_time
        yield "fixed", "processors", self.processors
        yield "strings", "users", self.users
        yield "strings", "comms", self.comms
        for name, col in self.deltas.items():
            yield "deltas", name, col
        for name, col in self.metrics.items():
            yield "metrics", name, col
        for name, col in self.labels.items():
            yield "labels", name, col

    def bitwise_equal(self, other: "SnapshotFrame") -> bool:
        """Exact equality: every scalar, array element (NaN included, by
        bit pattern), string and the column layout must match."""
        if not isinstance(other, SnapshotFrame):
            return False
        # Scalars compare by bit pattern too: a NaN interval (a frame
        # sampled before any time passed) must equal its own round trip.
        pack = struct.Struct("<dd").pack
        if (
            pack(self.time, self.interval) != pack(other.time, other.interval)
            or len(self) != len(other)
            or self.columns != other.columns
            or tuple(self.deltas) != tuple(other.deltas)
            or tuple(self.metrics) != tuple(other.metrics)
            or tuple(self.labels) != tuple(other.labels)
        ):
            return False
        for (group_a, name_a, col_a), (group_b, name_b, col_b) in zip(
            self.wire_columns(), other.wire_columns(), strict=True
        ):
            if group_a != group_b or name_a != name_b:
                return False
            if isinstance(col_a, np.ndarray):
                if not isinstance(col_b, np.ndarray):
                    return False
                if col_a.dtype != col_b.dtype:
                    return False
                if col_a.tobytes() != col_b.tobytes():
                    return False
            elif col_a != col_b:
                return False
        return True

    # -- access -------------------------------------------------------------
    def column_kind(self, header: str) -> str | None:
        """Kind-value of a screen column (None when absent)."""
        for name, kind in self.columns:
            if name == header:
                return kind
        return None

    def numeric_column(self, header: str) -> np.ndarray | None:
        """Float view of a numeric screen column (None for string columns
        or headers this frame does not carry)."""
        kind = self.column_kind(header)
        if kind == "pid":
            return self.pids.astype(float)
        if kind == "cpu":
            return self.cpu_pct
        if kind == "time":
            return self.cpu_time
        if kind == "processor":
            return self.processors.astype(float)
        if kind == "expr":
            return self.metrics[header]
        if kind is None and header in self.metrics:
            return self.metrics[header]
        return None
