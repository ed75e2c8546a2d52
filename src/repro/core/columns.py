"""Column definitions: what one cell of a screen shows.

A column is either *intrinsic* (PID, USER, %CPU, TIME+, COMMAND — sourced
from /proc) or *derived* (an expression over counter deltas). Real tiptop
configures these from an XML file; here a column is a small dataclass and a
screen is a tuple of them, buildable from a plain dict
(:func:`repro.core.screen.screen_from_config`).
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.expr import Expression
from repro.errors import ConfigError
from repro.util.tabulate import Align, ColumnFormat


class ColumnKind(enum.Enum):
    """Where a column's value comes from."""

    PID = "pid"
    USER = "user"
    CPU_PCT = "cpu"
    TIME = "time"
    COMMAND = "command"
    PROCESSOR = "processor"
    EXPR = "expr"
    HEALTH = "health"


#: Kinds whose cells show their values as text, as they are.
_TEXT_KINDS = frozenset({ColumnKind.USER, ColumnKind.COMMAND, ColumnKind.HEALTH})
#: Kinds whose cells show integers.
_INT_KINDS = frozenset({ColumnKind.PID, ColumnKind.PROCESSOR})


@dataclass(frozen=True)
class Column:
    """One screen column.

    Attributes:
        header: printed title.
        kind: intrinsic source or EXPR.
        expression: formula for EXPR columns (None otherwise).
        width: field width.
        decimals: decimal places for numeric rendering.
        align: LEFT or RIGHT.
        truncate: hard-cap at width (COMMAND).
    """

    header: str
    kind: ColumnKind
    expression: Expression | None = None
    width: int = 8
    decimals: int = 2
    align: Align = Align.RIGHT
    truncate: bool = False

    def __post_init__(self) -> None:
        # EXPR columns, and only they, carry an expression: consumers
        # find the derived columns by ``expression is not None``.
        if (self.kind is ColumnKind.EXPR) != (self.expression is not None):
            raise ConfigError(
                f"column {self.header!r}: an expression goes with kind "
                f"EXPR and only with it (kind {self.kind.value})"
            )
        if self.width <= 0:
            raise ConfigError(f"column {self.header!r} needs a positive width")
        if self.decimals < 0:
            raise ConfigError(
                f"column {self.header!r} needs a non-negative decimals count"
            )

    def to_format(self) -> ColumnFormat:
        """Layout spec for the table layer."""
        return ColumnFormat(
            header=self.header,
            width=self.width,
            align=self.align,
            truncate=self.truncate,
        )

    def cells(self, values: Sequence) -> list[str]:
        """This column's cells: each value converted and padded by one
        ``%`` format (:meth:`ColumnFormat.spec`).

        USER, COMMAND and HEALTH show text as it is; PID and P show ints;
        every other kind shows ``decimals`` fixed decimals, with a padded
        ``"-"`` for NaN, and formats each distinct float once.
        """
        layout = self.to_format()
        if self.kind in _TEXT_KINDS:
            return layout.cells(values)
        if self.kind in _INT_KINDS:
            if self.truncate:
                return layout.cells(map("%d".__mod__, values))
            spec = layout.spec("d")
            return [spec % v for v in values]
        number = f".{self.decimals}f"
        if self.truncate:
            # Only a text conversion caps, so a capped number is first
            # converted alone.
            return layout.cells(_floats(values, f"%{number}", "-"))
        return _floats(values, layout.spec(number), layout.spec() % "-")

    def variables(self) -> frozenset[str]:
        """Identifiers this column's expression references (empty if intrinsic)."""
        if self.expression is None:
            return frozenset()
        return self.expression.variables


def _floats(values: Sequence, spec: str, dash: str) -> list[str]:
    """Each value by the ``%`` format ``spec``, NaN as ``dash``.

    Each distinct bit pattern is formatted once: on a busy node most
    tasks did not run in an interval, so a column repeats a few values
    (0.0, NaN) down most of its rows.
    """
    bits = np.asarray(values, dtype=np.float64).view(np.int64)
    distinct, at = np.unique(bits, return_inverse=True)
    nan = spec % math.nan  # no other float formats as "nan"
    cells = [spec % v for v in distinct.view(np.float64).tolist()]
    cells = np.array([dash if c == nan else c for c in cells], dtype=object)
    return cells[at].tolist()


def expr_column(
    header: str,
    text: str,
    *,
    width: int = 8,
    decimals: int = 2,
) -> Column:
    """Convenience constructor for derived columns."""
    return Column(
        header=header,
        kind=ColumnKind.EXPR,
        expression=Expression(text),
        width=width,
        decimals=decimals,
    )


#: Intrinsic columns shared by most screens.
PID_COLUMN = Column("PID", ColumnKind.PID, width=6)
#: Per-task lifecycle state (ok / retry / reattached), shown under chaos.
HEALTH_COLUMN = Column(
    "HEALTH", ColumnKind.HEALTH, width=10, align=Align.LEFT
)
USER_COLUMN = Column("USER", ColumnKind.USER, width=8, align=Align.LEFT)
CPU_COLUMN = Column("%CPU", ColumnKind.CPU_PCT, width=5, decimals=1)
TIME_COLUMN = Column("TIME+", ColumnKind.TIME, width=9, decimals=0)
COMMAND_COLUMN = Column(
    "COMMAND", ColumnKind.COMMAND, width=15, align=Align.LEFT, truncate=True
)
PROCESSOR_COLUMN = Column("P", ColumnKind.PROCESSOR, width=3)
