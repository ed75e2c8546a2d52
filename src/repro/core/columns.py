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
from dataclasses import dataclass

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


def _fmt_fixed(decimals: int):
    def fmt(value: object) -> str:
        if isinstance(value, float) and math.isnan(value):
            return "-"
        if isinstance(value, (int, float)):
            return f"{value:.{decimals}f}"
        return str(value)

    return fmt


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
        """Rendering spec for the table layer."""
        if self.kind in (ColumnKind.USER, ColumnKind.COMMAND, ColumnKind.HEALTH):
            render = str
        elif self.kind is ColumnKind.PID or self.kind is ColumnKind.PROCESSOR:
            render = lambda v: str(int(v))  # noqa: E731
        else:
            render = _fmt_fixed(self.decimals)
        return ColumnFormat(
            header=self.header,
            width=self.width,
            align=self.align,
            truncate=self.truncate,
            render=render,
        )

    def variables(self) -> frozenset[str]:
        """Identifiers this column's expression references (empty if intrinsic)."""
        if self.expression is None:
            return frozenset()
        return self.expression.variables


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
