"""Minimal column/table renderer for live and batch screens.

Tiptop has no graphics (§2.1) — output is fixed-width text in the spirit of
``top``. This module owns alignment, truncation and header rendering so the
formatter only decides *what* to show. Tables are laid out column by
column: each cell is converted, padded and (for text) truncated by one
``%`` format (:meth:`ColumnFormat.spec`), so a column costs one format
per cell, and rows are joined from the formatted columns.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import chain


class Align(enum.Enum):
    """Column alignment."""

    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class ColumnFormat:
    """Layout of one table column.

    Attributes:
        header: column title as printed.
        width: minimum field width; the column grows if a value is wider
            unless ``truncate`` is set.
        align: LEFT or RIGHT.
        truncate: hard-cap values at ``width`` characters (used for COMMAND,
            which is the last, left-aligned column in top-like tools).
    """

    header: str
    width: int
    align: Align = Align.RIGHT
    truncate: bool = False

    def spec(self, conversion: str = "s") -> str:
        """The ``%`` format that converts one cell and pads it to this
        column: ``%-8s``, ``%6d``, ``%5.1f``, and for a truncated column
        ``%-15.15s`` (only a ``s`` conversion truncates)."""
        flag = "-" if self.align is Align.LEFT else ""
        cap = f".{self.width}" if self.truncate and conversion == "s" else ""
        return f"%{flag}{self.width}{cap}{conversion}"

    def cells(self, values: Iterable[str]) -> list[str]:
        """Every text of this column as its cell, one format each."""
        return list(map(self.spec().__mod__, values))


def render_table(
    columns: Sequence[ColumnFormat],
    cells: Sequence[Sequence[str]],
    *,
    sep: str = " ",
    header: bool = True,
) -> str:
    """Join column-major ``cells`` (one list of cells per column, each
    already formatted to its column, as :meth:`ColumnFormat.cells` does)
    into a newline-joined string, each line stripped of trailing blanks.

    The header is formatted as a text cell of its column.

    Raises:
        ValueError: unless there is one list of cells per column and all
            lists are equally long.
    """
    if len(cells) != len(columns) or len({len(texts) for texts in cells}) > 1:
        raise ValueError(
            f"expected {len(columns)} equally long columns of cells, got "
            f"lengths {[len(texts) for texts in cells]}"
        )
    lines = map(sep.join, zip(*cells))
    if header:
        lines = chain([sep.join(c.spec() % c.header for c in columns)], lines)
    return "\n".join(map(str.rstrip, lines))
