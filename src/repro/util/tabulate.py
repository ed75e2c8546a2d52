"""Minimal column/table renderer for live and batch screens.

Tiptop has no graphics (§2.1) — output is fixed-width text in the spirit of
``top``. This module owns alignment, truncation and header rendering so the
formatter only decides *what* to show. Tables are laid out column by
column: each column's texts are fitted in one pass, and rows are joined
from the fitted columns.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass


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

    def fit(self, texts: Sequence[str]) -> list[str]:
        """Truncate (when set) and pad every text of this column."""
        width = self.width
        if self.truncate:
            texts = [text[:width] for text in texts]
        if self.align is Align.LEFT:
            return [text.ljust(width) for text in texts]
        return [text.rjust(width) for text in texts]


def render_table(
    columns: Sequence[ColumnFormat],
    cells: Sequence[Sequence[str]],
    *,
    sep: str = " ",
    header: bool = True,
) -> str:
    """Render column-major ``cells`` (one list of texts per column) into a
    newline-joined string, each line stripped of trailing blanks.

    The header goes through the same fitting as the data cells.

    Raises:
        ValueError: unless there is one list of texts per column and all
            lists are equally long.
    """
    if len(cells) != len(columns) or len({len(texts) for texts in cells}) > 1:
        raise ValueError(
            f"expected {len(columns)} equally long columns of cells, got "
            f"lengths {[len(texts) for texts in cells]}"
        )
    fitted = [
        c.fit([c.header, *texts] if header else texts)
        for c, texts in zip(columns, cells)
    ]
    return "\n".join(sep.join(line).rstrip() for line in zip(*fitted))
