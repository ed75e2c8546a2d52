"""Table rendering."""

import pytest

from repro.util.tabulate import Align, ColumnFormat, render_table


class TestColumnFormat:
    def test_right_align_pads_left(self):
        col = ColumnFormat("N", width=5)
        assert col.cells(["42"]) == ["   42"]

    def test_left_align_pads_right(self):
        col = ColumnFormat("NAME", width=6, align=Align.LEFT)
        assert col.cells(["ab"]) == ["ab    "]

    def test_truncate(self):
        col = ColumnFormat("CMD", width=4, align=Align.LEFT, truncate=True)
        assert col.cells(["verylongcommand"]) == ["very"]

    def test_no_truncate_grows(self):
        col = ColumnFormat("N", width=2)
        assert col.cells(["12345"]) == ["12345"]

    def test_header_same_geometry(self):
        col = ColumnFormat("COMMAND", width=4, align=Align.LEFT, truncate=True)
        assert render_table([col], [col.cells(["verylong"])]).splitlines() == [
            "COMM",
            "very",
        ]


class TestRenderTable:
    def test_header_and_rows(self):
        cols = [ColumnFormat("A", 3), ColumnFormat("B", 3, align=Align.LEFT)]
        text = render_table(
            cols, [cols[0].cells(["1", "2"]), cols[1].cells(["x", "y"])]
        )
        lines = text.splitlines()
        assert lines[0] == "  A B"
        assert lines[1] == "  1 x"
        assert lines[2] == "  2 y"

    def test_no_header(self):
        cols = [ColumnFormat("A", 3)]
        assert render_table(cols, [cols[0].cells(["7"])], header=False) == "  7"

    def test_arity_mismatch_raises(self):
        cols = [ColumnFormat("A", 3)]
        with pytest.raises(ValueError):
            render_table(cols, [["1"], ["2"]])

    def test_ragged_columns_raise(self):
        cols = [ColumnFormat("A", 3), ColumnFormat("B", 3)]
        with pytest.raises(ValueError):
            render_table(cols, [["1", "2"], ["x"]])

    def test_trailing_whitespace_stripped(self):
        cols = [ColumnFormat("A", 3, align=Align.LEFT)]
        assert render_table(cols, [cols[0].cells(["x"])]).splitlines()[1] == "x"

    def test_header_only_without_rows(self):
        cols = [ColumnFormat("A", 3), ColumnFormat("B", 3, align=Align.LEFT)]
        assert render_table(cols, [[], []]) == "  A B"
