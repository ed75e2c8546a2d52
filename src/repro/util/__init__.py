"""Shared utilities: units, tables, backoff, statistics."""

from repro.util.units import format_seconds, parse_size
from repro.util.backoff import BackoffPolicy
from repro.util.stats import ewma
from repro.util.tabulate import Align, ColumnFormat, render_table

__all__ = [
    "Align",
    "BackoffPolicy",
    "ColumnFormat",
    "ewma",
    "format_seconds",
    "parse_size",
    "render_table",
]
