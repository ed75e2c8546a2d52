"""Metric time series: the unit every figure is made of."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError
from repro.util.stats import ewma


@dataclass(frozen=True)
class MetricSeries:
    """One metric sampled over time (or over instructions retired).

    Attributes:
        x: sample positions (seconds, or cumulative instructions for
            Fig. 8-style curves).
        y: metric values.
        label: what this series is ("429.mcf IPC on nehalem").
    """

    x: np.ndarray
    y: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ReproError(
                f"series {self.label!r}: x has {len(self.x)} points, "
                f"y has {len(self.y)}"
            )

    def __len__(self) -> int:
        return len(self.x)

    @classmethod
    def of(cls, x, y, label: str = "") -> "MetricSeries":
        """Build from any array-likes."""
        return cls(np.asarray(x, dtype=float), np.asarray(y, dtype=float), label)

    def mean(self) -> float:
        """Arithmetic mean of the values (NaN-aware)."""
        return float(np.nanmean(self.y)) if len(self) else float("nan")

    def smoothed(self, alpha: float = 0.3) -> "MetricSeries":
        """EWMA-smoothed copy."""
        return MetricSeries(self.x, ewma(self.y, alpha), self.label)

    def window(self, lo: float, hi: float) -> "MetricSeries":
        """Sub-series with ``lo <= x < hi``."""
        mask = (self.x >= lo) & (self.x < hi)
        return MetricSeries(self.x[mask], self.y[mask], self.label)

    def resampled(self, xs: np.ndarray) -> "MetricSeries":
        """Linear interpolation onto new sample positions.

        Used to compare series measured on different machines at common
        instruction counts (Fig. 8).
        """
        xs = np.asarray(xs, dtype=float)
        if len(self) < 2:
            raise ReproError(f"cannot resample series {self.label!r} of length {len(self)}")
        return MetricSeries(xs, np.interp(xs, self.x, self.y), self.label)

    def ascii_plot(self, width: int = 72, height: int = 12) -> str:
        """Terminal rendering of the curve (the benches print these).

        A coarse scatter on a character grid with a y-axis scale — the
        spirit of the paper's gnuplot figures at 80 columns.
        """
        if len(self) == 0:
            return "(empty series)"
        finite = np.isfinite(self.y)
        if not finite.any():
            return "(all-NaN series)"
        x, y = self.x[finite], self.y[finite]
        ymin, ymax = float(np.min(y)), float(np.max(y))
        if ymax - ymin < 1e-12:
            ymax = ymin + 1.0
        xmin, xmax = float(np.min(x)), float(np.max(x))
        if xmax - xmin < 1e-12:
            xmax = xmin + 1.0
        grid = [[" "] * width for _ in range(height)]
        for xi, yi in zip(x, y):
            col = int((xi - xmin) / (xmax - xmin) * (width - 1))
            row = int((yi - ymin) / (ymax - ymin) * (height - 1))
            grid[height - 1 - row][col] = "*"
        lines = []
        for i, row_chars in enumerate(grid):
            yval = ymax - (ymax - ymin) * i / (height - 1)
            lines.append(f"{yval:8.3f} |" + "".join(row_chars))
        lines.append(" " * 9 + "+" + "-" * width)
        lines.append(f"{'':9s} {xmin:<12.4g}{'':{max(0, width - 26)}s}{xmax:>12.4g}")
        if self.label:
            lines.insert(0, self.label)
        return "\n".join(lines)
