"""Co-run interference quantification (§3.4, Figs. 10-11).

The paper's observation: CPU usage stays >99.3 % while IPC quietly drops
when neighbours arrive. These helpers turn two recorded IPC series (solo
window, co-run window) into the slowdown numbers the paper quotes — without
any contention generator, "observing the behaviour in its real context".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.timeseries import MetricSeries
from repro.errors import ReproError


@dataclass(frozen=True)
class SlowdownReport:
    """Solo-vs-corun comparison for one victim task."""

    solo_mean: float
    corun_mean: float

    @property
    def slowdown(self) -> float:
        """Fractional IPC loss (0.2 == the paper's '20 % slowdown')."""
        if self.solo_mean <= 0:
            return 0.0
        return 1.0 - self.corun_mean / self.solo_mean

    @property
    def factor(self) -> float:
        """Solo/corun ratio (2.0 == the paper's '2x slowdown')."""
        if self.corun_mean <= 0:
            return float("inf")
        return self.solo_mean / self.corun_mean


def corun_slowdown(
    series: MetricSeries, solo: tuple[float, float], corun: tuple[float, float]
) -> SlowdownReport:
    """Compare a victim's metric between a solo window and a co-run window.

    Args:
        series: the victim's IPC (or other metric) over time.
        solo: (lo, hi) x-range of the baseline window.
        corun: (lo, hi) x-range of the contended window.

    Raises:
        ReproError: when either window contains no samples.
    """
    s = series.window(*solo)
    c = series.window(*corun)
    if len(s) == 0 or len(c) == 0:
        raise ReproError(
            f"empty comparison window (solo has {len(s)}, corun has {len(c)})"
        )
    return SlowdownReport(solo_mean=s.mean(), corun_mean=c.mean())


def overlap_window(
    arrivals: list[float], departures: list[float]
) -> tuple[float, float] | None:
    """The time window during which *all* the given neighbours were present.

    Args:
        arrivals: neighbour start times.
        departures: neighbour end times (same length).

    Returns:
        (latest arrival, earliest departure), or None if they never all
        overlap.
    """
    if len(arrivals) != len(departures):
        raise ReproError("arrivals and departures must pair up")
    if not arrivals:
        return None
    lo = max(arrivals)
    hi = min(departures)
    return (lo, hi) if hi > lo else None


def sensitivity_matrix(
    victims: dict[str, MetricSeries],
    solo: tuple[float, float],
    corun: tuple[float, float],
) -> dict[str, float]:
    """Slowdown per victim, for reporting tables.

    NaN-mean windows yield 0.0 slowdown rather than raising, so one idle
    victim doesn't break a whole report.
    """
    out = {}
    for name, series in victims.items():
        try:
            out[name] = corun_slowdown(series, solo, corun).slowdown
        except ReproError:
            out[name] = 0.0
    if any(np.isnan(v) for v in out.values()):
        out = {k: (0.0 if np.isnan(v) else v) for k, v in out.items()}
    return out
