"""Statistics helpers for the analysis layer and the benchmarks."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def ewma(samples: Sequence[float], alpha: float) -> np.ndarray:
    """Exponentially weighted moving average of ``samples``.

    Args:
        samples: input series.
        alpha: smoothing weight in (0, 1]; 1 reproduces the input.

    Returns:
        Array of the same length where ``out[i] = alpha*x[i] + (1-alpha)*out[i-1]``.
    """
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    x = np.asarray(samples, dtype=float)
    out = np.empty_like(x)
    acc = 0.0
    for i, v in enumerate(x):
        acc = v if i == 0 else alpha * v + (1 - alpha) * acc
        out[i] = acc
    return out


def median_of_runs(runs: Sequence[float]) -> float:
    """Median of repeated measurements, as SPEC reporting rules require (§2.5)."""
    if not runs:
        raise ValueError("median_of_runs() requires at least one run")
    return float(np.median(np.asarray(runs, dtype=float)))
