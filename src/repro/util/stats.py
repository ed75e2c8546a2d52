"""Statistics helpers for the analysis layer and the benchmarks."""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np


def left_sum(values: Iterable[float]) -> float:
    """``values`` added left to right from 0: ``((0 + a) + b) + c``.

    This is what ``sum()`` returns up to Python 3.11. From 3.12 on,
    ``sum()`` over floats compensates its rounding (Neumaier), so
    ``sum([0.1, 0.2, 0.3])`` reads 0.6 there and 0.6000000000000001
    on 3.11. The simulator sums its floats through this helper, so its
    outputs, and every digest recorded from them, are the same on every
    interpreter.
    """
    total = 0
    for value in values:
        total += value
    return total


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
