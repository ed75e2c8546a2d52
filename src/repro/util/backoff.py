"""One retry ladder for every recovery path.

Two recovery paths sleep through the same bounded exponential backoff:
the shard supervisor's restart ladder and the serve client's reconnect
loop. Divergent copies drift — a cap forgotten here, a doubling base
there — and drift in retry policy is exactly the kind of silent skew a
measurement layer must not have. :class:`BackoffPolicy` is the single
shared shape: ``delay(attempt) = min(base * factor**(attempt-1), cap)``,
pure and frozen so event logs that record configured backoffs stay
deterministic and replayable.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = ["BackoffPolicy"]


@dataclass(frozen=True)
class BackoffPolicy:
    """Bounded exponential backoff, shared by every retry ladder.

    Attributes:
        base: the first attempt's delay in seconds (0 disables sleeping
            entirely — the deterministic-test configuration).
        factor: multiplier applied per further attempt (>= 1).
        cap: upper bound on any single delay.
    """

    base: float = 0.05
    factor: float = 2.0
    cap: float = 1.0

    def __post_init__(self) -> None:
        if self.base < 0:
            raise ConfigError(f"backoff base must be >= 0, got {self.base}")
        if self.factor < 1.0:
            raise ConfigError(
                f"backoff factor must be >= 1, got {self.factor}"
            )
        if self.cap < 0:
            raise ConfigError(f"backoff cap must be >= 0, got {self.cap}")

    def delay(self, attempt: int) -> float:
        """Seconds to wait before retry ``attempt`` (1-based).

        A pure function of the policy and the attempt number — the
        supervisor records it in its deterministic event log.
        """
        if attempt < 1:
            raise ConfigError(f"attempt must be >= 1, got {attempt}")
        return min(self.base * self.factor ** (attempt - 1), self.cap)

    def delays(self, attempts: int) -> Iterator[float]:
        """The first ``attempts`` delays, in order."""
        return (self.delay(a) for a in range(1, attempts + 1))

    def sleep(
        self, attempt: int, *, sleeper: Callable[[float], None] = time.sleep
    ) -> float:
        """Sleep out retry ``attempt``'s delay; returns the delay used.

        A zero delay never calls ``sleeper`` at all, so ``base=0``
        policies stay wall-clock-free (the property the byte-identical
        chaos sweeps rely on).
        """
        pause = self.delay(attempt)
        if pause > 0:
            sleeper(pause)
        return pause
