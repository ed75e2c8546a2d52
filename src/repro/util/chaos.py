"""The seeded draw the three fault schedules share.

Kernel faults (:class:`~repro.perf.faults.FaultPlan`), worker faults
(:class:`~repro.sim.supervisor.GridFaultPlan`) and link cuts
(:class:`~repro.sim.netchaos.NetChaosPlan`) each hash their own key
through crc32 into one uniform variate, and their rate specs split
[0, 1) into disjoint slices, so at most one fault fires per draw. Worker
and link specs also share a shape (a kind, exact epoch-like indices, an
optional target) and the walk that picks one of them.
"""

from __future__ import annotations

import zlib
from collections.abc import Callable, Iterable, Sequence
from typing import Any

from repro.errors import ConfigError

__all__ = ["capped", "check_draw", "check_rates", "check_spec", "crc",
           "pick", "unit"]


def crc(key: str) -> int:
    """crc32 of ``key``: unlike ``hash``, the same in every process."""
    return zlib.crc32(key.encode())


def unit(key: str) -> float:
    """A uniform variate in [0, 1), a pure function of ``key``."""
    return crc(key) / 2**32


def capped(intensity: float, cap: float) -> Callable[[float], float]:
    """A stock mix's rate rule: scale by ``intensity``, stop at ``cap``.
    The cap binds at high intensities, so it is part of the schedule."""
    if intensity < 0:
        raise ConfigError(f"chaos intensity must be >= 0, got {intensity}")
    return lambda rate: min(rate * intensity, cap)


def check_rates(rates: Iterable[float], what: str) -> None:
    """Rates that split one draw may sum to 1 at most."""
    total = sum(rates)
    if total > 1.0 + 1e-9:
        raise ConfigError(
            f"{what} rates sum to {total:.3f} > 1; they partition one "
            "uniform draw and cannot overlap"
        )


def check_draw(
    rate: float, indices: Iterable[int] | None, name: str, first: int
) -> tuple[int, ...] | None:
    """Check the fields a spec draws by: its ``rate``, and its exact
    ``indices`` (each >= ``first``), returned as the sorted tuple the
    spec stores."""
    if not 0.0 <= rate <= 1.0:
        raise ConfigError(f"fault rate must be in [0, 1], got {rate}")
    if indices is None:
        return None
    indices = tuple(sorted(indices))
    if indices and indices[0] < first:
        raise ConfigError(f"{name} indices must be >= {first}")
    return indices


def check_spec(
    spec: Any, layer: str, kinds: tuple[str, ...], target: int | None,
    target_name: str,
) -> tuple[int, ...] | None:
    """Check a worker or link spec; return the ``at_epochs`` it stores."""
    if spec.kind not in kinds:
        raise ConfigError(
            f"unknown {layer} fault kind {spec.kind!r} "
            f"(have: {', '.join(kinds)})"
        )
    if target is not None and target < 0:
        raise ConfigError(f"{target_name} must be >= 0")
    return check_draw(spec.rate, spec.at_epochs, "at_epochs", 0)


def pick(specs: Sequence[Any], index: int, u: float) -> Any:
    """Of ``specs`` aimed at one worker or link, the one that fires at
    ``index`` or None: an exact spec listing ``index`` wins, else ``u``
    walks the rate specs, each claiming the next ``rate`` of [0, 1)."""
    for spec in specs:
        if spec.at_epochs is not None and index in spec.at_epochs:
            return spec
    edge = 0.0
    for spec in specs:
        if spec.at_epochs is None:
            edge += spec.rate
            if u < edge:
                return spec
    return None
