"""Region-scoped spans recorded from outside the program.

The benchmark never edits the code it measures. It replaces a public
callable (a method on a class, or a function in the module that looks
it up) with a wrapper that times the call, and puts the original back
when the tracer closes. This follows LIKWID's marker API — named regions
around calls — and "collect at full rate, analyse later": spans are
folded into in-memory accumulators as they close and summarised only
when the run ends.

A span's *self* time is its duration minus the part covered by spans
opened inside it, so the self times of all spans never add up to more
than the wall time they ran in.
"""

from __future__ import annotations

import time
from collections import defaultdict
from collections.abc import Callable
from contextlib import contextmanager
from typing import Any


class SpanStat:
    """Accumulated calls, inclusive time and self time of one span name."""

    __slots__ = ("calls", "total", "self")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


class Tracer:
    """Wraps callables in spans and accumulates their timings.

    Spans nest through one stack, so a wrapped call that does not await
    (every wrapped call here is synchronous) always closes before its
    parent does. ``samples`` names the spans whose individual durations
    are kept, for percentiles; every other span keeps totals only.
    """

    def __init__(self, samples: tuple[str, ...] = ()) -> None:
        self._stack: list[list] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._sampled = frozenset(samples)
        self.reset()

    def reset(self) -> None:
        """Drop everything recorded so far (wrappers stay installed)."""
        self.stats: dict[str, SpanStat] = defaultdict(SpanStat)
        #: (root span name, span name) -> stats, for spans that also run
        #: outside the region a metric is about.
        self.by_root: dict[tuple[str, str], SpanStat] = defaultdict(SpanStat)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)
        #: Free-form per-call records kept by ``after`` hooks.
        self.notes: dict[str, list] = defaultdict(list)
        #: Wall time covered by spans opened with an empty stack.
        self.root_time = 0.0

    # -- recording ----------------------------------------------------------
    def _open(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> float:
        duration = time.perf_counter() - frame[1]
        self._stack.pop()
        name = frame[0]
        own = duration - frame[2]
        stat = self.stats[name]
        stat.calls += 1
        stat.total += duration
        stat.self += own
        if self._stack:
            self._stack[-1][2] += duration
            root = self.by_root[(self._stack[0][0], name)]
            root.calls += 1
            root.total += duration
            root.self += own
        else:
            self.root_time += duration
        if name in self._sampled:
            self.samples[name].append(duration)
        return duration

    @contextmanager
    def span(self, name: str):
        """A span around a region of the benchmark's own code."""
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    # -- wrapping -----------------------------------------------------------
    def install(
        self,
        owner: Any,
        attr: str,
        name: str,
        after: Callable[["Tracer", Any], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a spanned wrapper.

        ``owner`` is the class that defines the method or the module
        whose global the callers look up. ``after(tracer, result)`` runs
        inside the span once the call returned, to count what the call
        did (bytes encoded, tasks attached).
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer._open(name)
            try:
                result = original(*args, **kwargs)
                if after is not None:
                    after(tracer, result)
                return result
            finally:
                tracer._close(frame)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every original callable back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()

    # -- summaries ----------------------------------------------------------
    def total(self, name: str) -> float:
        return self.stats[name].total if name in self.stats else 0.0

    def calls(self, name: str) -> int:
        return self.stats[name].calls if name in self.stats else 0

    def self_time(self, *names: str) -> float:
        return sum(self.stats[n].self for n in names if n in self.stats)

    def under(self, root: str, name: str) -> float:
        """Inclusive time of ``name`` spans opened beneath a ``root`` span."""
        key = (root, name)
        return self.by_root[key].total if key in self.by_root else 0.0

    def self_total(self) -> float:
        """Sum of every span's self time."""
        return sum(stat.self for stat in self.stats.values())
