"""Tool options, mirroring tiptop's command line.

The paper's tool is deliberately top-like: a refresh delay, a batch mode
(like ``top -b``), an iteration cap, per-thread vs per-process counting
(§2.2 "events can be counted per thread, or per process"), and filters for
whose processes to watch (footnote 1: non-privileged users only see their
own).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError


@dataclass(frozen=True)
class Options:
    """Sampler/application options.

    Attributes:
        delay: seconds between refreshes (tiptop's -d; default 2 like top,
            the paper typically samples every few seconds).
        batch: stream text instead of refreshing a live screen (-b).
        iterations: stop after N refreshes (None = run forever; -n).
        per_thread: count each thread separately instead of folding a
            process's threads together (inherit).
        watch_uid: only monitor processes of this uid (None = all visible).
        watch_pids: only monitor these pids (empty = all visible).
        screen: screen name to display.
        sort_by: column header to sort rows by (descending); "%CPU" default.
        max_tasks: cap on simultaneously monitored tasks (guards fd usage).
        profile: print a per-refresh wall-time breakdown to stderr, making
            overhead claims like the paper's §2.5 observable on our tool.
        chaos: fault-injection seed (``--chaos SEED``). None disables
            injection; any int seeds a replayable
            :class:`~repro.perf.faults.FaultPlan` so batch runs of a
            failure schedule are byte-identical.
    """

    delay: float = 2.0
    batch: bool = False
    iterations: int | None = None
    per_thread: bool = False
    watch_uid: int | None = None
    watch_pids: frozenset[int] = field(default_factory=frozenset)
    screen: str = "default"
    sort_by: str = "%CPU"
    max_tasks: int = 512
    profile: bool = False
    chaos: int | None = None

    def __post_init__(self) -> None:
        if self.delay <= 0:
            raise ConfigError(f"delay must be positive, got {self.delay}")
        if self.iterations is not None and self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if self.max_tasks < 1:
            raise ConfigError("max_tasks must be >= 1")
