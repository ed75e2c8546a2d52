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
        watch_commands: only monitor processes whose command matches one of
            these names exactly (empty = all).
        screen: screen name to display.
        idle_threshold: hide rows below this %CPU in live mode (0 shows
            everything, like tiptop's idle-process toggle).
        sort_by: column header to sort rows by (descending); "%CPU" default.
        max_tasks: cap on simultaneously monitored tasks (guards fd usage).
        profile: print a per-refresh wall-time breakdown to stderr, making
            overhead claims like the paper's §2.5 observable on our tool.
        chaos: fault-injection seed (``--chaos SEED``). None disables
            injection; any int seeds a replayable
            :class:`~repro.perf.faults.FaultPlan` so batch runs of a
            failure schedule are byte-identical.
        retry_limit: extra attempts after a transient perf error
            (EINTR/EAGAIN/corrupt read) before the operation is given up
            for the interval.
        retry_backoff: base seconds slept between retries (doubles per
            attempt). 0 keeps retries immediate — the right choice for
            simulated hosts, where sleeping wall time means nothing.
        grid_workers: shard the simulated datacenter fleet over this many
            persistent worker processes (``--grid-workers``; 1 = the
            in-process serial engine). Only meaningful with ``--sim``
            grid runs — results are identical at any worker count.
        grid_chaos: worker-fault injection seed (``--grid-chaos SEED``).
            None disables injection; any int seeds a replayable
            :class:`~repro.sim.supervisor.GridFaultPlan` (worker
            crashes, hangs, garbled replies) executed under the
            supervised grid engine — the same seed replays the same
            failures and recoveries byte-identically.
        net_chaos: network-fault injection seed (``--net-chaos SEED``).
            None disables injection; any int seeds a replayable
            :class:`~repro.sim.netchaos.NetChaosPlan` (partitions, lost
            and duplicated messages, half-open links, delay) at the shard
            transport boundary — the supervised engine's epoch fencing
            keeps grid output byte-identical to an unpartitioned run.
        grid_hosts: partition the grid's worker pool into this many
            supervised host groups under fleet-level supervision
            (``--grid-hosts``). None keeps single-host supervision.
        serve_port: run as a collector daemon on this TCP port instead
            of rendering locally (``--serve PORT``; 0 binds an ephemeral
            port). One sampler serves every connected viewer — ROADMAP
            item 1's "millions of users" split.
        connect: subscribe to a collector daemon at ``"host:port"``
            instead of sampling locally (``--connect``); the stream
            drives the ordinary screen pipeline unchanged.
    """

    delay: float = 2.0
    batch: bool = False
    iterations: int | None = None
    per_thread: bool = False
    watch_uid: int | None = None
    watch_pids: frozenset[int] = field(default_factory=frozenset)
    watch_commands: frozenset[str] = field(default_factory=frozenset)
    screen: str = "default"
    idle_threshold: float = 0.0
    sort_by: str = "%CPU"
    max_tasks: int = 512
    profile: bool = False
    chaos: int | None = None
    retry_limit: int = 2
    retry_backoff: float = 0.0
    grid_workers: int = 1
    grid_chaos: int | None = None
    net_chaos: int | None = None
    grid_hosts: int | None = None
    serve_port: int | None = None
    connect: str | None = None

    def __post_init__(self) -> None:
        if self.delay <= 0:
            raise ConfigError(f"delay must be positive, got {self.delay}")
        if self.iterations is not None and self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if self.idle_threshold < 0:
            raise ConfigError("idle_threshold must be >= 0")
        if self.max_tasks < 1:
            raise ConfigError("max_tasks must be >= 1")
        if self.retry_limit < 0:
            raise ConfigError(
                f"retry_limit must be >= 0, got {self.retry_limit}"
            )
        if self.retry_backoff < 0:
            raise ConfigError(
                f"retry_backoff must be >= 0, got {self.retry_backoff}"
            )
        if self.grid_workers < 1:
            raise ConfigError(
                f"grid_workers must be >= 1, got {self.grid_workers}"
            )
        if self.grid_hosts is not None and self.grid_hosts < 1:
            raise ConfigError(
                f"grid_hosts must be >= 1, got {self.grid_hosts}"
            )
        if self.serve_port is not None and not (
            0 <= self.serve_port <= 65535
        ):
            raise ConfigError(
                f"serve_port must be 0..65535, got {self.serve_port}"
            )
        if self.connect is not None:
            host, _, port = self.connect.rpartition(":")
            if not host or not port.isdigit() or not 0 < int(port) <= 65535:
                raise ConfigError(
                    f"connect must be 'host:port', got {self.connect!r}"
                )
        if self.serve_port is not None and self.connect is not None:
            raise ConfigError("serve_port and connect are mutually exclusive")

    def wants(self, *, pid: int, uid: int, comm: str) -> bool:
        """Whether a task passes the watch filters."""
        if self.watch_uid is not None and uid != self.watch_uid:
            return False
        if self.watch_pids and pid not in self.watch_pids:
            return False
        if self.watch_commands and comm not in self.watch_commands:
            return False
        return True
