"""Seeded link-cut schedule for the serve daemon's client connections.

:class:`~repro.sim.supervisor.GridFaultPlan` breaks *processes* (crash,
hang, garble inside a grid worker); this module breaks the *links*
between the collector daemon and its subscribers. A
:class:`NetChaosPlan` is the same shape of object — a frozen,
stateless, picklable schedule seeded once and queried as a pure
function — and it answers one question: :meth:`NetChaosPlan.cut`, is
this connection severed before this frame is written? The
auto-reconnecting client then exercises resume-by-seq against the
retention ring. A healthy TCP stream cannot duplicate, reorder or delay
a frame, but it can be cut.

Determinism contract (shared with :mod:`repro.perf.faults` through
:mod:`repro.util.chaos`): every decision hashes ``(seed, link, seq)``
through crc32 into one uniform variate, so the schedule is
platform-stable and **independent per link** — cuts on one link never
shift another link's schedule. The third ``attempt`` axis is how a cut
*heals*: a fault with ``duration`` ``d`` keeps firing while the frame
for that (link, seq) has been attempted fewer than ``d`` times, then
clears. No wall-clock enters the schedule.

Every fault kind is a cut: the daemon severs the socket the same way
for each. In the stock mix a ``partition`` lasts two attempts (the heal
path) and a ``drop``, ``half_open`` or ``reorder`` one; any spec may set
its own ``duration``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.util import chaos

__all__ = [
    "NET_FAULT_KINDS",
    "NetChaosPlan",
    "NetFaultSpec",
    "default_net_specs",
]

#: Fault kinds a link can be ordered to exhibit; every one is a cut.
NET_FAULT_KINDS = ("partition", "drop", "half_open", "reorder")


@dataclass(frozen=True)
class NetFaultSpec:
    """One chaos behaviour for a network link.

    Attributes:
        kind: one of :data:`NET_FAULT_KINDS`.
        rate: probability per (link, seq) draw.
        at_epochs: exact frame seqs to fire at (overrides ``rate``), sorted.
        link: restrict to one link id (None = all links).
        duration: how many *attempts* of the same (link, seq) frame the
            cut keeps firing for before the link heals. 1 means a
            transient blip the first reconnect survives.
    """

    kind: str
    rate: float = 0.0
    at_epochs: tuple[int, ...] | None = None
    link: int | None = None
    duration: int = 1

    def __post_init__(self) -> None:
        at_epochs = chaos.check_spec(
            self, "net", NET_FAULT_KINDS, self.link, "link id"
        )
        object.__setattr__(self, "at_epochs", at_epochs)
        if self.duration < 1:
            raise ConfigError(f"duration must be >= 1, got {self.duration}")


def default_net_specs(intensity: float = 1.0) -> tuple[NetFaultSpec, ...]:
    """The stock link-cut mix: mostly transient single-frame losses
    (one reconnect each), and some two-attempt partitions (the heal
    path)."""
    # Each rate is capped at 1/6: changing the cap moves the cuts of
    # every seed run at an intensity where it binds.
    r = chaos.capped(intensity, 1.0 / 6)
    return (
        NetFaultSpec("partition", rate=r(0.03), duration=2),
        NetFaultSpec("drop", rate=r(0.03)),
        NetFaultSpec("half_open", rate=r(0.02)),
        NetFaultSpec("reorder", rate=r(0.015)),
    )


@dataclass(frozen=True)
class NetChaosPlan:
    """A seeded, stateless schedule of link cuts.

    Decisions hash ``(seed, link, seq)`` through crc32 into one uniform
    variate walked across the rate specs (the worker plan's walk,
    :func:`repro.util.chaos.pick`), so at most one fault fires per
    (link, seq) and the schedule for one link is independent of every
    other link's.
    """

    seed: int
    specs: tuple[NetFaultSpec, ...]

    def __post_init__(self) -> None:
        chaos.check_aimed(self.specs, "link", "net fault")

    @classmethod
    def from_seed(cls, seed: int, intensity: float = 1.0) -> "NetChaosPlan":
        return cls(seed=seed, specs=default_net_specs(intensity))

    def cut(self, link: int, seq: int, attempt: int) -> bool:
        """Is this link severed before frame ``seq`` is written?

        ``attempt`` counts earlier tries at the same (link, seq) frame
        (0 on the first); a fault stops firing once ``attempt`` reaches
        its ``duration`` — that is the heal schedule. Whether a fault is
        scheduled depends only on ``(seed, link, seq)``, so reconnects
        on other links can never shift it.
        """
        # crc32 is linear, so keys differing in one mid-string character
        # (adjacent links) land on correlated values; feeding the first
        # digest through a second crc32 restores avalanche while staying
        # platform-stable and hash()-free.
        u = chaos.unit(str(chaos.crc(f"{self.seed}:net:{link}:{seq}")))
        aimed = [s for s in self.specs if s.link in (None, link)]
        spec = chaos.pick(aimed, seq, u)
        return spec is not None and attempt < spec.duration
