"""Cut connections, resume-by-seq, and the retention ring's edges.

The reconnect contract: a client cut mid-stream redials on the shared
backoff ladder, resumes after its last fully received sequence, and the
reassembled stream is bitwise-equal to an uninterrupted subscriber's.
The edges are typed, not fudged — a resume the retention ring rotated
past raises :class:`~repro.errors.ResumeGapError` naming the missing
range, a resume in the future yields an empty clean stream, and a resume
behind a drop burst reports the gap in ``gaps`` while the per-client
accounting identity still balances.

pytest-asyncio is absent here, so scenarios run under ``asyncio.run``;
cuts come from a :class:`~repro.sim.netchaos.NetChaosPlan` pinned to the
client's link (crc32 of its id), so every severance is scheduled, not
raced.
"""

from __future__ import annotations

import asyncio
import zlib

import pytest

from repro.core.app import SimHost
from repro.core.options import Options
from repro.core.sampler import Sampler
from repro.core.screen import get_screen
from repro.errors import ResumeGapError, SessionError, WireSequenceError
from repro.serve.client import collect
from repro.serve.daemon import CollectorDaemon
from repro.serve.protocol import frame_digest
from repro.sim.netchaos import NetChaosPlan, NetFaultSpec
from repro.sim.workloads import datacenter
from repro.util.backoff import BackoffPolicy

_DELAY = 0.5
_SEED = 7


def _link(client_id: str) -> int:
    return zlib.crc32(client_id.encode()) & 0x7FFFFFFF


def _cut_plan(client_id: str, *seqs: int, duration: int = 1) -> NetChaosPlan:
    """Sever this client's connection at exactly these frame seqs."""
    return NetChaosPlan(
        seed=0,
        specs=tuple(
            NetFaultSpec("partition", at_epochs=frozenset({seq}),
                         link=_link(client_id), duration=duration)
            for seq in seqs
        ),
    )


def _make_daemon(iterations: int, *, min_clients: int = 1, **kwargs):
    machine = datacenter.make_node(tick=min(0.5, _DELAY / 4), seed=_SEED)
    datacenter.populate_fig1(machine)
    host = SimHost(machine)
    sampler = Sampler(
        host.backend, host.tasks, get_screen("default"), Options(delay=_DELAY)
    )
    return CollectorDaemon(
        sampler,
        advance=lambda: host.sleep(_DELAY),
        iterations=iterations,
        min_clients=min_clients,
        **kwargs,
    )


def _solo_digests(iterations: int) -> list[str]:
    machine = datacenter.make_node(tick=min(0.5, _DELAY / 4), seed=_SEED)
    datacenter.populate_fig1(machine)
    host = SimHost(machine)
    sampler = Sampler(
        host.backend, host.tasks, get_screen("default"), Options(delay=_DELAY)
    )
    sampler.sample_frame()  # baseline, never published
    digests = []
    for _ in range(iterations):
        host.sleep(_DELAY)
        digests.append(frame_digest(sampler.sample_frame()))
    sampler.close()
    return digests


# -- the reconnect contract ---------------------------------------------------

def test_cut_client_reassembles_bitwise_equal_stream():
    """One scheduled cut mid-stream: the reconnecting client's stream is
    bitwise-equal to the solo pipeline's, with zero gaps."""

    async def go():
        daemon = _make_daemon(4, netchaos=_cut_plan("chaos", 1))
        port = await daemon.start()
        (received, client), _ = await asyncio.gather(
            collect("127.0.0.1", port, client_id="chaos",
                    reconnect=True, backoff=BackoffPolicy(base=0.0)),
            daemon.run(),
        )
        await daemon.close()
        return received, client, daemon.net_cuts

    received, client, cuts = asyncio.run(go())
    assert cuts == 1
    assert client.reconnects == 1
    assert client.gaps == 0
    assert [seq for seq, _ in received] == [0, 1, 2, 3]
    assert [frame_digest(f) for _, f in received] == _solo_digests(4)


def test_cut_before_first_frame_resumes_from_the_hello_floor():
    """A client cut before it received anything must resume from the
    position its first HELLO promised — not from "live", which by then
    may be past the whole backlog."""

    async def go():
        daemon = _make_daemon(3, netchaos=_cut_plan("chaos", 0))
        port = await daemon.start()
        (received, client), _ = await asyncio.gather(
            collect("127.0.0.1", port, client_id="chaos",
                    reconnect=True, backoff=BackoffPolicy(base=0.0)),
            daemon.run(),
        )
        await daemon.close()
        return received, client

    received, client = asyncio.run(go())
    assert client.reconnects == 1
    assert [seq for seq, _ in received] == [0, 1, 2]
    assert [frame_digest(f) for _, f in received] == _solo_digests(3)


def test_reconnect_budget_exhaustion_is_a_typed_session_error():
    """A partition that never heals: the client climbs the ladder
    ``max_reconnects`` times, then gives up with SessionError instead of
    spinning forever."""

    async def go():
        daemon = _make_daemon(
            3, netchaos=_cut_plan("chaos", 0, duration=10_000)
        )
        port = await daemon.start()

        async def doomed():
            with pytest.raises(SessionError, match="gave up after 2"):
                await collect("127.0.0.1", port, client_id="chaos",
                              reconnect=True, backoff=BackoffPolicy(base=0.0),
                              max_reconnects=2)

        _, _ = await asyncio.gather(doomed(), daemon.run())
        await daemon.close()

    asyncio.run(go())


# -- retention-ring edges -----------------------------------------------------

def test_resume_past_rotated_retention_raises_resume_gap_error():
    """Cut before the first frame with a ring smaller than the run: by
    the time the client redials the oldest retained seq is beyond its
    resume point, and the typed error names both sides of the hole."""

    async def go():
        daemon = _make_daemon(
            6, netchaos=_cut_plan("chaos", 0), retention=2
        )
        port = await daemon.start()

        async def gapped():
            # The backoff is long enough that the whole run (pace 0)
            # finishes and the ring rotates before the redial lands.
            with pytest.raises(ResumeGapError) as info:
                await collect("127.0.0.1", port, client_id="chaos",
                              reconnect=True,
                              backoff=BackoffPolicy(base=0.4, cap=0.4))
            return info.value

        exc, _ = await asyncio.gather(gapped(), daemon.run())
        await daemon.close()
        return exc

    exc = asyncio.run(go())
    assert exc.requested == -1  # cut before any frame arrived
    assert exc.oldest == 4  # 6 published, ring of 2: seqs 4 and 5 remain


def test_fresh_resume_in_the_future_is_an_empty_clean_stream():
    """Resuming past everything the daemon ever published is not an
    error: the server has nothing newer, so the client gets zero frames
    and a clean accounting BYE."""

    async def go():
        daemon = _make_daemon(3)
        port = await daemon.start()
        _, _ = await asyncio.gather(
            collect("127.0.0.1", port, client_id="live"),
            daemon.run(),
        )
        received, client = await collect(
            "127.0.0.1", port, client_id="future", resume_from=100
        )
        await daemon.close()
        return received, client

    received, client = asyncio.run(go())
    assert received == []
    assert client.gaps == 0
    assert client.bye is not None and "stats" in client.bye
    stats = client.bye["stats"]
    assert stats["delivered"] == 0


def test_fresh_resume_behind_the_ring_reports_the_gap_exactly():
    """A late joiner resuming from 0 against a rotated ring gets what is
    retained, counts exactly one discontinuity, and its accounting
    identity still balances — the hole is reported, never papered over."""

    async def go():
        daemon = _make_daemon(5, retention=2)
        port = await daemon.start()
        _, _ = await asyncio.gather(
            collect("127.0.0.1", port, client_id="live"),
            daemon.run(),
        )
        received, client = await collect(
            "127.0.0.1", port, client_id="late", resume_from=0
        )
        await daemon.close()
        return received, client

    received, client = asyncio.run(go())
    assert [seq for seq, _ in received] == [3, 4]
    assert client.gaps == 1
    assert [frame_digest(f) for _, f in received] == _solo_digests(5)[3:]
    stats = client.bye["stats"]
    assert stats["published"] == (
        stats["delivered"] + stats["dropped"] + stats["lag"]
    )


# -- typed wire errors --------------------------------------------------------

def test_wire_sequence_error_carries_expected_and_actual():
    exc = WireSequenceError("seq went backwards", expected=5, actual=3)
    assert exc.expected == 5
    assert exc.actual == 3
    assert "backwards" in str(exc)


def test_steady_client_is_never_disturbed_by_anothers_cuts():
    """Chaos is per-link: a second subscriber whose link has no
    scheduled faults streams straight through while the first one is
    being cut and reconnecting."""

    async def go():
        daemon = _make_daemon(
            4, min_clients=2, netchaos=_cut_plan("chaos", 1, 2)
        )
        port = await daemon.start()
        results, _ = await asyncio.gather(
            asyncio.gather(
                collect("127.0.0.1", port, client_id="chaos",
                        reconnect=True, backoff=BackoffPolicy(base=0.0)),
                collect("127.0.0.1", port, client_id="steady"),
            ),
            daemon.run(),
        )
        await daemon.close()
        return results, daemon.net_cuts

    (chaotic, steady), cuts = asyncio.run(go())
    assert cuts >= 2
    solo = _solo_digests(4)
    for received, client in (chaotic, steady):
        assert [frame_digest(f) for _, f in received] == solo
        assert client.gaps == 0
    assert chaotic[1].reconnects >= 2
    assert steady[1].reconnects == 0



def test_attempt_counts_stay_within_the_retention_span():
    """Net chaos records one send attempt per (link, seq). With a ring
    shorter than the run, counts for seqs no link can send again are
    dropped after each publish: the map stays within retention x links,
    and every client receives exactly what it receives when nothing is
    dropped."""
    retention, frames, names = 4, 12, ("a", "b", "steady")
    plan = NetChaosPlan(
        seed=0,
        specs=(
            NetFaultSpec("partition", at_epochs=frozenset({2, 7}),
                         link=_link("a"), duration=2),
            NetFaultSpec("drop", at_epochs=frozenset({5}), link=_link("b")),
        ),
    )

    def run(prune: bool):
        sizes = []

        async def go():
            daemon = _make_daemon(
                frames, min_clients=len(names), retention=retention,
                netchaos=plan, pace=0.02,
            )
            if not prune:
                daemon._forget_unsendable = lambda: None
            advance = daemon.advance

            def probe():
                sizes.append(len(daemon._net_attempts))
                advance()

            daemon.advance = probe
            port = await daemon.start()
            results, _ = await asyncio.gather(
                asyncio.gather(*(
                    collect("127.0.0.1", port, client_id=name, reconnect=True,
                            backoff=BackoffPolicy(base=0.0))
                    for name in names
                )),
                daemon.run(),
            )
            await daemon.close()
            sizes.append(len(daemon._net_attempts))
            return results, daemon.net_cuts

        results, cuts = asyncio.run(go())
        streams = {
            name: (
                [seq for seq, _ in received],
                [frame_digest(f) for _, f in received],
                client.gaps,
                client.reconnects,
            )
            for name, (received, client) in zip(names, results)
        }
        return streams, cuts, sizes

    pruned, cuts, sizes = run(prune=True)
    kept, kept_cuts, kept_sizes = run(prune=False)
    assert cuts == kept_cuts == 5
    assert pruned == kept
    solo = _solo_digests(frames)
    for seqs, digests, gaps, _ in pruned.values():
        assert (seqs, digests, gaps) == (list(range(frames)), solo, 0)
    assert max(sizes) <= retention * len(names)
    assert max(kept_sizes) == frames * len(names)
