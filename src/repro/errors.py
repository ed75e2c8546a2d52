"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by the repro package."""


class PerfError(ReproError):
    """Base class for perf_event subsystem errors."""


class PerfNotSupportedError(PerfError):
    """The running kernel does not expose a usable perf_event PMU.

    Raised by the real syscall backend when ``perf_event_open`` fails with
    ``ENOENT``/``ENOSYS``/``EACCES`` in a way that indicates the facility is
    unavailable rather than the request being malformed.
    """


class PerfPermissionError(PerfError):
    """The caller may not monitor the requested task.

    Mirrors the paper's footnote 1: a non-privileged user can only watch
    processes they own (EPERM/EACCES from the kernel).
    """


class NoSuchTaskError(PerfError):
    """The monitored task does not exist (ESRCH)."""


class TransientPerfError(PerfError):
    """A perf operation failed in a way that is safe to retry.

    The kernel (real or simulated) reported a condition that does not
    invalidate the counter or its target — the same call may well succeed
    if reissued. Consumers (:class:`~repro.core.sampler.Sampler`,
    :class:`~repro.core.proclist.ProcessList`) retry these a bounded
    number of times (:func:`~repro.perf.counter.retry_transient`)
    instead of dropping the task.
    """


class PerfInterruptedError(TransientPerfError):
    """A perf syscall was interrupted by a signal (EINTR)."""


class PerfBusyError(TransientPerfError):
    """The kernel asked us to try again later (EAGAIN/EBUSY)."""


class CorruptReadError(TransientPerfError):
    """A counter read returned garbage (short read / torn value).

    The fd itself is presumed healthy — a re-read usually succeeds — so
    this is classified transient; persistent corruption escalates to
    quarantine through the retry budget.
    """


class FdLimitError(PerfError):
    """The per-process or system fd table is full (EMFILE/ENFILE).

    Not a per-task denial: the attach is retried on a later refresh once
    descriptors have been released, rather than the task being blacklisted.
    """


class CounterStateError(PerfError):
    """A counter operation was issued in an invalid state.

    For example reading a closed counter, or enabling a counter whose task
    has already exited.
    """


class EventError(PerfError):
    """An event name or raw descriptor could not be resolved."""


class ExprError(ReproError):
    """A derived-column expression failed to parse or evaluate."""


class WireError(ReproError):
    """Base class for telemetry wire-protocol failures.

    Raised by :mod:`repro.serve.protocol` when bytes on the collector/
    client link cannot be produced or consumed. Every decode failure maps
    to a typed subclass so transports can distinguish "wait for more
    bytes" (:class:`WireTruncatedError` during streaming is handled by
    the reassembler, not raised) from "this peer is broken".
    """


class WireTruncatedError(WireError):
    """A message payload ended before its declared contents.

    The decoder's cursor is bounds-checked: a frame whose header promises
    more rows, columns or string bytes than the payload carries raises
    this instead of over-reading (or worse, hanging waiting for bytes
    that already went to a different field).
    """


class WireCorruptError(WireError):
    """A message failed structural validation (bad magic, bad checksum,
    undecodable text, trailing garbage, unknown dtype tag)."""


class WireVersionError(WireError):
    """The peer speaks an unknown protocol version."""


class WireOversizeError(WireError):
    """A length prefix exceeds the protocol's message-size ceiling.

    Raised *before* any buffering of the oversized body, so a garbled or
    hostile length prefix can never make the reassembler allocate
    unbounded memory.
    """


class WireSequenceError(WireError):
    """A frame stream violated its strictly-increasing sequence contract.

    Raised by :class:`~repro.serve.client.ServeClient` when a frame
    arrives with a sequence number at or below the last one seen — a
    duplicate or reordered delivery the resume protocol must never let
    through. A *forward* gap is not this error: frames legitimately go
    missing to backpressure drops or retention aging, and the client
    counts those in ``gaps`` instead. Being a typed exception (not an
    ``assert``) the check survives ``python -O``.

    Attributes:
        expected: the lowest acceptable sequence (last seen + 1).
        actual: the sequence the peer actually sent.
    """

    def __init__(self, message: str, *, expected: int, actual: int) -> None:
        super().__init__(message)
        self.expected = expected
        self.actual = actual


class SessionError(ReproError):
    """A serve-session contract was violated (bad subscription, an
    out-of-order publish, an unknown resume point)."""


class ResumeGapError(SessionError):
    """A resume point fell off the daemon's retention ring.

    Raised by the auto-reconnecting client when the server's HELLO shows
    the oldest retained frame is newer than ``last seen + 1``: the ring
    rotated past the client while it was partitioned, so a bitwise-exact
    reassembly of the stream is no longer possible. Callers that can
    tolerate a lossy stream catch this and resubscribe without a resume
    point; callers that promised exactness must surface it.

    Attributes:
        requested: the client's last-seen sequence number.
        oldest: the oldest sequence the server still retains.
    """

    def __init__(self, message: str, *, requested: int, oldest: int) -> None:
        super().__init__(message)
        self.requested = requested
        self.oldest = oldest


class ConfigError(ReproError):
    """Invalid screen/column/option configuration."""


class ExperimentError(ConfigError):
    """An experiment spec failed to parse or validate.

    Raised by :mod:`repro.experiments` for malformed spec files, unknown
    keys, out-of-range values or unresolvable workload references. The
    CLI maps it (like every :class:`ConfigError`) to exit status 2.
    """


class ProcfsError(ReproError):
    """A /proc read or parse failed."""


class SimulationError(ReproError):
    """Invalid simulated-machine configuration or operation."""


class WorkloadError(SimulationError):
    """Invalid workload or phase description."""


class WorkerFailure(SimulationError):
    """A grid worker process failed its round-trip contract.

    Raised by the shard transports when a worker crashes (pipe closed,
    process exited), misses its epoch deadline (hang), replies with a
    message that does not parse as an epoch report (garbled), or is
    spoken to after the transport was deliberately shut down (closed —
    e.g. a send racing :meth:`close` during interpreter teardown),
    instead of leaking a raw ``EOFError``/``BrokenPipeError``. The
    supervised engine catches it and walks its recovery ladder.

    Attributes:
        worker: index of the failing worker.
        kind: one of ``"crash"``, ``"hang"``, ``"garbled"``,
            ``"closed"``.
        exitcode: the worker's exit code, when known.
    """

    def __init__(
        self,
        message: str,
        *,
        worker: int,
        kind: str,
        exitcode: int | None = None,
    ) -> None:
        super().__init__(message)
        self.worker = worker
        self.kind = kind
        self.exitcode = exitcode
