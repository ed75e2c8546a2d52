"""Real perf_event backend: the actual Linux system call via ctypes.

This is the backend the paper's tool uses on a physical machine. It is
fully implemented — attr construction, the syscall, ``read(2)`` of the
counter fd with TOTAL_TIME_ENABLED|RUNNING read format, and the
enable/disable/reset ioctls — and degrades cleanly: on kernels/containers
without a PMU (``perf_event_open`` -> ENOENT, or ``perf_event_paranoid``
locked down), :func:`kernel_supports_perf_events` returns False and
:class:`RealBackend` raises :class:`~repro.errors.PerfNotSupportedError`
at open time, letting callers fall back to the simulated backend.
"""

from __future__ import annotations

import ctypes
import errno
import os
import struct

from repro.errors import (
    CorruptReadError,
    FdLimitError,
    NoSuchTaskError,
    PerfBusyError,
    PerfError,
    PerfInterruptedError,
    PerfNotSupportedError,
    PerfPermissionError,
)
from repro.perf import abi
from repro.perf.counter import Reading
from repro.perf.events import EventSpec

_libc: ctypes.CDLL | None = None


def _get_libc() -> ctypes.CDLL:
    global _libc
    if _libc is None:
        _libc = ctypes.CDLL(None, use_errno=True)
    return _libc


def perf_event_open(
    attr: abi.PerfEventAttr,
    pid: int,
    cpu: int = -1,
    group_fd: int = -1,
    flags: int = 0,
) -> int:
    """Invoke the raw system call (Fig. 2's prototype).

    Tiptop sets ``cpu = -1`` to count per task rather than per CPU (§2.3);
    ``group_fd`` and ``flags`` are unused.

    Returns:
        The counter file descriptor.

    Raises:
        PerfNotSupportedError / PerfPermissionError / NoSuchTaskError /
        FdLimitError / PerfInterruptedError / PerfBusyError / PerfError:
        mapped from the syscall's errno.
    """
    libc = _get_libc()
    fd = libc.syscall(
        abi.SYSCALL_NR_X86_64,
        ctypes.byref(attr),
        pid,
        cpu,
        group_fd,
        flags,
    )
    if fd >= 0:
        return fd
    raise _errno_error(ctypes.get_errno(), f"perf_event_open on task {pid}")


def _errno_error(err: int, what: str) -> PerfError:
    """Map one errno to the library's exception taxonomy.

    The retry/quarantine machinery keys off these classes, so the mapping
    is the contract: transient errnos (EINTR, EAGAIN, EBUSY) must come
    back as :class:`TransientPerfError` subclasses, resource exhaustion
    (EMFILE/ENFILE) as :class:`FdLimitError`, task death as
    :class:`NoSuchTaskError` — exactly what the simulated backend's fault
    plans inject.
    """
    strerror = os.strerror(err)
    if err in (errno.ENOENT, errno.ENOSYS, errno.EOPNOTSUPP):
        return PerfNotSupportedError(
            f"{what} failed: {strerror} (no usable PMU on this kernel)"
        )
    if err in (errno.EPERM, errno.EACCES):
        return PerfPermissionError(
            f"{what} denied: {strerror} "
            "(non-privileged users can only watch their own tasks)"
        )
    if err == errno.ESRCH:
        return NoSuchTaskError(f"{what} failed: no such task")
    if err in (errno.EMFILE, errno.ENFILE):
        return FdLimitError(f"{what} failed: {strerror} (fd table full)")
    if err == errno.EINTR:
        return PerfInterruptedError(f"{what} interrupted: {strerror}")
    if err in (errno.EAGAIN, errno.EBUSY):
        return PerfBusyError(f"{what} busy: {strerror}")
    return PerfError(f"{what} failed: {strerror}")


def paranoid_level() -> int | None:
    """Current ``kernel.perf_event_paranoid``, or None when unreadable."""
    try:
        with open("/proc/sys/kernel/perf_event_paranoid") as fh:
            return int(fh.read().strip())
    except (OSError, ValueError):
        return None


def kernel_supports_perf_events() -> bool:
    """Probe whether a trivial self-monitoring counter can be opened."""
    attr = abi.counting_attr(
        abi.PerfTypeId.HARDWARE, int(abi.HardwareEventId.INSTRUCTIONS)
    )
    try:
        fd = perf_event_open(attr, pid=0)
    except PerfError:
        return False
    os.close(fd)
    return True


#: read(2) layout with TOTAL_TIME_ENABLED|TOTAL_TIME_RUNNING: three u64s.
_READ_STRUCT = struct.Struct("=QQQ")


class RealBackend:
    """perf backend talking to the running Linux kernel.

    Implements :class:`repro.perf.counter.Backend`; handles are real file
    descriptors. Time values from the kernel are nanoseconds and converted
    to seconds in :class:`Reading`.
    """

    def __init__(self) -> None:
        self._open_fds: set[int] = set()

    def open(
        self,
        event: EventSpec,
        tid: int,
        *,
        inherit: bool = False,
        sample_period: int | None = None,
    ) -> int:
        """Open ``event`` on ``tid`` (see protocol docs for raises)."""
        if sample_period is None:
            attr = abi.counting_attr(event.type_id, event.config, inherit=inherit)
        else:
            attr = abi.sampling_attr(
                event.type_id, event.config, sample_period, inherit=inherit
            )
        fd = perf_event_open(attr, pid=tid)
        self._open_fds.add(fd)
        return fd

    def read(self, handle: int) -> Reading:
        """Read value/time_enabled/time_running from the counter fd.

        ``os.read`` already restarts EINTR (PEP 475); remaining OSErrors
        are mapped through the errno taxonomy so the caller's retry logic
        sees EAGAIN as :class:`~repro.errors.PerfBusyError` rather than a
        terminal failure. A short read means the kernel handed back a torn
        value — :class:`~repro.errors.CorruptReadError`, which is
        retryable.
        """
        try:
            data = os.read(handle, _READ_STRUCT.size)
        except OSError as exc:
            raise _errno_error(
                exc.errno or errno.EIO, f"read on counter fd {handle}"
            ) from exc
        if len(data) < _READ_STRUCT.size:
            raise CorruptReadError(
                f"short read ({len(data)} bytes) on counter fd {handle}"
            )
        value, enabled_ns, running_ns = _READ_STRUCT.unpack(data)
        return Reading(value, enabled_ns / 1e9, running_ns / 1e9)

    def _ioctl(self, handle: int, request: int) -> None:
        libc = _get_libc()
        while libc.ioctl(handle, request, 0) < 0:
            err = ctypes.get_errno()
            if err == errno.EINTR:
                # Restart interrupted ioctls ourselves; ctypes does not.
                continue
            raise _errno_error(err, f"ioctl {request:#x} on fd {handle}")

    def enable(self, handle: int) -> None:
        """ioctl PERF_EVENT_IOC_ENABLE."""
        self._ioctl(handle, abi.IOCTL_ENABLE)

    def disable(self, handle: int) -> None:
        """ioctl PERF_EVENT_IOC_DISABLE."""
        self._ioctl(handle, abi.IOCTL_DISABLE)

    def reset(self, handle: int) -> None:
        """ioctl PERF_EVENT_IOC_RESET."""
        self._ioctl(handle, abi.IOCTL_RESET)

    def close(self, handle: int) -> None:
        """Close the counter fd.

        On Linux the fd is released even when ``close(2)`` returns EINTR,
        so an interrupted close is swallowed — retrying it could close an
        unrelated, freshly reused descriptor.
        """
        self._open_fds.discard(handle)
        try:
            os.close(handle)
        except OSError as exc:
            if exc.errno != errno.EINTR:
                raise _errno_error(
                    exc.errno or errno.EIO, f"close of counter fd {handle}"
                ) from exc
