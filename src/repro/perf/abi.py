"""The ``perf_event_open(2)`` ABI: structures and constants.

A faithful ctypes rendering of ``struct perf_event_attr`` and the constants
tiptop needs, matching ``linux/perf_event.h`` as of the 2.6.31+ interface
the paper uses (Fig. 2 shows the syscall prototype). The structure layout
is the original 64-byte (``PERF_ATTR_SIZE_VER0``) core plus the size field
protocol that lets newer userspace run on older kernels.
"""

from __future__ import annotations

import ctypes
import enum

from repro.errors import PerfError

#: x86_64 syscall number for perf_event_open.
SYSCALL_NR_X86_64 = 298

#: The original attr size (PERF_ATTR_SIZE_VER0).
PERF_ATTR_SIZE_VER0 = 64


class PerfTypeId(enum.IntEnum):
    """``perf_event_attr.type`` values (perf_type_id)."""

    HARDWARE = 0
    SOFTWARE = 1
    TRACEPOINT = 2
    HW_CACHE = 3
    RAW = 4
    BREAKPOINT = 5


class HardwareEventId(enum.IntEnum):
    """Generic hardware events (perf_hw_id) — the portable set of §2.2."""

    CPU_CYCLES = 0
    INSTRUCTIONS = 1
    CACHE_REFERENCES = 2
    CACHE_MISSES = 3
    BRANCH_INSTRUCTIONS = 4
    BRANCH_MISSES = 5
    BUS_CYCLES = 6


class SoftwareEventId(enum.IntEnum):
    """Software events (perf_sw_ids) — kernel-counted."""

    CPU_CLOCK = 0
    TASK_CLOCK = 1
    PAGE_FAULTS = 2
    CONTEXT_SWITCHES = 3
    CPU_MIGRATIONS = 4


class HwCacheId(enum.IntEnum):
    """Cache levels for PERF_TYPE_HW_CACHE config (perf_hw_cache_id)."""

    L1D = 0
    L1I = 1
    LL = 2
    DTLB = 3
    ITLB = 4
    BPU = 5


class HwCacheOpId(enum.IntEnum):
    """Cache op for PERF_TYPE_HW_CACHE config."""

    READ = 0
    WRITE = 1
    PREFETCH = 2


class HwCacheResultId(enum.IntEnum):
    """Cache op result for PERF_TYPE_HW_CACHE config."""

    ACCESS = 0
    MISS = 1


def hw_cache_config(
    cache: HwCacheId, op: HwCacheOpId, result: HwCacheResultId
) -> int:
    """Pack a PERF_TYPE_HW_CACHE config value (id | op<<8 | result<<16)."""
    return int(cache) | (int(op) << 8) | (int(result) << 16)


class ReadFormat(enum.IntFlag):
    """``perf_event_attr.read_format`` flags."""

    TOTAL_TIME_ENABLED = 1 << 0
    TOTAL_TIME_RUNNING = 1 << 1
    ID = 1 << 2
    GROUP = 1 << 3


# attr flag bit positions (bitfield packed into one u64 after read_format).
FLAG_DISABLED = 1 << 0
FLAG_INHERIT = 1 << 1
FLAG_PINNED = 1 << 2
FLAG_EXCLUSIVE = 1 << 3
FLAG_EXCLUDE_USER = 1 << 4
FLAG_EXCLUDE_KERNEL = 1 << 5
FLAG_EXCLUDE_HV = 1 << 6
FLAG_EXCLUDE_IDLE = 1 << 7

# ioctl request numbers (from _IO('$', n)).
IOCTL_ENABLE = 0x2400
IOCTL_DISABLE = 0x2401
IOCTL_REFRESH = 0x2402
IOCTL_RESET = 0x2403


class PerfEventAttr(ctypes.Structure):
    """``struct perf_event_attr`` (VER0 layout + trailing reserve).

    Only the fields tiptop uses are named; the flag bitfield is exposed as
    a single ``flags`` u64 with the ``FLAG_*`` masks above, matching the
    kernel's packing on little-endian x86.
    """

    _fields_ = [
        ("type", ctypes.c_uint32),
        ("size", ctypes.c_uint32),
        ("config", ctypes.c_uint64),
        ("sample_period_or_freq", ctypes.c_uint64),
        ("sample_type", ctypes.c_uint64),
        ("read_format", ctypes.c_uint64),
        ("flags", ctypes.c_uint64),
        ("wakeup_events_or_watermark", ctypes.c_uint32),
        ("bp_type", ctypes.c_uint32),
        ("bp_addr_or_config1", ctypes.c_uint64),
        ("bp_len_or_config2", ctypes.c_uint64),
    ]


if ctypes.sizeof(PerfEventAttr) != PERF_ATTR_SIZE_VER0 + 8:
    raise PerfError(
        f"PerfEventAttr layout drifted: {ctypes.sizeof(PerfEventAttr)} "
        f"bytes, expected {PERF_ATTR_SIZE_VER0 + 8}"
    )


def counting_attr(
    type_id: PerfTypeId,
    config: int,
    *,
    inherit: bool = False,
    disabled: bool = False,
    exclude_kernel: bool = True,
    exclude_hv: bool = True,
) -> PerfEventAttr:
    """Build an attr for counting mode, as tiptop configures it.

    Counting (not sampling) mode: no sample period, read_format asking for
    the enabled/running times so multiplexed counts can be scaled (§2.5).
    """
    attr = PerfEventAttr()
    attr.type = int(type_id)
    attr.size = PERF_ATTR_SIZE_VER0
    attr.config = config
    attr.read_format = int(
        ReadFormat.TOTAL_TIME_ENABLED | ReadFormat.TOTAL_TIME_RUNNING
    )
    flags = 0
    if disabled:
        flags |= FLAG_DISABLED
    if inherit:
        flags |= FLAG_INHERIT
    if exclude_kernel:
        flags |= FLAG_EXCLUDE_KERNEL
    if exclude_hv:
        flags |= FLAG_EXCLUDE_HV
    attr.flags = flags
    return attr


def sampling_attr(
    type_id: PerfTypeId,
    config: int,
    sample_period: int,
    **kwargs: bool,
) -> PerfEventAttr:
    """Build an attr for sampling mode (§2.5's statistical alternative).

    Same as :func:`counting_attr` with a PMU interrupt every
    ``sample_period`` events.

    Raises:
        ValueError: for a non-positive period.
    """
    if sample_period < 1:
        raise ValueError(f"sample_period must be >= 1, got {sample_period}")
    attr = counting_attr(type_id, config, **kwargs)
    attr.sample_period_or_freq = sample_period
    return attr
