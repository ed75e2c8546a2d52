"""Hardware event taxonomy for the simulated PMU.

Mirrors the split the paper relies on (§2.2–2.3): a handful of *generic*
events defined by ``linux/perf_event.h`` (cycles, instructions, LLC
references/misses, branches, branch misses) that make portable metrics
possible, plus *target-specific* raw events that must be looked up in vendor
manuals — here, the micro-code FP assist and per-level cache events used in
§3.1 and §3.4.
"""

from __future__ import annotations

import enum


class Event(enum.Enum):
    """Countable hardware events.

    The first block corresponds one-to-one to ``PERF_COUNT_HW_*`` generic
    events; the second block are raw, architecture-specific events (the
    Nehalem ``FP_ASSIST.ANY``, per-level cache misses, uop counts). The sim
    kernel counts all of them; a given :class:`~repro.sim.arch.ArchModel`
    advertises which raw events its PMU implements.
    """

    # Generic events (perf_event.h PERF_COUNT_HW_*)
    CYCLES = "cycles"
    INSTRUCTIONS = "instructions"
    CACHE_REFERENCES = "cache-references"
    CACHE_MISSES = "cache-misses"
    BRANCH_INSTRUCTIONS = "branch-instructions"
    BRANCH_MISSES = "branch-misses"
    BUS_CYCLES = "bus-cycles"

    # Raw target-specific events
    FP_ASSIST = "fp-assist"
    UOPS_EXECUTED = "uops-executed"
    L1D_ACCESSES = "l1d-accesses"
    L1D_MISSES = "l1d-misses"
    L2_ACCESSES = "l2-accesses"
    L2_MISSES = "l2-misses"
    L3_ACCESSES = "l3-accesses"
    L3_MISSES = "l3-misses"
    LOADS = "loads"
    STORES = "stores"
    FP_OPERATIONS = "fp-operations"
    X87_OPERATIONS = "x87-operations"
    SSE_OPERATIONS = "sse-operations"
    CONTEXT_SWITCHES = "context-switches"
    #: Cycles spent waiting on DRAM, per §3.4's outlook: "recent processors
    #: have counters for the latency of memory accesses. We plan to use
    #: them in the future" — dividing by LLC misses gives the average
    #: observed memory latency, which exposes DRAM-level contention.
    MEM_LATENCY_CYCLES = "mem-latency-cycles"

    def is_generic(self) -> bool:
        """True for events every architecture exposes (perf generic events)."""
        return self in _GENERIC_EVENTS


#: Dense integer code per event, in enum declaration order. The columnar
#: kernel indexes its per-slice delta vectors and per-counter event columns
#: by these codes instead of hashing enum members in inner loops.
EVENT_CODE: dict[Event, int] = {event: i for i, event in enumerate(Event)}

#: Length of a dense per-event vector (one slot per Event member).
N_EVENT_CODES: int = len(Event)


_GENERIC_EVENTS = frozenset(
    {
        Event.CYCLES,
        Event.INSTRUCTIONS,
        Event.CACHE_REFERENCES,
        Event.CACHE_MISSES,
        Event.BRANCH_INSTRUCTIONS,
        Event.BRANCH_MISSES,
        Event.BUS_CYCLES,
    }
)

#: Events every simulated PMU provides regardless of architecture.
GENERIC_EVENTS: frozenset[Event] = _GENERIC_EVENTS

#: Raw events only some architectures implement (see ArchModel.raw_events).
RAW_EVENTS: frozenset[Event] = frozenset(set(Event) - _GENERIC_EVENTS)
