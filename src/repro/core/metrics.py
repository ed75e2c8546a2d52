"""The metric catalogue (§2.6): every derived metric a screen can show.

The paper's position is that a few *simple* metrics characterise behaviour
for most users: IPC first, then miss ratios to localise a bottleneck, plus
the application-characterisation rates FPI/LPI/BPI and the Diamond et al.
machine-facing FPC/LPC. Each metric is an expression over per-interval
counter deltas (identifiers are underscored event names; ``delta_t`` is the
interval length in seconds).

This is the one place a formula is written. An entry is keyed by the
header it prints; the built-in screens and ``-W`` screen files name
entries instead of restating them, like LIKWID's performance groups.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.columns import Column, expr_column


@dataclass(frozen=True)
class Metric:
    """A named derived metric and how its column prints.

    Attributes:
        name: the printed header ("IPC").
        expr: formula over counter deltas.
        description: one-line meaning.
        width: field width.
        decimals: decimal places.
    """

    name: str
    expr: str
    description: str
    width: int = 5
    decimals: int = 2

    def column(self) -> Column:
        """This metric as a screen's EXPR column."""
        return expr_column(
            self.name, self.expr, width=self.width, decimals=self.decimals
        )


#: Every catalogue metric, keyed by the header it prints.
METRICS: dict[str, Metric] = {
    m.name: m
    for m in (
        Metric(
            "Mcycle", "cycles / 1000000",
            "cycles in millions since last refresh", width=9, decimals=0,
        ),
        Metric(
            "Minst", "instructions / 1000000", "instructions in millions",
            width=9, decimals=0,
        ),
        Metric("IPC", "instructions / cycles", "retired instructions per cycle"),
        Metric(
            "DMIS", "100 * cache_misses / instructions",
            "last-level cache misses per 100 instructions (Fig. 1)", decimals=1,
        ),
        Metric(
            "ASSIST", "100 * fp_assist / instructions",
            "micro-code FP assists per 100 instructions (§3.1)",
            width=7, decimals=1,
        ),
        Metric(
            "UPI", "uops_executed / instructions",
            "micro-ops per instruction (assist detector)", width=6,
        ),
        Metric(
            "L1MIS", "100 * l1d_misses / instructions",
            "L1D misses per 100 instructions", width=6, decimals=1,
        ),
        Metric(
            "L2MIS", "100 * l2_misses / instructions",
            "L2 misses per 100 instructions (Fig. 11d)", width=6, decimals=1,
        ),
        Metric(
            "L3MIS", "100 * l3_misses / instructions",
            "L3 misses per 100 instructions (Fig. 11b)", width=6, decimals=1,
        ),
        Metric("BPI", "branch_instructions / instructions", "branches per instruction"),
        Metric(
            "%MISP", "100 * branch_misses / branch_instructions",
            "branch misprediction ratio in percent", width=6, decimals=1,
        ),
        Metric("FPI", "fp_operations / instructions", "FP operations per instruction"),
        Metric("LPI", "loads / instructions", "loads per instruction"),
        Metric(
            "FPC", "fp_operations / cycles",
            "FP operations per cycle (CPU subsystem)",
        ),
        Metric("LPC", "loads / cycles", "loads per cycle (memory subsystem)"),
        Metric(
            "MEMLAT", "mem_latency_cycles / cache_misses",
            "average observed memory latency in cycles (§3.4 outlook): "
            "rises under DRAM/LLC contention", width=7, decimals=0,
        ),
        # On no built-in screen; a screen file can name them.
        Metric(
            "MISS_RATIO", "100 * cache_misses / cache_references",
            "LLC miss ratio in percent",
        ),
        Metric(
            "BMIS", "100 * branch_misses / instructions",
            "branch mispredicts per 100 instructions",
        ),
        Metric("GHZ", "cycles / delta_t / 1000000000", "effective clock in GHz"),
    )
}
