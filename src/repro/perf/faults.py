"""Deterministic fault-injection plans for the perf substrate.

Real monitors race the kernel constantly: tasks die between listing and
attach (ESRCH), fd tables fill up (EMFILE), syscalls are interrupted
(EINTR) or asked to retry (EAGAIN), ``read(2)`` occasionally returns short
or torn values, and multiplexed counters can be starved off the PMU for
whole intervals. "Measuring Software Performance on Linux" (Becker &
Chakraborty, 2018) argues counter tooling is only trustworthy once these
perturbation modes are characterised; tiptop's own promise — an
unprivileged monitor that keeps working while the kernel misbehaves —
therefore needs a first-class, *replayable* fault model rather than
ad-hoc test wrappers.

A :class:`FaultPlan` is a seeded schedule of such failures, wired natively
into :class:`~repro.perf.simbackend.SimBackend`. Determinism has two
layers:

* **Rate specs** draw one uniform variate per backend call, derived by
  hashing ``(seed, tid, op, per-(tid, op) call index)``. Because the hash
  never looks at *global* call ordering, the schedule a given task
  experiences is independent of how other tasks' calls interleave — which
  is exactly what lets property tests assert that tasks the plan never
  touched produce bitwise-identical samples to a fault-free run. The
  draw is :mod:`repro.util.chaos`, which all three fault schedules share.
* **Indexed specs** (``at_calls``) fire on exact per-op global call
  indices (1-based), for targeted regression tests that need "the third
  open fails".

Replaying a failure schedule is just constructing the same plan again:
``FaultPlan.from_seed(seed)`` twice gives two identical schedules (the
``--chaos SEED`` CLI flag does precisely this).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import (
    ConfigError,
    CorruptReadError,
    FdLimitError,
    NoSuchTaskError,
    PerfBusyError,
    PerfError,
    PerfInterruptedError,
)
from repro.util import chaos

#: Backend operations a spec may target ("*" matches all of them).
OPS = ("open", "enable", "disable", "reset", "read", "close")

#: Injectable error classes, in errno terms where one exists.
#:
#: ========== ===================================================
#: class      meaning
#: ========== ===================================================
#: esrch      target task vanished (ESRCH)
#: emfile     fd table full (EMFILE/ENFILE)
#: eintr      syscall interrupted by a signal (EINTR)
#: eagain     kernel asks to retry (EAGAIN/EBUSY)
#: corrupt    short/torn counter read — garbage value
#: starve     multiplex starvation: the counter never reached the
#:            PMU this interval, so the read shows no progress
#: ========== ===================================================
ERROR_CLASSES = ("esrch", "emfile", "eintr", "eagain", "corrupt", "starve")

#: Error classes that raise (``starve`` perturbs the reading instead).
_RAISING: dict[str, type[PerfError]] = {
    "esrch": NoSuchTaskError,
    "emfile": FdLimitError,
    "eintr": PerfInterruptedError,
    "eagain": PerfBusyError,
    "corrupt": CorruptReadError,
}


@dataclass(frozen=True)
class FaultSpec:
    """One injection rule: which op fails how, and how often.

    Attributes:
        op: backend operation ("open", "read", ... or "*" for any).
        error: one of :data:`ERROR_CLASSES`.
        rate: per-call probability in [0, 1] (ignored when ``at_calls``
            is given).
        at_calls: exact 1-based per-op global call indices to fire on
            (deterministic triggering for targeted tests), sorted.
    """

    op: str
    error: str
    rate: float = 0.0
    at_calls: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.op != "*" and self.op not in OPS:
            raise ConfigError(
                f"fault spec targets unknown op {self.op!r} (know {OPS})"
            )
        if self.error not in ERROR_CLASSES:
            raise ConfigError(
                f"fault spec has unknown error class {self.error!r} "
                f"(know {ERROR_CLASSES})"
            )
        at_calls = chaos.check_draw(self.rate, self.at_calls, "at_calls", 1)
        object.__setattr__(self, "at_calls", at_calls)

    def matches_op(self, op: str) -> bool:
        """Whether this spec applies to backend operation ``op``."""
        return self.op == "*" or self.op == op


def default_specs(intensity: float = 1.0) -> tuple[FaultSpec, ...]:
    """The standard chaos mixture, every class represented.

    ``intensity`` scales all rates (1.0 gives a few-percent failure rate
    per call — noisy enough to exercise every error path within a short
    run, quiet enough that most tasks survive).
    """
    r = chaos.capped(intensity, 1.0)
    return (
        FaultSpec("open", "eagain", r(0.04)),
        FaultSpec("open", "esrch", r(0.01)),
        FaultSpec("open", "emfile", r(0.01)),
        FaultSpec("enable", "eintr", r(0.01)),
        FaultSpec("read", "eintr", r(0.02)),
        FaultSpec("read", "eagain", r(0.01)),
        FaultSpec("read", "corrupt", r(0.01)),
        FaultSpec("read", "esrch", r(0.005)),
        FaultSpec("read", "starve", r(0.03)),
        FaultSpec("close", "eintr", r(0.01)),
    )


@dataclass
class PlanStats:
    """Counters the plan keeps while injecting (for tests and reports)."""

    calls: dict[str, int] = field(default_factory=dict)
    injected: dict[tuple[str, str], int] = field(default_factory=dict)
    touched_tids: set[int] = field(default_factory=set)

    def total_injected(self) -> int:
        """Faults delivered so far, over all ops and classes."""
        return sum(self.injected.values())


class FaultPlan:
    """A seeded, replayable schedule of perf-layer failures.

    Args:
        seed: master seed; two plans with equal seed and specs make
            identical decisions for identical call sequences.
        specs: the injection rules. The rates of rules matching one op
            partition the unit interval, so their sum per op must stay
            <= 1.

    Raises:
        ConfigError: overlapping rates exceeding probability 1 for an op.
    """

    def __init__(
        self, seed: int, specs: tuple[FaultSpec, ...] | list[FaultSpec] = ()
    ) -> None:
        self.seed = seed
        self.specs: tuple[FaultSpec, ...] = tuple(specs)
        self._check_rates(self.specs)
        self.stats = PlanStats()
        # per-(tid, op) indices drive the hash; per-op global indices
        # drive at_calls triggering.
        self._tid_op_index: dict[tuple[int, str], int] = {}
        self._op_index: dict[str, int] = {}

    @staticmethod
    def _check_rates(specs: tuple[FaultSpec, ...]) -> None:
        for op in OPS:
            rates = (
                s.rate
                for s in specs
                if s.at_calls is None and s.matches_op(op)
            )
            chaos.check_rates(rates, f"fault {op!r}")

    @classmethod
    def from_seed(cls, seed: int, intensity: float = 1.0) -> "FaultPlan":
        """The default chaos mixture at ``intensity``, seeded."""
        return cls(seed, default_specs(intensity))

    def add(self, spec: FaultSpec) -> None:
        """Append one rule (targeted tests build schedules incrementally)."""
        specs = (*self.specs, spec)
        self._check_rates(specs)
        self.specs = specs

    def call_count(self, op: str) -> int:
        """Global calls of ``op`` decided so far (next call is +1)."""
        return self._op_index.get(op, 0)

    def decide(self, op: str, tid: int) -> str | None:
        """Record one backend call; return the error class to inject.

        Returns:
            One of :data:`ERROR_CLASSES`, or None for a clean call.
        """
        op_index = self._op_index.get(op, 0) + 1
        self._op_index[op] = op_index
        tid_key = (tid, op)
        tid_index = self._tid_op_index.get(tid_key, 0) + 1
        self._tid_op_index[tid_key] = tid_index
        self.stats.calls[op] = self.stats.calls.get(op, 0) + 1

        decision: str | None = None
        for spec in self.specs:
            if spec.at_calls is not None and spec.matches_op(op):
                if op_index in spec.at_calls:
                    decision = spec.error
                    break
        if decision is None:
            u = chaos.unit(f"{self.seed}:{tid}:{op}:{tid_index}")
            for spec in self.specs:
                if spec.at_calls is not None or not spec.matches_op(op):
                    continue
                if u < spec.rate:
                    decision = spec.error
                    break
                u -= spec.rate
        if decision is not None:
            key = (op, decision)
            self.stats.injected[key] = self.stats.injected.get(key, 0) + 1
            self.stats.touched_tids.add(tid)
        return decision

    def raise_for(self, op: str, tid: int) -> str | None:
        """Decide for one call, raising when the class is an exception.

        Returns:
            The non-raising decision ("starve") or None; raising classes
            never return.

        Raises:
            NoSuchTaskError / FdLimitError / PerfInterruptedError /
            PerfBusyError / CorruptReadError: per the injected class.
        """
        decision = self.decide(op, tid)
        if decision is None or decision == "starve":
            return decision
        raise _RAISING[decision](
            f"injected {decision} on {op} (task {tid}, seed {self.seed})"
        )

    def fork(self) -> "FaultPlan":
        """A fresh plan with the same seed and specs (replay helper)."""
        return FaultPlan(self.seed, self.specs)
