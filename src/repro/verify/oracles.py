"""The oracle registry: differential checks and semantic invariants.

Every oracle is a function ``(Execution) -> list[Violation]`` registered
under a stable name. Differential oracles compare implementation pairs
that claim exact agreement (scalar reference vs kernel advance, batched vs
per-handle reads, engine vs engine, run vs replay); invariant oracles
check semantic properties any single run must satisfy (delta
monotonicity, enabled/running time accounting, cache-hierarchy
consistency, leak freedom, HEALTH-state legality, vectorised-vs-scalar
expression agreement, CSV round-tripping, grid job lifecycles).

Oracles judge their own applicability: an oracle whose precondition a
scenario does not meet (e.g. exact conservation under multiplexing or
chaos) returns no violations rather than guessing with tolerances. The
conditions are data-driven where possible — conservation, for instance,
applies per counter whenever its kernel clocks show it was never
multiplexed off the PMU.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.core.expr import canonical_name
from repro.core.recorder import Recorder
from repro.core.screen import get_screen
from repro.perf.events import resolve_event
from repro.verify.runner import Execution, ToolRun, execute, run_machine
from repro.verify.scenario import Scenario

#: HEALTH labels that may ever appear in a frame. "retrying" exists as
#: internal state but a task in it skips its row, so it never renders.
LEGAL_HEALTH = frozenset({"ok", "retry", "reattached"})


@dataclass(frozen=True)
class Violation:
    """One oracle failure: which property broke and how."""

    oracle: str
    message: str

    def to_dict(self) -> dict:
        return {"oracle": self.oracle, "message": self.message}


ORACLES: dict[str, Callable[[Execution], list[Violation]]] = {}


def oracle(name: str):
    """Register an oracle under ``name``."""

    def wrap(fn: Callable[[Execution], list[Violation]]):
        ORACLES[name] = fn
        return fn

    return wrap


# -- structural diffing -------------------------------------------------------

def _eq(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return a == b


def deep_diff(a, b, path: str = "$", limit: int = 4) -> list[str]:
    """First few paths where two nested plain-data values differ."""
    diffs: list[str] = []

    def walk(a, b, path: str) -> None:
        if len(diffs) >= limit:
            return
        if isinstance(a, dict) and isinstance(b, dict):
            for key in sorted(set(a) | set(b), key=repr):
                if key not in a or key not in b:
                    diffs.append(f"{path}.{key}: only in one side")
                else:
                    walk(a[key], b[key], f"{path}.{key}")
            return
        if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
            if len(a) != len(b):
                diffs.append(f"{path}: length {len(a)} != {len(b)}")
                return
            for i, (x, y) in enumerate(zip(a, b)):
                walk(x, y, f"{path}[{i}]")
            return
        if not _eq(a, b):
            diffs.append(f"{path}: {a!r} != {b!r}")

    walk(a, b, path)
    return diffs


def _compare_runs(
    name: str, label_a: str, a: ToolRun, label_b: str, b: ToolRun
) -> list[Violation]:
    out: list[Violation] = []
    if a.csv != b.csv:
        out.append(
            Violation(
                name,
                f"recorded CSV differs between {label_a} and {label_b} "
                f"({len(a.csv)} vs {len(b.csv)} bytes)",
            )
        )
    for diff in deep_diff(a.snapshot, b.snapshot):
        out.append(
            Violation(
                name,
                f"node snapshot differs ({label_a} vs {label_b}): {diff}",
            )
        )
    if a.health != b.health:
        out.append(
            Violation(
                name,
                f"HEALTH traces differ between {label_a} and {label_b}",
            )
        )
    return out


# -- differential oracles -----------------------------------------------------

@oracle("advance-equivalence")
def _advance_equivalence(ex: Execution) -> list[Violation]:
    """A tool run on the kernel must be bitwise identical to one driven
    by the scalar reference tick."""
    if ex.base is None or ex.reference is None:
        return []
    return _compare_runs(
        "advance-equivalence", "kernel", ex.base, "reference", ex.reference
    )


@oracle("scalar-columnar-machine")
def _scalar_columnar_machine(ex: Execution) -> list[Violation]:
    """The columnar tick kernel must replay the scalar reference tick bit
    for bit on the bare machine.

    Deeper than advance-equivalence: no sampler or backend in the loop, and
    the node snapshot includes the scheduler observables the columnar path
    mirrors into arrays (vruntime, context switches, last PU, placement
    memory, multiplex rotation), so a divergence in any mirrored column
    surfaces even when frames would still agree.
    """
    if ex.scenario.kind != "tool":
        return []
    scalar = run_machine(ex.scenario, advance="scalar")
    columnar = run_machine(ex.scenario, advance="kernel")
    return [
        Violation(
            "scalar-columnar-machine",
            f"bare-machine state diverges (scalar vs columnar): {diff}",
        )
        for diff in deep_diff(scalar, columnar)
    ]


@oracle("served-stream")
def _served_stream(ex: Execution) -> list[Violation]:
    """A subscriber's reassembled stream is bitwise-equal to a solo run.

    The serve run (:func:`~repro.verify.runner.run_served`) rebuilt the
    scenario's node independently and shipped every frame over TCP
    through the binary codec; here each client's received digests must
    equal the digests of the solo run's frames *as that client's
    subscription views them* — encode, fanout, decode and server-side
    filtering/derivation all proven lossless in one comparison. Exact
    backpressure accounting and per-client sequence monotonicity ride
    along.
    """
    if ex.served is None or ex.base is None:
        return []
    from repro.serve.protocol import frame_digest
    from repro.serve.session import Subscription, subscription_view

    out: list[Violation] = []
    for name, client in ex.served["clients"].items():
        sub = Subscription.from_dict(client["subscription"])
        expect = [
            frame_digest(subscription_view(frame, sub))
            for frame in ex.base.frames
        ]
        if client["digests"] != expect:
            first = next(
                (
                    k
                    for k, (got, want) in enumerate(
                        zip(client["digests"], expect)
                    )
                    if got != want
                ),
                min(len(client["digests"]), len(expect)),
            )
            out.append(
                Violation(
                    "served-stream",
                    f"client {name!r}: served stream diverges from solo "
                    f"run at frame {first} "
                    f"({len(client['digests'])} vs {len(expect)} frames)",
                )
            )
        seqs = client["seqs"]
        if seqs != sorted(set(seqs)):
            out.append(
                Violation(
                    "served-stream",
                    f"client {name!r}: sequence numbers not strictly "
                    f"increasing: {seqs}",
                )
            )
        stats = client["stats"] or {}
        accounted = (
            stats.get("delivered", 0)
            + stats.get("dropped", 0)
            + stats.get("lag", 0)
        )
        if stats.get("published") != accounted:
            out.append(
                Violation(
                    "served-stream",
                    f"client {name!r}: accounting identity violated "
                    f"(published {stats.get('published')} != delivered + "
                    f"dropped + lag = {accounted})",
                )
            )
        if stats.get("dropped", 0) == 0 and client["gaps"]:
            out.append(
                Violation(
                    "served-stream",
                    f"client {name!r}: {client['gaps']} sequence gaps "
                    "without any recorded drops",
                )
            )
    return out


@oracle("read-agreement")
def _read_agreement(ex: Execution) -> list[Violation]:
    """Batched ``read_many`` vs per-handle ``read`` must agree exactly,
    including under injected mid-batch faults."""
    if ex.base is None or ex.sequential is None:
        return []
    return _compare_runs(
        "read-agreement", "batched", ex.base, "sequential", ex.sequential
    )


@oracle("replay-determinism")
def _replay_determinism(ex: Execution) -> list[Violation]:
    """Two executions of one scenario must be byte-identical."""
    out: list[Violation] = []
    if ex.base is not None and ex.replay is not None:
        out += _compare_runs(
            "replay-determinism", "run1", ex.base, "run2", ex.replay
        )
    if ex.grid and ex.grid_replay is not None:
        first = ex.grid_replay_engine or ex.scenario.engines[0]
        for diff in deep_diff(ex.grid[first], ex.grid_replay):
            out.append(
                Violation(
                    "replay-determinism",
                    f"grid digest differs between runs of engine "
                    f"{first!r}: {diff}",
                )
            )
        if ex.grid_replay_meta is not None and first in ex.grid_meta:
            # Recovery must replay byte-identically too: same failures,
            # same restarts, same adoptions, in the same order.
            for diff in deep_diff(
                ex.grid_meta[first]["events"], ex.grid_replay_meta["events"]
            ):
                out.append(
                    Violation(
                        "replay-determinism",
                        f"supervisor event log differs between runs of "
                        f"engine {first!r}: {diff}",
                    )
                )
    return out


@oracle("engines-agree")
def _engines_agree(ex: Execution) -> list[Violation]:
    """Every grid engine and shard transport: identical digests."""
    if len(ex.grid) < 2:
        return []
    out: list[Violation] = []
    first = ex.scenario.engines[0]
    reference = ex.grid[first]
    for engine, digest in ex.grid.items():
        if engine == first:
            continue
        for diff in deep_diff(reference, digest):
            out.append(
                Violation(
                    "engines-agree",
                    f"engine {engine!r} diverges from {first!r}: {diff}",
                )
            )
    return out


@oracle("csv-roundtrip")
def _csv_roundtrip(ex: Execution) -> list[Violation]:
    """``to_csv -> from_csv -> to_csv`` must be a fixed point."""
    if ex.base is None or not ex.base.frames:
        return []
    rewritten = Recorder.from_csv(ex.base.csv).to_csv()
    if rewritten != ex.base.csv:
        return [
            Violation(
                "csv-roundtrip",
                f"CSV round-trip not byte-identical "
                f"({len(ex.base.csv)} -> {len(rewritten)} bytes)",
            )
        ]
    return []


# -- invariant oracles --------------------------------------------------------

@oracle("delta-monotonic")
def _delta_monotonic(ex: Execution) -> list[Violation]:
    """Scaled per-interval deltas are finite and never negative."""
    if ex.base is None:
        return []
    out: list[Violation] = []
    for k, frame in enumerate(ex.base.frames):
        for name, values in frame.deltas.items():
            if len(values) and not np.all(np.isfinite(values)):
                out.append(
                    Violation(
                        "delta-monotonic",
                        f"frame {k}: non-finite delta in {name!r}",
                    )
                )
            if len(values) and float(np.min(values)) < -1e-9:
                out.append(
                    Violation(
                        "delta-monotonic",
                        f"frame {k}: negative delta in {name!r} "
                        f"(min {float(np.min(values))})",
                    )
                )
    return out


@oracle("time-accounting")
def _time_accounting(ex: Execution) -> list[Violation]:
    """Kernel clocks: 0 <= time_running <= time_enabled <= now."""
    if ex.base is None:
        return []
    out: list[Violation] = []
    now = ex.base.snapshot["now"]
    for cid, (value, te, tr, *_rest) in ex.base.snapshot["counters"].items():
        if value < 0:
            out.append(
                Violation(
                    "time-accounting", f"counter {cid}: negative value {value}"
                )
            )
        if not 0.0 <= tr <= te + 1e-9:
            out.append(
                Violation(
                    "time-accounting",
                    f"counter {cid}: time_running {tr} outside "
                    f"[0, time_enabled {te}]",
                )
            )
        if te > now + 1e-9:
            out.append(
                Violation(
                    "time-accounting",
                    f"counter {cid}: time_enabled {te} exceeds now {now}",
                )
            )
    return out


def _tid_delta_sum(run: ToolRun, tid: int, name: str) -> float:
    total = 0.0
    for frame in run.frames:
        idx = np.flatnonzero(frame.tids == tid)
        if len(idx) and name in frame.deltas:
            total += float(frame.deltas[name][idx[0]])
    return total


@oracle("conservation")
def _conservation(ex: Execution) -> list[Violation]:
    """Recorded deltas telescope to the kernel counter's final value.

    Applies per counter, data-driven: fault-free scenarios only, handles
    backed by exactly one kernel counter whose clocks show it was never
    multiplexed off the PMU (``time_enabled == time_running`` bitwise —
    once a counter falls behind it never catches up), for tasks that
    were never quarantined/reattached. Under those conditions every
    interval's scaling factor is exactly 1.0 and the integer read deltas
    telescope, so the float sum is exact.
    """
    if ex.base is None or ex.scenario.chaotic:
        return []
    run = ex.base
    if not run.frames:
        return []
    # Map simulated events back to the delta-column names.
    names: dict[object, str] = {}
    for frame in run.frames:
        for name in frame.deltas:
            names.setdefault(resolve_event(name).sim_event, name)
    reattached = {
        tid
        for labels in run.health
        for tid, label in labels.items()
        if label == "reattached"
    }
    out: list[Violation] = []
    for entry in run.kernel:
        if len(entry["counters"]) != 1 or entry["tid"] in reattached:
            continue
        event, value, te, tr, _enabled = entry["counters"][0]
        if te != tr:
            continue  # multiplexed or starved off the PMU at some point
        name = names.get(event)
        if name is None:
            continue
        total = _tid_delta_sum(run, entry["tid"], name)
        if total != float(value):
            out.append(
                Violation(
                    "conservation",
                    f"tid {entry['tid']} {name!r}: recorded deltas sum to "
                    f"{total}, kernel counter holds {value}",
                )
            )
    return out


@oracle("cache-hierarchy")
def _cache_hierarchy(ex: Execution) -> list[Violation]:
    """misses(L1d) >= misses(L2) >= misses(LLC) per task per interval.

    Exact by construction of the miss chain when reads are unscaled, so
    it applies only to unmultiplexed, fault-free runs (scaling
    extrapolates each level independently). Slack of 2 events absorbs
    the per-read integer truncation of each float accumulator.
    """
    if ex.base is None or ex.scenario.chaotic or ex.base.multiplexed:
        return []
    chain = ["l1d-misses", "l2-misses", "l3-misses"]
    out: list[Violation] = []
    for k, frame in enumerate(ex.base.frames):
        present = [c for c in chain if c in frame.deltas]
        for upper, lower in zip(present, present[1:]):
            hi = frame.deltas[upper]
            lo = frame.deltas[lower]
            bad = np.flatnonzero(lo > hi + 2.0)
            for i in bad:
                out.append(
                    Violation(
                        "cache-hierarchy",
                        f"frame {k} tid {int(frame.tids[i])}: "
                        f"{lower}={float(lo[i])} exceeds "
                        f"{upper}={float(hi[i])}",
                    )
                )
    return out


@oracle("no-leaks")
def _no_leaks(ex: Execution) -> list[Violation]:
    """After close: no live handles, no open kernel counters, and the
    lifetime open/close tallies balance — chaos included."""
    out: list[Violation] = []
    for label, run in (
        ("base", ex.base),
        ("reference", ex.reference),
        ("sequential", ex.sequential),
        ("replay", ex.replay),
    ):
        if run is None:
            continue
        if run.leaked_handles:
            out.append(
                Violation(
                    "no-leaks",
                    f"{label}: {run.leaked_handles} handles alive after close",
                )
            )
        if run.leaked_counters:
            out.append(
                Violation(
                    "no-leaks",
                    f"{label}: {run.leaked_counters} kernel counters open "
                    "after close",
                )
            )
        if run.opened_total != run.closed_total:
            out.append(
                Violation(
                    "no-leaks",
                    f"{label}: opened {run.opened_total} handles but closed "
                    f"{run.closed_total}",
                )
            )
    return out


@oracle("health-legal")
def _health_legal(ex: Execution) -> list[Violation]:
    """HEALTH labels come from the legal set and follow the lifecycle:
    'reattached' renders for at most one frame per reattach, so it can
    never appear for one tid in two consecutive frames."""
    if ex.base is None:
        return []
    out: list[Violation] = []
    for k, labels in enumerate(ex.base.health):
        for tid, label in labels.items():
            if label not in LEGAL_HEALTH:
                out.append(
                    Violation(
                        "health-legal",
                        f"frame {k} tid {tid}: illegal HEALTH {label!r}",
                    )
                )
            if (
                label == "reattached"
                and k > 0
                and ex.base.health[k - 1].get(tid) == "reattached"
            ):
                out.append(
                    Violation(
                        "health-legal",
                        f"tid {tid}: 'reattached' in consecutive frames "
                        f"{k - 1} and {k}",
                    )
                )
    return out


@oracle("expr-column-vs-scalar")
def _expr_column_vs_scalar(ex: Execution) -> list[Violation]:
    """Every derived column the sampler evaluated with
    ``Expression.evaluate_column`` must equal, task by task, the scalar
    reference ``Expression.evaluate`` over that task's deltas, bitwise
    (NaN agreeing with NaN)."""
    if ex.base is None:
        return []
    screen = get_screen(ex.scenario.screen)
    columns = [c for c in screen.columns if c.expression is not None]
    out: list[Violation] = []
    for k, frame in enumerate(ex.base.frames):
        for i in range(len(frame)):
            env: dict[str, float] = {
                canonical_name(name): float(values[i])
                for name, values in frame.deltas.items()
            }
            env["delta_t"] = frame.interval if frame.interval > 0 else math.nan
            env["cpu_pct"] = float(frame.cpu_pct[i])
            for column in columns:
                scalar = column.expression.evaluate(env)
                vector = float(frame.metrics[column.header][i])
                if not _eq(scalar, vector):
                    out.append(
                        Violation(
                            "expr-column-vs-scalar",
                            f"frame {k} tid {int(frame.tids[i])} "
                            f"{column.header}: scalar {scalar!r} != "
                            f"columnar {vector!r}",
                        )
                    )
    return out


@oracle("job-lifecycle")
def _job_lifecycle(ex: Execution) -> list[Violation]:
    """Grid jobs walk pending -> running -> done with sane timestamps,
    and wall-clock kills never fire before the queue's limit."""
    if not ex.grid:
        return []
    digest = ex.grid[ex.scenario.engines[0]]
    limits = {q.name: q.max_wallclock for q in ex.scenario.queues}
    out: list[Violation] = []
    if len(digest["jobs"]) != len(ex.scenario.jobs):
        out.append(
            Violation(
                "job-lifecycle",
                f"digest has {len(digest['jobs'])} jobs, scenario submitted "
                f"{len(ex.scenario.jobs)}",
            )
        )
    for job in digest["jobs"]:
        jid = job["job_id"]
        if job["state"] == "pending":
            if job["node"] is not None or job["started_at"] is not None:
                out.append(
                    Violation(
                        "job-lifecycle",
                        f"job {jid}: pending but already placed",
                    )
                )
            continue
        if job["started_at"] is None or job["node"] is None:
            out.append(
                Violation(
                    "job-lifecycle", f"job {jid}: running without placement"
                )
            )
            continue
        if job["started_at"] < job["submitted_at"] - 1e-9:
            out.append(
                Violation(
                    "job-lifecycle",
                    f"job {jid}: started {job['started_at']} before "
                    f"submission {job['submitted_at']}",
                )
            )
        if job["finished_at"] is not None and (
            job["finished_at"] < job["started_at"] - 1e-9
        ):
            out.append(
                Violation(
                    "job-lifecycle",
                    f"job {jid}: finished {job['finished_at']} before "
                    f"start {job['started_at']}",
                )
            )
        if job["killed"]:
            limit = limits.get(job["queue"], math.inf)
            if job["finished_at"] is None or math.isinf(limit):
                out.append(
                    Violation(
                        "job-lifecycle",
                        f"job {jid}: killed without a finite wallclock limit",
                    )
                )
            elif job["finished_at"] < job["started_at"] + limit - 1e-9:
                out.append(
                    Violation(
                        "job-lifecycle",
                        f"job {jid}: killed at {job['finished_at']}, before "
                        f"its limit {limit} elapsed",
                    )
                )
    return out


@oracle("crash-recovery")
def _crash_recovery(ex: Execution) -> list[Violation]:
    """A chaos-ridden supervised run agrees bitwise with a clean engine,
    and every observed worker failure left a recovery trace.

    This is the supervision tree's contract: SIGKILLed, hung or garbling
    workers never change *what* the grid computes — restart+replay (or
    adoption, or degrading to serial) resurrects the exact shard state —
    and the event log records how the run survived.
    """
    if not ex.scenario.grid_chaotic or "supervised" not in ex.grid:
        return []
    out: list[Violation] = []
    clean = [e for e in ex.grid if e != "supervised"]
    if clean:
        reference = clean[0]
        for diff in deep_diff(ex.grid[reference], ex.grid["supervised"]):
            out.append(
                Violation(
                    "crash-recovery",
                    f"supervised run under chaos diverges from clean "
                    f"{reference!r}: {diff}",
                )
            )
    meta = ex.grid_meta.get("supervised")
    if meta is not None:
        failures = sum(meta["stats"].get("failures", {}).values())
        recoveries = {"restart", "adopt", "degrade"}
        recovered = sum(
            1 for e in meta["events"] if e.get("event") in recoveries
        )
        if failures and not recovered:
            out.append(
                Violation(
                    "crash-recovery",
                    f"{failures} worker failures observed but the event "
                    "log records no restart/adopt/degrade",
                )
            )
    return out


@oracle("net-partition-recovery")
def _net_partition_recovery(ex: Execution) -> list[Violation]:
    """Link faults never change what the system computes.

    The split-brain contract, both places it applies:

    * Grid: the supervised engine under partitions/drops/half-opens
      must match a clean engine's digest bitwise — no epoch applied
      twice (a stale reply that slipped the fence would double-count),
      none lost (a swallowed unreachable would drop one). Every
      unreachable failure must leave a recovery trace, and a fenced
      reply can only exist where a link fault fired.
    * Serve: when the daemon cut client connections, at least one
      subscriber must actually have exercised the reconnect path (the
      digest bar itself rides on the served-stream oracle).
    """
    if not ex.scenario.net_chaotic:
        return []
    out: list[Violation] = []
    if "supervised" in ex.grid:
        clean = [e for e in ex.grid if e != "supervised"]
        if clean:
            reference = clean[0]
            for diff in deep_diff(ex.grid[reference], ex.grid["supervised"]):
                out.append(
                    Violation(
                        "net-partition-recovery",
                        f"supervised run under link faults diverges from "
                        f"clean {reference!r}: {diff}",
                    )
                )
        meta = ex.grid_meta.get("supervised")
        if meta is not None:
            stats = meta["stats"]
            unreachable = stats.get("failures", {}).get("unreachable", 0)
            recoveries = {"restart", "adopt", "degrade"}
            recovered = sum(
                1 for e in meta["events"] if e.get("event") in recoveries
            )
            if unreachable and not recovered:
                out.append(
                    Violation(
                        "net-partition-recovery",
                        f"{unreachable} unreachable failures observed but "
                        "the event log records no restart/adopt/degrade",
                    )
                )
            if stats.get("fenced_replies", 0) and not stats.get(
                "net_faults", 0
            ):
                out.append(
                    Violation(
                        "net-partition-recovery",
                        f"{stats['fenced_replies']} stale replies fenced "
                        "on a run with no injected link faults",
                    )
                )
    if ex.served is not None and ex.served.get("net_cuts", 0):
        reconnects = sum(
            c.get("reconnects", 0) for c in ex.served["clients"].values()
        )
        if not reconnects:
            out.append(
                Violation(
                    "net-partition-recovery",
                    f"daemon cut {ex.served['net_cuts']} connections but "
                    "no client reconnected (streams cannot be complete)",
                )
            )
    return out


@oracle("worker-leaks")
def _worker_leaks(ex: Execution) -> list[Violation]:
    """No grid run leaves worker processes alive after close — chaos,
    hangs and degraded runs included."""
    out: list[Violation] = []
    for engine, meta in ex.grid_meta.items():
        if meta.get("leaked_workers"):
            out.append(
                Violation(
                    "worker-leaks",
                    f"engine {engine!r}: {meta['leaked_workers']} worker "
                    "processes alive after close",
                )
            )
    if ex.grid_replay_meta is not None and ex.grid_replay_meta.get(
        "leaked_workers"
    ):
        out.append(
            Violation(
                "worker-leaks",
                f"replay run: {ex.grid_replay_meta['leaked_workers']} "
                "worker processes alive after close",
            )
        )
    return out


@oracle("admission-limits")
def _admission_limits(ex: Execution) -> list[Violation]:
    """A node never runs more jobs than logical cores (utilisation <= 1)."""
    if not ex.grid:
        return []
    out: list[Violation] = []
    for engine, digest in ex.grid.items():
        for node, load in digest["utilisation"].items():
            if not 0.0 <= load <= 1.0 + 1e-9:
                out.append(
                    Violation(
                        "admission-limits",
                        f"engine {engine!r} node {node}: utilisation {load}",
                    )
                )
    return out


# -- entry points -------------------------------------------------------------

def check(ex: Execution) -> list[Violation]:
    """Run every registered oracle over one execution."""
    violations: list[Violation] = []
    for name in sorted(ORACLES):
        violations.extend(ORACLES[name](ex))
    return violations


def check_scenario(scenario: Scenario) -> list[Violation]:
    """Execute a scenario and run all oracles (the fuzzing workhorse)."""
    return check(execute(scenario))
