"""Cell execution: one (config, workload, seed) point, two harnesses.

Every harness builds a fresh simulated machine seeded with the cell's
seed and advances it with :meth:`~repro.sim.machine.SimMachine.run_for`,
so a cell's metrics are a pure function of the cell — the property the
byte-identical-artifact tests pin.

* ``counters`` — raw :class:`~repro.perf.counter.Counter` objects on a
  :class:`~repro.perf.simbackend.SimBackend`: counting vs sampling,
  multiplexing and tick-size ablations live here.
* ``tool`` — the full tiptop application recording through a
  :class:`~repro.core.recorder.Recorder`: refresh-period and
  thread-vs-process ablations, phase-transition detection.
"""

from __future__ import annotations

import math
from dataclasses import replace

from repro.core.app import SimHost, TipTop
from repro.core.options import Options
from repro.core.phases import pid_metric_series
from repro.core.recorder import Recorder
from repro.core.screen import get_screen
from repro.perf.counter import Counter
from repro.perf.events import event_names, resolve_event
from repro.perf.simbackend import SimBackend
from repro.sim.arch import ArchModel, get_arch
from repro.sim.machine import SimMachine
from repro.sim.workload import Workload

from repro.experiments import library
from repro.experiments.matrix import Cell
from repro.experiments.spec import CellConfig

#: The portable always-on set (the perf generic events §2.3 leans on).
DEFAULT_EVENTS = (
    "instructions",
    "cycles",
    "cache-references",
    "cache-misses",
    "branch-instructions",
    "branch-misses",
)

#: Snapshot cap for span=0 (run to completion) tool cells.
MAX_SNAPSHOTS = 50_000


def _percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default), pure Python so
    artifact floats never depend on array dtypes."""
    s = sorted(values)
    if len(s) == 1:
        return float(s[0])
    pos = (len(s) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    frac = pos - lo
    return float(s[lo] * (1.0 - frac) + s[hi] * frac)


def _series_summary(prefix: str, values: list[float]) -> dict[str, float]:
    return {
        f"{prefix}_mean": float(sum(values) / len(values)),
        f"{prefix}_p50": _percentile(values, 50.0),
        f"{prefix}_p95": _percentile(values, 95.0),
    }


def _event_list(cfg: CellConfig, arch: ArchModel) -> list[str]:
    if cfg.events is None:
        return list(DEFAULT_EVENTS)
    if isinstance(cfg.events, tuple):
        return [resolve_event(n, arch).name for n in cfg.events]
    supported = [
        n for n in event_names()
        if arch.supports_event(resolve_event(n).sim_event)
    ]
    supported.remove("instructions")
    supported.insert(0, "instructions")
    return supported[: cfg.events]


def _materialise(cell: Cell) -> Workload:
    workload = library.resolve(cell.workload)
    if cell.config.noise is None:
        return workload
    return Workload(
        name=workload.name,
        phases=tuple(replace(p, noise=cell.config.noise) for p in workload.phases),
        repeat=workload.repeat,
    )


def _machine(cell: Cell) -> SimMachine:
    cfg = cell.config
    return SimMachine(
        get_arch(cfg.arch),
        sockets=cfg.sockets,
        cores_per_socket=cfg.cores_per_socket,
        tick=cfg.tick,
        seed=cell.seed,
    )


def _spawn_copies(machine: SimMachine, cell: Cell, workload: Workload) -> list:
    cfg = cell.config
    n_pus = len(machine.topology.pus)
    procs = []
    for i in range(cfg.copies):
        name = workload.name if cfg.copies == 1 else f"{workload.name}-{i}"
        procs.append(
            machine.spawn(
                name,
                workload,
                nthreads=cfg.nthreads,
                duty_cycle=cfg.duty_cycle,
                affinity={i % n_pus} if cfg.pin else None,
            )
        )
    return procs


def _intervals(cfg: CellConfig) -> int:
    return max(1, math.ceil(cfg.span / cfg.delay - 1e-9))


def _run_counters(cell: Cell, workload: Workload) -> dict:
    cfg = cell.config
    machine = _machine(cell)
    procs = _spawn_copies(machine, cell, workload)
    backend = SimBackend(machine)
    names = _event_list(cfg, machine.arch)
    counters = {
        p.pid: {n: Counter(backend, resolve_event(n), p.pid) for n in names}
        for p in procs
    }
    sampled = (
        {
            p.pid: Counter(
                backend,
                resolve_event("instructions"),
                p.pid,
                sample_period=cfg.sample_period,
            )
            for p in procs
        }
        if cfg.sample_period
        else {}
    )
    if cfg.warmup:
        machine.run_for(cfg.warmup)
    for row in counters.values():
        for counter in row.values():
            counter.delta()  # baseline after warmup
    for counter in sampled.values():
        counter.delta()
    truth_base = {p.pid: sum(t.retired for t in p.threads) for p in procs}

    n = _intervals(cfg)
    totals = dict.fromkeys(names, 0.0)
    ipc_series: list[float] = []
    for _ in range(n):
        machine.run_for(cfg.delay)
        interval_ipcs = []
        for p in procs:
            deltas = {name: counters[p.pid][name].delta() for name in names}
            for name, d in deltas.items():
                totals[name] += d
            if deltas.get("cycles"):
                interval_ipcs.append(deltas["instructions"] / deltas["cycles"])
        if interval_ipcs:
            ipc_series.append(sum(interval_ipcs) / len(interval_ipcs))

    truth = sum(
        sum(t.retired for t in p.threads) - truth_base[p.pid] for p in procs
    )
    metrics: dict = {
        "intervals": n,
        "span": n * cfg.delay,
        "events": {name: float(totals[name]) for name in names},
        "instructions_true": float(truth),
    }
    counted = totals.get("instructions", 0.0)
    if truth:
        metrics["count_rel_err"] = abs(counted - truth) / truth
    if ipc_series:
        metrics.update(_series_summary("ipc", ipc_series))
    if totals.get("cache-references"):
        metrics["cache_miss_ratio"] = (
            totals.get("cache-misses", 0.0) / totals["cache-references"]
        )
    if totals.get("branch-instructions"):
        metrics["branch_miss_ratio"] = (
            totals.get("branch-misses", 0.0) / totals["branch-instructions"]
        )
    if sampled:
        estimate = sum(counter.delta() for counter in sampled.values())
        metrics["sampled_instructions"] = float(estimate)
        if counted:
            metrics["sampling_rel_err"] = abs(estimate - counted) / counted
    return metrics


def _run_tool(cell: Cell, workload: Workload) -> dict:
    cfg = cell.config
    machine = _machine(cell)
    procs = _spawn_copies(machine, cell, workload)
    if cfg.warmup:
        machine.run_for(cfg.warmup)
    app = TipTop(
        SimHost(machine),
        Options(delay=cfg.delay, per_thread=cfg.per_thread),
        get_screen(cfg.screen),
    )
    limit = _intervals(cfg) if cfg.span else MAX_SNAPSHOTS
    recorder = Recorder()
    with app:
        for i, snapshot in enumerate(app.snapshots()):
            if i > 0:
                recorder.record(snapshot)
            if i >= limit:
                break
            if not cfg.span and not procs[0].alive:
                break

    frames = recorder.frames
    metrics: dict = {
        "rows": sum(len(f) for f in frames),
        "tasks_observed": len(recorder.pids()),
        # A left-to-right Python sum over task-intervals in record order
        # (not np.sum's pairwise one): the goldens freeze its rounding.
        "instructions": float(
            sum(
                delta
                for f in frames
                if "instructions" in f.deltas
                for delta in f.deltas["instructions"].tolist()
            )
        ),
    }
    series = pid_metric_series(recorder, procs[0].pid, "IPC")
    values = [float(y) for y in series.y if not math.isnan(y)]
    if values:
        metrics.update(_series_summary("ipc", values))
    if cfg.detect_transitions:
        from repro.analysis.phase_detect import transition_points

        cuts = transition_points(series, window=4, threshold=0.5)
        metrics["transition_s"] = float(series.x[cuts[0]]) if cuts else None
    return metrics


_HARNESSES = {
    "counters": _run_counters,
    "tool": _run_tool,
}


def run_cell(cell: Cell) -> dict:
    """Execute one cell; returns its (JSON-clean) metrics dict."""
    workload = _materialise(cell)
    return _HARNESSES[cell.config.harness](cell, workload)
