"""Run one benchmark workload and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload node-monitor --seed 1 \\
        --seconds 25 --trace 0 [--out perfbench/results]

The workload's inputs are made from ``--seed``. Rounds (set up, then a
fixed number of refreshes) repeat for about ``--seconds``; every round
must reproduce the digest recorded for the seed, or, for a seed with no
recorded digest, the digest of every other round (and, on the grid, of
the same run on the serial engine). The last line of standard output is
one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
span installed. With ``--trace 1`` untraced and traced rounds alternate;
the metrics are the per-layer ones from the traced rounds, including the
tracing overhead (traced minus untraced loop time) and the share of the
loop the spans cover. ``--out DIR`` also writes the full result — raw
samples and provenance — as one JSON file, for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"

#: The paper's own overhead figures (§2.5), printed next to ours.
PAPER_25 = "paper §2.5: 0.7 % perturbation, < 0.06 % CPU"


def commit() -> str:
    """The checked-out commit, read from ``.git`` (no subprocess)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy

    return {
        "commit": commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "started": time.time(),
    }


#: Untraced refreshes a full-length run (``FULL_RUN_S`` or longer)
#: collects at least, so that its 95th percentile has ten samples beyond.
MIN_REFRESHES = 200
FULL_RUN_S = 20


def measure(workload, seed: int, seconds: float, trace: bool) -> list:
    """Rounds until the next one would end past ``seconds``.

    One round at least; with ``trace`` two at least, alternating an
    untraced round with a traced one. A full-length untraced run also
    keeps going until it has :data:`MIN_REFRESHES` refreshes.
    """
    from spans import Tracer

    rounds = []
    refreshes = 0
    start = time.perf_counter()
    while True:
        if trace and len(rounds) % 2 == 1:
            with Tracer(samples=("grid.advance",)) as tracer:
                workload.install(tracer)
                rounds.append(workload.run_round(seed, tracer))
        else:
            rounds.append(workload.run_round(seed, None))
            refreshes += len(rounds[-1].refresh_s)
        elapsed = time.perf_counter() - start
        enough = len(rounds) >= (2 if trace else 1) and (
            trace or seconds < FULL_RUN_S or refreshes >= MIN_REFRESHES
        )
        if enough and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def tail_quantile(n: int) -> float:
    """95 %, or the highest quantile with at least ten samples beyond it."""
    return min(0.95, max(0.5, 1.0 - 10.0 / n))


def end_to_end(workload, rounds: list) -> tuple[dict, dict]:
    """End-to-end metrics over the untraced rounds, plus raw samples."""
    from workloads import percentile

    plain = [r for r in rounds if not r.traced]
    refresh = [x for r in plain for x in r.refresh_s]
    deliver = [x for r in plain for x in r.deliver_s]
    cpu = [x for r in plain for x in r.cpu_s]
    loop = sum(r.loop_s for r in plain)
    sim = sum(r.sim_s for r in plain)
    metrics = {
        "setup_s": statistics.median(r.setup_s for r in plain),
        "refresh_p50_ms": 1e3 * percentile(refresh, 0.50),
        "refresh_p95_ms": 1e3 * percentile(refresh, tail_quantile(len(refresh))),
        # CPU seconds per refresh as a share of a 1 s refresh period.
        "tool_cpu_pct_1hz": 100.0 * statistics.median(cpu),
        "sim_task_ticks_per_s": (
            sum(r.task_ticks for r in plain) / sum(r.advance_s for r in plain)
        ),
        "sim_s_per_s": sim / loop,
        "deliver_p50_ms": 1e3 * percentile(deliver, 0.50),
        "deliver_p95_ms": 1e3 * percentile(deliver, tail_quantile(len(deliver))),
        "grid_node_s_per_s": workload.nodes * sim / loop,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {
        "setup_s": [r.setup_s for r in plain],
        "raw_setup_s": [r.raw_setup_s for r in plain],
        "refresh_ms": [1e3 * x for x in refresh],
        "raw_refresh_ms": [1e3 * x for r in plain for x in r.raw_refresh_s],
        "slowdown": [x for r in plain for x in r.slowdown],
        "deliver_ms": [1e3 * x for x in deliver],
        "cpu_ms": [1e3 * x for x in cpu],
        "tail_quantile_refresh": tail_quantile(len(refresh)),
        "tail_quantile_deliver": tail_quantile(len(deliver)),
    }
    return metrics, samples


def per_layer(rounds: list) -> dict:
    """Medians of the traced rounds' layer metrics, plus trace overhead."""
    from workloads import PER_LAYER

    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    metrics = {
        name: statistics.median(r.layers.get(name, 0.0) for r in traced)
        for name in PER_LAYER
    }

    def loop_per_refresh(group: list) -> float:
        return statistics.median(r.loop_s / len(r.refresh_s) for r in group)

    metrics["trace.overhead_pct"] = 100.0 * (
        loop_per_refresh(traced) / loop_per_refresh(plain) - 1.0
    )
    return metrics


def check(workload, seed: int, rounds: list) -> tuple[bool, str, str, list]:
    """Whether every round reproduced the expected digest."""
    errors = [e for r in rounds for e in r.errors]
    digests = sorted({r.digest for r in rounds})
    if len(digests) != 1:
        errors.append(f"rounds disagree: {digests}")
    recorded = {}
    if DIGESTS.is_file():
        recorded = json.loads(DIGESTS.read_text()).get(workload.name, {})
    expected = recorded.get(str(seed))
    source = "recorded"
    if expected is None and hasattr(workload, "reference_digest"):
        expected, source = workload.reference_digest(seed), "serial engine"
    if expected is None:
        expected, source = digests[0], "unrecorded seed: rounds only"
    if digests[0] != expected:
        errors.append(f"digest {digests[0]} != {source} {expected}")
    return not errors, digests[0], source, errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for the full result file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    for path in (str(HERE), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from workloads import END_TO_END, PER_LAYER, WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(have: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2

    info = provenance(args.workload, args.seed, args.seconds, args.trace)
    rounds = measure(workload, args.seed, args.seconds, bool(args.trace))
    correct, digest, source, errors = check(workload, args.seed, rounds)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    e2e, samples = end_to_end(workload, rounds)
    if args.trace:
        values, units = per_layer(rounds), PER_LAYER
    else:
        values, units = e2e, END_TO_END

    print(f"perfbench {args.workload} seed={args.seed} rounds={len(rounds)} "
          f"traced={sum(r.traced for r in rounds)} digest={digest} ({source})")
    for error in errors:
        print(f"  ERROR {error}")
    print(f"  attempted={attempted} failed={failed} "
          f"fail_ratio={failed / max(1, attempted):g}")
    for name, value in values.items():
        note = f"   ({PAPER_25})" if name == "tool_cpu_pct_1hz" else ""
        print(f"  {name:28s} {value:14.6g} {units[name]}{note}")

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        result = {
            "provenance": info,
            "correct": correct,
            "digest": digest,
            "digest_source": source,
            "errors": errors,
            "attempted": attempted,
            "failed": failed,
            "fail_ratio": failed / max(1, attempted),
            "rounds": len(rounds),
            "metrics": e2e,
            "layers": per_layer(rounds) if args.trace else {},
            "samples": samples,
        }
        name = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                f"{time.time_ns()}.json")
        (args.out / name).write_text(json.dumps(result, indent=1) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
