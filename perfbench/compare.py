"""Compare two sets of benchmark results, metric by metric.

From the root of a checkout::

    python3 perfbench/compare.py BASE NEW

``BASE`` and ``NEW`` are directories (or single files) of results written
by ``run.py --out``; runs are paired in the order they started. For each
workload and end-to-end metric the report gives each side's median and
quartiles, the metric's bound from ``BENCHMARK.json``, and a verdict:

* ``better``: NEW wins at least nine tenths of the pairs, ties counting
  for neither, and the medians differ by more than BASE's own spread
  (the distance between its quartiles);
* ``unresolved``: either side's spread, as a share of its median, is
  wider than the bound, and not every NEW run reads better than every
  BASE run;
* ``worse``: NEW's median is worse than BASE's by more than the bound;
* ``within``: otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], new: list[float], bound: float, better: str) -> str:
    """The choosing-metrics rule for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    if pairs and wins >= 0.9 * len(pairs) and sign * (nm - bm) > b3 - b1:
        return "better"
    spread = max((b3 - b1) / abs(bm), (n3 - n1) / abs(nm))
    all_better = min(sign * n for n in new) > max(sign * b for b in base)
    if spread > bound and not all_better:
        return "unresolved"
    if sign * (bm - nm) / abs(bm) > bound:
        return "worse"
    return "within"


def load(path: Path) -> dict[str, list[dict]]:
    """Untraced results by workload, in the order the runs started."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    results = [json.loads(f.read_text()) for f in files]
    by_workload: dict[str, list[dict]] = {}
    for result in sorted(results, key=lambda r: r["provenance"]["started"]):
        if result["provenance"]["trace"]:
            continue
        by_workload.setdefault(result["provenance"]["workload"], []).append(result)
    return by_workload


def compare(base: dict, new: dict, spec: dict) -> list[dict]:
    rows = []
    for workload in spec["workloads"]:
        name = workload["name"]
        if name not in base or name not in new:
            continue
        for metric in spec["end_to_end"]:
            key = metric["name"]
            b = [r["metrics"][key] for r in base[name]]
            n = [r["metrics"][key] for r in new[name]]
            rows.append({
                "workload": name,
                "metric": key,
                "unit": metric["unit"],
                "base": quartiles(b),
                "new": quartiles(n),
                "bound": metric["bound"],
                "verdict": verdict(b, n, metric["bound"], metric["better"]),
                "runs": (len(b), len(n)),
            })
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--benchmark", type=Path,
                        default=HERE.parent / "BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads(args.benchmark.read_text())
    rows = compare(load(args.base), load(args.new), spec)
    if not rows:
        print("perfbench compare: no workload has results on both sides",
              file=sys.stderr)
        return 2
    print(f"{'workload':15s} {'metric':22s} {'base q1/median/q3':>32s} "
          f"{'new q1/median/q3':>32s} {'bound':>6s} runs   verdict")
    for row in rows:
        base = "/".join(f"{v:.4g}" for v in row["base"])
        new = "/".join(f"{v:.4g}" for v in row["new"])
        print(f"{row['workload']:15s} {row['metric']:22s} {base:>32s} "
              f"{new:>32s} {row['bound']:6.2f} {row['runs'][0]}/{row['runs'][1]}"
              f"   {row['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
