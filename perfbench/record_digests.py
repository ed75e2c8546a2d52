"""Record each workload's expected output digest for a range of seeds.

From the root of a checkout::

    python3 perfbench/record_digests.py --seeds 0-99 [--workload NAME ...]

Updates ``perfbench/digests.json``, which ``run.py`` checks every round
against. Node and serve workloads record the digest of one untraced
round; ``grid-fleet`` records the run on the in-process serial engine.
Re-record only in a change that means to alter what the program
outputs, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--workload", action="append", default=None)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
    from workloads import WORKLOADS

    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    for name in args.workload or list(WORKLOADS):
        workload = WORKLOADS[name]
        recorded = table.setdefault(name, {})
        for seed in args.seeds:
            if hasattr(workload, "reference_digest"):
                digest = workload.reference_digest(seed)
            else:
                rnd = workload.run_round(seed, None)
                if rnd.errors or rnd.failed:
                    print(f"{name} seed {seed}: {rnd.errors} failed={rnd.failed}",
                          file=sys.stderr)
                    return 1
                digest = rnd.digest
            recorded[str(seed)] = digest
            DIGESTS.write_text(json.dumps(table, indent=1) + "\n")
            print(f"{name} seed {seed}: {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
