"""Command-line front end: ``python -m repro.verify``.

Two modes:

* ``--fuzz N`` generates N fresh seeded scenarios, runs every oracle
  over each, and on failure shrinks the scenario and writes a replay
  artifact to ``--artifact-dir``. Exits non-zero if any seed failed.
* ``--replay FILE`` re-executes a previously written artifact and
  reports whether its violations still reproduce (exit 1 if they do,
  2 if FILE cannot be loaded).
"""

from __future__ import annotations

import argparse
import sys
import time
from collections.abc import Sequence

from repro.errors import ConfigError
from repro.verify.oracles import check_scenario
from repro.verify.scenario import generate
from repro.verify.shrink import replay_artifact, shrink, write_artifact


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.verify",
        description=(
            "Differential conformance harness: fuzz seeded scenarios "
            "through the oracle registry, shrink failures to replay "
            "artifacts."
        ),
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--fuzz",
        type=int,
        metavar="N",
        help="generate and check N seeded scenarios",
    )
    mode.add_argument(
        "--replay",
        metavar="FILE",
        help="re-execute a repro-<hash>.json artifact",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="first seed of the fuzz range (default 0)",
    )
    parser.add_argument(
        "--artifact-dir",
        default="verify",
        help="directory for shrunk replay artifacts (default: verify/)",
    )
    parser.add_argument(
        "--time-box",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop fuzzing early after this many seconds",
    )
    parser.add_argument(
        "--max-shrink-evals",
        type=int,
        default=200,
        help="cap on candidate executions while shrinking (default 200)",
    )
    return parser


def _fuzz(args: argparse.Namespace) -> int:
    started = time.monotonic()
    failures = 0
    checked = 0
    for seed in range(args.seed, args.seed + args.fuzz):
        if (
            args.time_box is not None
            and time.monotonic() - started > args.time_box
        ):
            print(
                f"time box reached after {checked}/{args.fuzz} seeds",
                file=sys.stderr,
            )
            break
        scenario = generate(seed)
        violations = check_scenario(scenario)
        checked += 1
        if not violations:
            continue
        failures += 1
        print(f"seed {seed}: {len(violations)} violation(s)", file=sys.stderr)
        for v in violations[:5]:
            print(f"  [{v.oracle}] {v.message}", file=sys.stderr)
        small = shrink(scenario, max_evals=args.max_shrink_evals)
        final = check_scenario(small)
        path = write_artifact(small, final or violations, args.artifact_dir)
        print(
            f"  shrunk {len(scenario.tasks) + len(scenario.jobs)} -> "
            f"{len(small.tasks) + len(small.jobs)} work items; "
            f"artifact: {path}",
            file=sys.stderr,
        )
    print(f"{checked} scenario(s) checked, {failures} failing")
    return 1 if failures else 0


def _replay(args: argparse.Namespace) -> int:
    try:
        scenario, recorded, current = replay_artifact(args.replay)
    except ConfigError as exc:
        # Exit 1 already means "the violations reproduce".
        print(f"repro.verify: cannot replay {args.replay}: {exc}",
              file=sys.stderr)
        return 2
    print(
        f"scenario {scenario.digest()} (kind={scenario.kind}, "
        f"seed={scenario.seed}): {len(recorded)} recorded violation(s), "
        f"{len(current)} on replay"
    )
    for v in current:
        print(f"  [{v.oracle}] {v.message}")
    if current:
        return 1
    if recorded:
        print("recorded violations no longer reproduce (bug fixed?)")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.replay is not None:
        return _replay(args)
    return _fuzz(args)
