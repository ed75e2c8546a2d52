"""The benchmark's own checks.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

Each workload runs one short round untraced and a pair of rounds with
tracing, so the whole file takes about a minute.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import compare  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

SEED = 3


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_short_run_prints_every_end_to_end_metric(name, capsys):
    assert run.main(
        ["--workload", name, "--seed", str(SEED), "--seconds", "1"]
    ) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tracing_changes_no_output_and_restores_callables(name):
    workload = WORKLOADS[name]
    probe = Tracer()
    workload.install(probe)
    patched = list(probe._patches)
    probe.restore()

    rounds = run.measure(workload, SEED, 1, trace=True)

    for owner, attr, original in patched:
        assert _current(owner, attr) is original, f"{owner}.{attr} still wrapped"
    plain, traced = rounds[0], rounds[1]
    assert not plain.traced and traced.traced
    assert not plain.errors and not traced.errors
    assert plain.digest == traced.digest
    correct, _, _, errors = run.check(workload, SEED, rounds)
    assert correct, errors
    # Self times never add up to more than the wall time they ran in,
    # and the spans cover at least 90 % of the timed loop.
    assert traced.span_self_s <= traced.raw_loop_s
    assert traced.span_root_s >= 0.9 * traced.raw_loop_s
    layers = run.per_layer(rounds)
    assert set(layers) == set(PER_LAYER)
    assert layers["trace.coverage_pct"] >= 90.0


def test_spans_nest_into_self_time():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
    outer, inner = tracer.stats["outer"], tracer.stats["inner"]
    assert outer.total >= inner.total
    assert abs(outer.self + inner.self - outer.total) < 1e-9
    assert tracer.root_time == outer.total
    assert tracer.self_total() <= tracer.root_time + 1e-12


@pytest.mark.parametrize(
    ("base", "new", "better", "expected"),
    [
        ([10.0] * 10, [8.0] * 10, "lower", "better"),
        ([10.0] * 10, [12.0] * 10, "lower", "worse"),
        ([10.0] * 10, [10.2] * 10, "lower", "within"),
        ([10.0] * 10, [9.5] * 10, "higher", "within"),
        ([10.0] * 10, [8.0] * 10, "higher", "worse"),
        ([5.0, 15.0] * 5, [10.0] * 10, "lower", "unresolved"),
    ],
)
def test_compare_verdicts(base, new, better, expected):
    assert compare.verdict(base, new, 0.1, better) == expected
