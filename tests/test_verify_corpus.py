"""Replay the committed scenario corpus through every oracle.

``tests/corpus/*.json`` holds curated scenarios pinning the interesting
regimes the fuzzer only hits probabilistically: fault storms, fd
exhaustion, multiplexing pressure, per-thread churn, mixed permissions,
mid-run deaths, read starvation, grid queueing and worker-process engines.
The PR-gating CI job replays exactly this corpus; the nightly job fuzzes
fresh seeds on top.
"""

from pathlib import Path

import pytest

from repro.verify import check, execute
from repro.verify.scenario import Scenario

CORPUS_DIR = Path(__file__).parent / "corpus"
CORPUS = sorted(CORPUS_DIR.glob("*.json"))


def _name(path: Path) -> str:
    return path.stem


def test_corpus_is_present():
    assert len(CORPUS) >= 10


@pytest.mark.parametrize("path", CORPUS, ids=_name)
def test_corpus_round_trips(path):
    """Committed files are canonical ``to_json`` output — reparsing and
    reserialising reproduces the file byte for byte."""
    text = path.read_text()
    scenario = Scenario.from_json(text)
    assert scenario.to_json() + "\n" == text


@pytest.mark.parametrize("path", CORPUS, ids=_name)
def test_corpus_passes_all_oracles(path):
    scenario = Scenario.from_json(path.read_text())
    ex = execute(scenario)
    violations = check(ex)
    assert violations == [], "\n".join(
        f"[{v.oracle}] {v.message}" for v in violations
    )
    if scenario.kind == "tool":
        # The monitor's host advances on the kernel alone, and the
        # reference run never touches it.
        assert ex.base.kernel_stats["fast_slices"] > 0
        assert ex.base.kernel_stats["fallback_slices"] == 0
        assert ex.reference.kernel_stats["fast_slices"] == 0


def test_corpus_covers_both_kinds():
    kinds = {Scenario.from_json(p.read_text()).kind for p in CORPUS}
    assert kinds == {"tool", "grid"}


def test_corpus_covers_chaos_and_quiet():
    chaotic = [Scenario.from_json(p.read_text()).chaotic for p in CORPUS]
    assert any(chaotic) and not all(chaotic)
