"""The three fault schedules, frozen.

Kernel faults (:class:`~repro.perf.faults.FaultPlan`), worker faults
(:class:`~repro.sim.supervisor.GridFaultPlan`) and link cuts
(:class:`~repro.sim.netchaos.NetChaosPlan`) are seeded schedules: every
chaos replay, corpus scenario and CLI chaos golden depends on each plan
deciding exactly as it did when it was recorded. Each case hashes one
plan's decisions over a fixed query grid and compares the hash with the
value recorded for it:

* the stock mix at seeds 0-5 and the intensities the CLI and the
  scenario generator use (kernel 0.5, 1, 2; worker 1, 2, 4, 8; link 1,
  2, 4, 6);
* one hand-built plan per layer with exact indices and targets.

A refactor of the shared draw must leave every hash unchanged. A change
that moves a schedule on purpose records the new hash and says why.
"""

import hashlib

import pytest

from repro.perf.faults import OPS, FaultPlan, FaultSpec
from repro.sim.netchaos import NetChaosPlan, NetFaultSpec
from repro.sim.supervisor import GridFaultPlan, GridFaultSpec

SEEDS = range(6)
TIDS = (1, 2, 3, 40)
TARGETS = range(4)
INDICES = range(100)
RETRIES = range(3)


def _hash(decisions: list) -> str:
    return hashlib.sha256(repr(decisions).encode()).hexdigest()[:16]


def _kernel(plan: FaultPlan) -> list:
    # Calls interleave over tasks and ops; each (tid, op) sees its own
    # index sequence, and at_calls count each op's calls globally.
    return [
        plan.decide(op, tid) for _ in range(50) for tid in TIDS for op in OPS
    ]


def _worker(plan: GridFaultPlan) -> list:
    return [
        plan.decide(w, e, i) for w in TARGETS for e in INDICES for i in RETRIES
    ]


def _link(plan: NetChaosPlan) -> list:
    return [
        plan.cut(link, seq, a) for link in TARGETS for seq in INDICES
        for a in RETRIES
    ]


def _stock_kernel() -> list:
    return [
        d
        for seed in SEEDS
        for intensity in (0.5, 1.0, 2.0)
        for d in _kernel(FaultPlan.from_seed(seed, intensity))
    ]


def _stock_worker() -> list:
    return [
        d
        for seed in SEEDS
        for intensity in (1.0, 2.0, 4.0, 8.0)
        for d in _worker(GridFaultPlan.from_seed(seed, intensity))
    ]


def _stock_link() -> list:
    return [
        d
        for seed in SEEDS
        for intensity in (1.0, 2.0, 4.0, 6.0)
        for d in _link(NetChaosPlan.from_seed(seed, intensity))
    ]


def _built_kernel() -> list:
    plan = FaultPlan(
        11,
        [
            FaultSpec("open", "emfile", at_calls=frozenset({2, 5})),
            FaultSpec("*", "eintr", 0.1),
            FaultSpec("read", "starve", 0.3),
            FaultSpec("read", "corrupt", at_calls=frozenset({7, 30})),
            FaultSpec("close", "esrch", 0.5),
        ],
    )
    return _kernel(plan)


def _built_worker() -> list:
    plan = GridFaultPlan(
        5,
        (
            GridFaultSpec("crash", at_epochs=frozenset({3, 9}), worker=1),
            GridFaultSpec("hang", at_epochs=frozenset({4}), persistent=True),
            GridFaultSpec("garble", rate=0.2, worker=2),
            GridFaultSpec("crash", rate=0.1),
        ),
    )
    return _worker(plan)


def _built_link() -> list:
    plan = NetChaosPlan(
        5,
        (
            NetFaultSpec("drop", at_epochs=frozenset({3, 9}), link=1),
            NetFaultSpec("partition", at_epochs=frozenset({4}), duration=3),
            NetFaultSpec("reorder", rate=0.2, link=2),
            NetFaultSpec("half_open", rate=0.1, duration=2),
        ),
    )
    return _link(plan)


FROZEN = {
    "kernel-stock": (_stock_kernel, "d755fa7a5553cc4c"),
    "kernel-built": (_built_kernel, "0ba9abab02252a1e"),
    "worker-stock": (_stock_worker, "d26f0e55c7b77348"),
    "worker-built": (_built_worker, "2d90ed12ec33f656"),
    "link-stock": (_stock_link, "77a1a8481b93c7e5"),
    "link-built": (_built_link, "c53f1f7b48d9c56a"),
}


@pytest.mark.parametrize("case", sorted(FROZEN))
def test_schedule_is_frozen(case):
    decide, frozen = FROZEN[case]
    decisions = decide()
    # A grid that never fires (or always fires) would freeze nothing.
    assert any(decisions) and not all(decisions)
    assert _hash(decisions) == frozen
