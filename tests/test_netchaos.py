"""The seeded link-cut schedule: determinism, independence, healing.

``repro.sim.netchaos`` is the link-layer sibling of the supervisor's
``GridFaultPlan``: a frozen schedule queried as a pure function of
``(seed, link, seq, attempt)``. These tests pin the contract the serve
daemon builds on — byte-stable replay, per-link independence (the crc32
double-hash), the attempt axis as the heal schedule, and the validation
surface.
"""

from __future__ import annotations

import pickle

import pytest

from repro.errors import ConfigError
from repro.sim.netchaos import (
    NET_FAULT_KINDS,
    NetChaosPlan,
    NetFaultSpec,
    default_net_specs,
)


# -- determinism --------------------------------------------------------------

def test_same_seed_same_schedule():
    a = NetChaosPlan.from_seed(17, intensity=4.0)
    b = NetChaosPlan.from_seed(17, intensity=4.0)
    grid = [(link, epoch, attempt)
            for link in range(8) for epoch in range(32) for attempt in (0, 1)]
    assert [a.cut(*g) for g in grid] == [b.cut(*g) for g in grid]


def test_different_seeds_diverge():
    a = NetChaosPlan.from_seed(1, intensity=4.0)
    b = NetChaosPlan.from_seed(2, intensity=4.0)
    grid = [(link, epoch, 0) for link in range(8) for epoch in range(64)]
    assert [a.cut(*g) for g in grid] != [b.cut(*g) for g in grid]


def test_plan_is_frozen_and_picklable():
    plan = NetChaosPlan.from_seed(9, intensity=2.0)
    clone = pickle.loads(pickle.dumps(plan))
    grid = [(link, epoch, 0) for link in range(4) for epoch in range(32)]
    assert [clone.cut(*g) for g in grid] == [plan.cut(*g) for g in grid]
    with pytest.raises(Exception):
        plan.seed = 10  # type: ignore[misc]


# -- per-link independence ----------------------------------------------------

def test_adjacent_links_are_decorrelated():
    """crc32 is linear, so a single-character key difference (adjacent
    link ids) must not produce correlated draws — the double-hash
    regression. Joint fire rate across two links should be close to the
    product of the marginals, not to the marginals themselves."""
    plan = NetChaosPlan.from_seed(17, intensity=4.0)
    epochs = range(2000)
    fires0 = [plan.cut(0, e, 0) for e in epochs]
    fires1 = [plan.cut(1, e, 0) for e in epochs]
    p0 = sum(fires0) / len(epochs)
    p1 = sum(fires1) / len(epochs)
    joint = sum(a and b for a, b in zip(fires0, fires1)) / len(epochs)
    # The stock mix at 4x cuts ~0.38 of first attempts; independence
    # puts the joint near p0*p1. Full correlation would put it near min(p0, p1).
    assert abs(joint - p0 * p1) < 0.05
    assert joint < 0.75 * min(p0, p1)


def test_link_schedules_do_not_shift_each_other():
    """Fault decisions on link 0 are identical whether or not link 1 is
    being queried (stateless plan: no cross-link coupling at all)."""
    plan = NetChaosPlan.from_seed(5, intensity=4.0)
    solo = [plan.cut(0, e, 0) for e in range(64)]
    for e in range(64):
        plan.cut(1, e, 0)  # interleaved traffic on another link
    assert [plan.cut(0, e, 0) for e in range(64)] == solo


# -- the attempt axis is the heal schedule ------------------------------------

def test_duration_controls_healing():
    plan = NetChaosPlan(
        seed=0,
        specs=(NetFaultSpec("partition", at_epochs=frozenset({3}),
                            duration=2),),
    )
    assert plan.cut(0, 3, 0)
    assert plan.cut(0, 3, 1)
    assert not plan.cut(0, 3, 2)  # healed after 2 attempts
    assert not plan.cut(0, 4, 0)  # other seqs untouched


def test_drop_is_a_one_attempt_partition():
    plan = NetChaosPlan(
        seed=0, specs=(NetFaultSpec("drop", at_epochs=frozenset({1})),)
    )
    assert plan.cut(7, 1, 0)
    assert not plan.cut(7, 1, 1)


# -- targeting ----------------------------------------------------------------

def test_link_restriction():
    plan = NetChaosPlan(
        seed=0,
        specs=(NetFaultSpec("half_open", at_epochs=frozenset({0}), link=2),),
    )
    assert plan.cut(2, 0, 0)
    assert not plan.cut(0, 0, 0)
    assert not plan.cut(3, 0, 0)


def test_at_epochs_overrides_rate_draw():
    """An exact-seq drop beats a rate-1.0 two-attempt partition: the
    drop's one-attempt duration decides, so the retry is not cut."""
    plan = NetChaosPlan(
        seed=123,
        specs=(
            NetFaultSpec("drop", at_epochs=frozenset({4})),
            NetFaultSpec("partition", rate=1.0, duration=2),
        ),
    )
    assert plan.cut(0, 4, 0)
    assert not plan.cut(0, 4, 1)
    assert plan.cut(0, 5, 1)  # elsewhere the partition still holds


# -- the serve layer's view ---------------------------------------------------

def test_cut_kinds_sever_streams_and_others_do_not():
    """Every fault kind severs the stream; a link with nothing scheduled
    is never cut."""
    for kind in NET_FAULT_KINDS:
        spec = NetFaultSpec(kind, at_epochs=frozenset({0}))
        plan = NetChaosPlan(seed=0, specs=(spec,))
        assert plan.cut(0, 0, 0), kind
        assert not plan.cut(0, 1, 0), kind
    quiet = NetChaosPlan(seed=0, specs=())
    assert not quiet.cut(0, 0, 0)


# -- validation ---------------------------------------------------------------

def test_unknown_kind_rejected():
    """A stream can be cut, not duplicated or delayed."""
    for kind in ("gremlin", "duplicate", "delay"):
        with pytest.raises(ConfigError, match="unknown net fault kind"):
            NetFaultSpec(kind)


def test_rate_bounds():
    with pytest.raises(ConfigError, match="rate"):
        NetFaultSpec("drop", rate=1.5)
    with pytest.raises(ConfigError, match="rate"):
        NetFaultSpec("drop", rate=-0.1)


def test_duration_and_link_validation():
    with pytest.raises(ConfigError, match="duration"):
        NetFaultSpec("partition", duration=0)
    with pytest.raises(ConfigError, match="link"):
        NetFaultSpec("drop", link=-1)


def test_rates_partition_one_uniform_draw():
    with pytest.raises(ConfigError, match="> 1"):
        NetChaosPlan(
            seed=0,
            specs=(
                NetFaultSpec("drop", rate=0.6),
                NetFaultSpec("partition", rate=0.6),
            ),
        )


def test_default_specs_cap_keeps_total_under_one():
    for intensity in (1.0, 4.0, 100.0):
        specs = default_net_specs(intensity)
        assert sum(s.rate for s in specs) <= 1.0 + 1e-9
    # The cap binds at the fuzzer's top intensity; it is part of the
    # schedule.
    assert [s.rate for s in default_net_specs(6.0)] == [
        1.0 / 6, 1.0 / 6, 0.12, 0.09
    ]
    with pytest.raises(ConfigError, match="intensity"):
        default_net_specs(-1.0)
