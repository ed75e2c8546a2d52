"""Property-based tests (hypothesis) on core invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.expr import Expression
from repro.sim import NEHALEM
from repro.sim.cache import MemoryBehavior, hit_ratio, miss_chain
from repro.sim.counters import CounterTable
from repro.sim.events import Event
from repro.sim.isa import InstructionMix
from tests.strategies import lanes

# ---------------------------------------------------------------------------
# Cache model invariants
# ---------------------------------------------------------------------------

_capacity = st.floats(min_value=1.0, max_value=1e10)
_ws = st.floats(min_value=0.0, max_value=1e12)
_theta = st.floats(min_value=0.01, max_value=2.0)


@given(_capacity, _ws, _theta)
def test_hit_ratio_in_unit_interval(capacity, ws, theta):
    h = hit_ratio(capacity, ws, theta)
    assert 0.0 <= h <= 1.0


@given(
    st.lists(_capacity, min_size=2, max_size=2).map(sorted),
    _ws,
    _theta,
)
def test_hit_ratio_monotone_in_capacity(caps, ws, theta):
    assert hit_ratio(caps[0], ws, theta) <= hit_ratio(caps[1], ws, theta) + 1e-12


_behavior = st.builds(
    MemoryBehavior,
    working_set=st.integers(min_value=0, max_value=1 << 34),
    locality=st.floats(min_value=0.1, max_value=3.0),
    streaming=st.floats(min_value=0.0, max_value=1.0),
    mlp=st.floats(min_value=0.5, max_value=8.0),
)

_shares = st.lists(
    st.floats(min_value=0.05, max_value=1.0), min_size=3, max_size=3
)


@given(_behavior, st.floats(min_value=0.0, max_value=1.0), _shares)
def test_miss_chain_conservation(behavior, refs, shares):
    """At every level: 0 <= misses <= accesses; accesses chain downward."""
    levels = [
        (spec, spec.size * share)
        for spec, share in zip(NEHALEM.cache_levels, shares)
    ]
    p = miss_chain(behavior, refs, levels)
    assert len(p.accesses) == len(levels)
    for acc, miss in zip(p.accesses, p.misses):
        assert -1e-12 <= miss <= acc + 1e-9
    for i in range(1, len(levels)):
        assert p.accesses[i] == pytest.approx(p.misses[i - 1])
    # Misses are non-increasing outward (inclusion).
    for i in range(1, len(p.misses)):
        assert p.misses[i] <= p.misses[i - 1] + 1e-9


@given(_behavior, st.floats(min_value=0.1, max_value=1.0))
def test_miss_chain_contention_never_helps(behavior, share):
    """Shrinking every level's capacity never reduces misses."""
    full = miss_chain(
        behavior, 0.3, [(s, float(s.size)) for s in NEHALEM.cache_levels]
    )
    contended = miss_chain(
        behavior, 0.3, [(s, s.size * share) for s in NEHALEM.cache_levels]
    )
    for a, b in zip(contended.misses, full.misses):
        assert a >= b - 1e-9


# ---------------------------------------------------------------------------
# Instruction mix invariants
# ---------------------------------------------------------------------------

@st.composite
def _mixes(draw):
    raw = draw(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=5, max_size=5)
    )
    total = sum(raw)
    if total <= 0:
        raw = [1.0, 0, 0, 0, 0]
        total = 1.0
    f = [x / total for x in raw]
    return InstructionMix.of(
        int_alu=f[0], load=f[1], store=f[2], branch=f[3], fp_sse=f[4]
    )


@given(_mixes())
def test_mix_rates_bounded(mix):
    assert 0 <= mix.mem_refs <= 1
    assert 0 <= mix.fp_ops <= 1
    assert mix.fp_ops == pytest.approx(mix.x87_ops + mix.sse_ops)


@given(_mixes(), _mixes(), st.floats(min_value=0.0, max_value=1.0))
def test_mix_blend_stays_normalised(a, b, w):
    blended = a.scaled_toward(b, w)
    assert sum(blended.fractions.values()) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Counter table invariants
# ---------------------------------------------------------------------------

@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=40),
)
@settings(max_examples=40)
def test_counter_scaling_recovers_truth(width, n_events, ticks):
    """value * enabled/running approximates the true count under any
    PMU width and rotation schedule."""
    table = CounterTable(pmu_width=width)
    events = list(Event)[:n_events]
    counters = [table.open(e, 1, 0) for e in events]
    for _ in range(ticks):
        table.accrue(
            1, lanes({e: 1.0 for e in events}), wall_dt=1.0, scheduled_dt=1.0,
            alive=True,
        )
    for c in counters:
        value, enabled, running = c.reading()
        assert enabled == pytest.approx(ticks)
        assert running <= enabled + 1e-9
        if running > 0:
            scaled = value * enabled / running
            # Rotation granularity bounds the error by one full window pass.
            assert scaled == pytest.approx(ticks, abs=max(2.0, n_events / width))


# ---------------------------------------------------------------------------
# Expression evaluator vs Python eval oracle
# ---------------------------------------------------------------------------

_small_float = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@given(_small_float, _small_float, _small_float)
def test_expression_matches_python(a, b, c):
    env = {"a": a, "b": b, "c": c}
    expr = Expression("a * b + c - a / (b + 1000001)")
    expected = a * b + c - a / (b + 1000001)
    assert expr.evaluate(env) == pytest.approx(expected, rel=1e-9, abs=1e-9)
