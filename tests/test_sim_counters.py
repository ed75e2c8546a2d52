"""Kernel counter table: accrual, enabled/running time, multiplexing."""

import pytest

from repro.errors import CounterStateError
from repro.sim.counters import CounterTable
from repro.sim.events import Event
from tests.strategies import lanes


@pytest.fixture
def table():
    return CounterTable(pmu_width=4)


class TestOpenClose:
    def test_open_returns_distinct_handles(self, table):
        a = table.open(Event.CYCLES, 1, 0)
        b = table.open(Event.INSTRUCTIONS, 1, 0)
        assert a.counter_id != b.counter_id
        assert table.open_count() == 2

    def test_get_unknown_raises(self, table):
        with pytest.raises(CounterStateError):
            table.get(12345)

    def test_close_releases(self, table):
        c = table.open(Event.CYCLES, 1, 0)
        table.close(c.counter_id)
        assert table.open_count() == 0
        with pytest.raises(CounterStateError):
            table.get(c.counter_id)

    def test_read_closed_raises(self, table):
        c = table.open(Event.CYCLES, 1, 0)
        table.close(c.counter_id)
        with pytest.raises(CounterStateError):
            c.reading()

    def test_bad_width(self):
        with pytest.raises(CounterStateError):
            CounterTable(0)

    def test_last_close_leaves_only_the_rotation_phase(self, table):
        """Churn must not grow the table: once a tid's last counter
        closes, only its multiplex rotation phase remains (a reattached
        task resumes its window from it), and a tid without counters is
        never cached."""
        for tid in range(100, 140):
            opened = [table.open(e, tid, 0) for e in (Event.CYCLES, Event.LOADS)]
            table.tid_slots(tid)
            for counter in opened:
                table.close(counter.counter_id)
        table.tid_slots(999)
        assert table._by_tid == {}
        assert table._tid_cache == {}
        assert set(table._rotation) == set(range(100, 140))


class TestAccrual:
    def test_scheduled_accrues_value_and_times(self, table):
        c = table.open(Event.CYCLES, 1, 0)
        table.accrue(1, lanes({Event.CYCLES: 100.0}), wall_dt=1.0, scheduled_dt=1.0, alive=True)
        value, enabled, running = c.reading()
        assert value == 100
        assert enabled == 1.0
        assert running == 1.0

    def test_unscheduled_advances_enabled_only(self, table):
        c = table.open(Event.CYCLES, 1, 0)
        table.accrue(1, None, wall_dt=1.0, scheduled_dt=0.0, alive=True)
        value, enabled, running = c.reading()
        assert value == 0
        assert enabled == 1.0
        assert running == 0.0

    def test_disabled_counter_frozen(self, table):
        c = table.open(Event.CYCLES, 1, 0)
        c.enabled = False
        table.accrue(1, lanes({Event.CYCLES: 50.0}), wall_dt=1.0, scheduled_dt=1.0, alive=True)
        assert c.reading() == (0, 0.0, 0.0)

    def test_dead_task_frozen(self, table):
        c = table.open(Event.CYCLES, 1, 0)
        table.accrue(1, lanes({Event.CYCLES: 50.0}), wall_dt=1.0, scheduled_dt=1.0, alive=False)
        assert c.reading() == (0, 0.0, 0.0)

    def test_accrue_unmonitored_tid_is_noop(self, table):
        table.accrue(999, lanes({Event.CYCLES: 1.0}), wall_dt=1.0, scheduled_dt=1.0, alive=True)

    def test_only_matching_event_accrues(self, table):
        c = table.open(Event.CYCLES, 1, 0)
        i = table.open(Event.INSTRUCTIONS, 1, 0)
        table.accrue(
            1,
            lanes({Event.CYCLES: 10.0, Event.INSTRUCTIONS: 30.0}),
            wall_dt=1.0,
            scheduled_dt=1.0,
            alive=True,
        )
        assert c.reading()[0] == 10
        assert i.reading()[0] == 30


class TestMultiplexing:
    def test_within_width_all_run(self, table):
        counters = [
            table.open(e, 1, 0)
            for e in (Event.CYCLES, Event.INSTRUCTIONS, Event.CACHE_MISSES)
        ]
        table.accrue(1, lanes({e.event: 1.0 for e in counters}), wall_dt=1.0,
                     scheduled_dt=1.0, alive=True)
        for c in counters:
            assert c.reading()[2] == 1.0  # time_running == scheduled

    def test_over_width_rotates(self, table):
        events = [
            Event.CYCLES,
            Event.INSTRUCTIONS,
            Event.CACHE_MISSES,
            Event.CACHE_REFERENCES,
            Event.BRANCH_MISSES,
            Event.BRANCH_INSTRUCTIONS,
        ]
        counters = [table.open(e, 1, 0) for e in events]
        ticks = 60
        for _ in range(ticks):
            table.accrue(1, lanes({e: 1.0 for e in events}), wall_dt=1.0,
                         scheduled_dt=1.0, alive=True)
        for c in counters:
            value, enabled, running = c.reading()
            assert enabled == ticks
            assert running < ticks  # multiplexed off part of the time
            # Scaling recovers the true count within rotation granularity.
            scaled = value * enabled / running
            assert scaled == pytest.approx(ticks, rel=0.1)

    def test_rotation_is_fair(self, table):
        events = [
            Event.CYCLES,
            Event.INSTRUCTIONS,
            Event.CACHE_MISSES,
            Event.CACHE_REFERENCES,
            Event.BRANCH_MISSES,
            Event.BRANCH_INSTRUCTIONS,
            Event.BUS_CYCLES,
            Event.LOADS,
        ]
        counters = [table.open(e, 1, 0) for e in events]
        for _ in range(80):
            table.accrue(1, lanes({e: 1.0 for e in events}), wall_dt=1.0,
                         scheduled_dt=1.0, alive=True)
        runnings = [c.reading()[2] for c in counters]
        assert max(runnings) - min(runnings) <= 2.0


class TestCounterColumns:
    """Slot allocator behind the table: grow, recycle, detach-on-close."""

    def test_slots_recycle_after_close(self, table):
        a = table.open(Event.CYCLES, 1, 0)
        slot = a._slot
        table.close(a.counter_id)
        b = table.open(Event.LOADS, 2, 0)
        assert b._slot == slot  # freed slot reused
        assert b.value == 0.0 and b.time_enabled == 0.0

    def test_closed_counter_keeps_final_state_despite_recycling(self, table):
        a = table.open(Event.CYCLES, 1, 0)
        table.accrue(1, lanes({Event.CYCLES: 42.0}), wall_dt=1.0, scheduled_dt=1.0,
                     alive=True)
        table.close(a.counter_id)
        b = table.open(Event.LOADS, 2, 0)  # recycles a's slot
        table.accrue(2, lanes({Event.LOADS: 7.0}), wall_dt=0.5, scheduled_dt=0.5,
                     alive=True)
        # The detached handle still exposes its final values; reading()
        # raises (closed), but the columns behind it are private now.
        assert a.value == 42.0
        assert a.time_enabled == 1.0
        assert b.value == 7.0

    def test_capacity_grows_geometrically(self, table):
        start = table.columns.capacity
        opened = [table.open(Event.CYCLES, i, 0) for i in range(start + 1)]
        assert table.columns.capacity == start * 2
        assert table.columns.live_slots() == start + 1
        for c in opened:
            table.close(c.counter_id)
        assert table.columns.live_slots() == 0

    def test_version_moves_on_population_and_enable_changes(self, table):
        v0 = table.columns.version
        c = table.open(Event.CYCLES, 1, 0)
        assert table.columns.version > v0
        v1 = table.columns.version
        c.enabled = False
        assert table.columns.version > v1
        v2 = table.columns.version
        c.enabled = False  # no-op toggle must not thrash the caches
        assert table.columns.version == v2

    def test_double_free_rejected(self, table):
        from repro.errors import SimulationError
        from repro.sim.columns import CounterColumns

        cols = CounterColumns(capacity=2)
        slot = cols.alloc()
        cols.free(slot)
        with pytest.raises(SimulationError):
            cols.free(slot)
