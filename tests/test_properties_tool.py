"""Property-based tests on the tool layer (hypothesis)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batchparse import parse_blocks
from repro.core.expr import Expression
from repro.core.recorder import Recorder
from repro.errors import ExprError
from repro.sim.workload import Phase, Workload
from repro.util.tabulate import Align, ColumnFormat, render_table
from tests.strategies import assert_same_frame, recordings

# ---------------------------------------------------------------------------
# Expression fuzzing: random ASTs against a Python oracle
# ---------------------------------------------------------------------------

_leaf = st.one_of(
    st.floats(min_value=0.1, max_value=1e4).map(lambda v: f"{v:.4f}"),
    st.sampled_from(["a", "b", "c"]),
)


@st.composite
def _expr_text(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        return draw(_leaf)
    op = draw(st.sampled_from(["+", "-", "*", "/"]))
    left = draw(_expr_text(depth=depth + 1))
    right = draw(_expr_text(depth=depth + 1))
    return f"({left} {op} {right})"


@given(_expr_text(), st.floats(0.5, 100), st.floats(0.5, 100), st.floats(0.5, 100))
@settings(max_examples=200)
def test_expression_fuzz_matches_python(text, a, b, c):
    env = {"a": a, "b": b, "c": c}
    expr = Expression(text)
    got = expr.evaluate(env)
    try:
        expected = eval(text, {"__builtins__": {}}, env)  # oracle, same AST
    except ZeroDivisionError:
        assert math.isnan(got)  # our evaluator's defined behaviour
        return
    if math.isnan(got):
        return  # nested division blow-up already folded to NaN
    assert got == pytest.approx(expected, rel=1e-9)


@given(st.text(max_size=30))
@settings(max_examples=300)
def test_expression_never_crashes_unexpectedly(text):
    """Arbitrary input either parses or raises ExprError — nothing else."""
    try:
        Expression(text)
    except ExprError:
        pass


# ---------------------------------------------------------------------------
# Recorder CSV round trip
# ---------------------------------------------------------------------------

_name = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_.", min_size=1, max_size=12
)


@given(recordings(_name))
@settings(max_examples=60)
def test_recorder_csv_roundtrip(frames):
    recorder = Recorder()
    for frame in frames:
        recorder.record_frame(frame)
    back = Recorder.from_csv(recorder.to_csv())
    assert len(back.frames) == len(frames)
    for original, restored in zip(frames, back.frames):
        assert_same_frame(original, restored)


# ---------------------------------------------------------------------------
# Batch format: rendered tables always re-parse
# ---------------------------------------------------------------------------

@given(
    st.lists(
        st.tuples(
            st.integers(1, 1 << 22),          # pid
            st.floats(0, 100, allow_nan=False),  # cpu
            st.floats(0, 4, allow_nan=False),    # ipc
            _name,                             # command
        ),
        min_size=1,
        max_size=8,
    ),
    st.floats(0.1, 1e5, allow_nan=False),
)
@settings(max_examples=60)
def test_batch_blocks_always_reparse(rows, time):
    cols = [
        ColumnFormat("PID", 7),
        ColumnFormat("%CPU", 6),
        ColumnFormat("IPC", 5),
        ColumnFormat("COMMAND", 15, align=Align.LEFT, truncate=True),
    ]
    pids, cpus, ipcs, comms = zip(*rows)
    cells = [
        [str(int(v)) for v in pids],
        [f"{v:.1f}" for v in cpus],
        [f"{v:.2f}" for v in ipcs],
        list(comms),
    ]
    table = render_table(cols, [c.cells(texts) for c, texts in zip(cols, cells)])
    text = f"--- t={time:.1f}s interval=2.0s ---\n{table}\n"
    blocks = parse_blocks(text)
    assert len(blocks) == 1
    assert len(blocks[0].rows) == len(rows)
    for (pid, cpu, ipc, comm), parsed in zip(rows, blocks[0].rows):
        assert parsed.pid == pid
        assert parsed["IPC"] == pytest.approx(ipc, abs=0.0051)


# ---------------------------------------------------------------------------
# Workload.locate: total consumption is exact
# ---------------------------------------------------------------------------

@st.composite
def _workloads(draw):
    from repro.sim.cache import MemoryBehavior
    from repro.sim.isa import InstructionMix

    budgets = draw(
        st.lists(st.floats(1.0, 1e9), min_size=1, max_size=5)
    )
    repeat = draw(st.integers(1, 3))
    phases = tuple(
        Phase(
            name=f"p{i}",
            instructions=b,
            mix=InstructionMix.of(int_alu=1.0),
            memory=MemoryBehavior(working_set=64),
            noise=0.0,
        )
        for i, b in enumerate(budgets)
    )
    return Workload("w", phases, repeat=repeat)


@given(_workloads(), st.floats(0, 1.99))
@settings(max_examples=100)
def test_workload_locate_consistency(workload, fraction):
    total = workload.total_instructions
    retired = fraction * total / 2  # strictly inside the run
    located = workload.locate(retired)
    assert located is not None
    phase, remaining = located
    assert phase in workload.phases
    # locate() works to a *relative* epsilon (1e-12 of the cursor), so the
    # checks below must allow ULP-scale noise at the workload's magnitude.
    slack = 1e-9 * max(total, 1.0)
    assert 0 < remaining <= phase.instructions + slack
    # Consuming `remaining` lands on a boundary (next phase at full
    # budget), a hair short of one (same phase, sub-slack tail), or the end.
    boundary = retired + remaining
    after = workload.locate(boundary)
    if after is None:
        assert boundary >= total - slack
    else:
        next_phase, next_remaining = after
        assert (
            next_remaining >= next_phase.instructions - slack
            or (next_phase is phase and next_remaining <= slack)
        )


@given(_workloads())
def test_workload_walk_terminates_exactly(workload):
    """Walking phase-by-phase consumes exactly total_instructions."""
    retired = 0.0
    for _ in range(1000):
        located = workload.locate(retired)
        if located is None:
            break
        _, remaining = located
        retired += remaining
    else:
        pytest.fail("workload walk did not terminate")
    assert retired == pytest.approx(workload.total_instructions, rel=1e-9)
