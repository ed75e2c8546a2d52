"""The columnar pipeline: SnapshotFrame, vectorised exprs, lossless CSV.

Covers the frame container, the vectorised expression evaluator
(bitwise-identical to the scalar walker), the frame-backed Recorder
(series match a cell-by-cell reference, CSV round trips losslessly
including NaN cells and non-ASCII command names), and the ``--profile``
breakdown.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.app import SimHost, TipTop
from repro.core.cli import main
from repro.core.expr import Expression
from repro.core.frame import SnapshotFrame
from repro.core.options import Options
from repro.core.recorder import Recorder
from repro.core.sampler import Snapshot
from repro.core.screen import get_screen
from repro.sim.arch import NEHALEM
from repro.sim.machine import SimMachine
from repro.sim.workloads import synthetic
from tests.strategies import assert_same_frame, recordings


def make_app(procs: int = 6, *, seed: int = 3, delay: float = 2.0) -> TipTop:
    machine = SimMachine(
        NEHALEM, sockets=1, cores_per_socket=2, tick=0.25, seed=seed
    )
    for spec in synthetic.generate_specs(procs, seed=seed):
        machine.spawn(spec.name, synthetic.build(spec, NEHALEM, seed=11))
    return TipTop(SimHost(machine), Options(delay=delay), get_screen("default"))


def values_equal(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or a == b
    return a == b


class TestSnapshotFrame:
    def _snapshot(self) -> Snapshot:
        with make_app() as app:
            snapshots = list(app.snapshots(2))
        return snapshots[-1]

    def test_sampler_attaches_frame(self):
        snapshot = self._snapshot()
        assert len(snapshot.frame) == 6
        assert snapshot.time == snapshot.frame.time
        assert snapshot.interval == snapshot.frame.interval == 2.0

    def test_take_and_select(self):
        frame = self._snapshot().frame
        order = list(range(len(frame)))[::-1]
        flipped = frame.take(order)
        assert flipped.pids.tolist() == frame.pids.tolist()[::-1]
        assert flipped.comms == tuple(reversed(frame.comms))
        mask = frame.cpu_pct >= np.median(frame.cpu_pct)
        kept = frame.select(mask)
        assert len(kept) == int(mask.sum())
        assert set(kept.pids.tolist()) <= set(frame.pids.tolist())

    def test_uids_carried_from_procfs(self):
        frame = self._snapshot().frame
        assert (frame.uids >= 0).all()


class TestVectorisedExpr:
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e9), min_size=1, max_size=9
        ),
        st.lists(
            st.floats(min_value=0.0, max_value=1e9), min_size=1, max_size=9
        ),
    )
    @settings(max_examples=100)
    def test_column_matches_scalar_bitwise(self, xs, ys):
        n = min(len(xs), len(ys))
        xs, ys = xs[:n], ys[:n]
        exprs = [
            "a / b",
            "100 * a / b",
            "(a - b) / (a + b)",
            "-a * 2.5 + b / 3",
            "a / (b - b)",  # division by zero everywhere
        ]
        for text in exprs:
            expression = Expression(text)
            env = {"a": np.asarray(xs), "b": np.asarray(ys)}
            column = expression.evaluate_column(env, n)
            for i in range(n):
                scalar = expression.evaluate({"a": xs[i], "b": ys[i]})
                assert values_equal(float(column[i]), scalar)

    def test_scalar_only_expression_broadcasts(self):
        expression = Expression("3 * 2 + 1")
        assert expression.evaluate_column({}, 4).tolist() == [7.0] * 4

    def test_unknown_identifier_still_raises(self):
        from repro.errors import ExprError

        with pytest.raises(ExprError):
            Expression("nope + 1").evaluate_column({"a": np.ones(2)}, 2)


def numeric_cell(frame: SnapshotFrame, header: str, i: int):
    """One numeric cell read the slow way (None for string or absent
    columns): the reference the columnar queries must match."""
    kind = frame.column_kind(header)
    if kind == "pid":
        return int(frame.pids[i])
    if kind == "cpu":
        return float(frame.cpu_pct[i])
    if kind == "expr":
        return float(frame.metrics[header][i])
    return None


def task_intervals(recorder: Recorder, pid: int):
    """(frame, row index) of every recorded interval of ``pid``."""
    for frame in recorder.frames:
        for i, task in enumerate(frame.pids.tolist()):
            if task == pid:
                yield frame, i


class TestRecorderColumnar:
    def _recording(self) -> Recorder:
        with make_app(procs=5) as app:
            return app.run_collect(4)

    def test_series_matches_scalar_reference(self):
        recorder = self._recording()
        for pid in recorder.pids():
            for header in ("IPC", "%CPU", "PID", "COMMAND", "missing"):
                for drop_nan in (True, False):
                    times, values = recorder.series(
                        pid, header, drop_nan=drop_nan
                    )
                    ref_t, ref_v = [], []
                    for frame, i in task_intervals(recorder, pid):
                        v = numeric_cell(frame, header, i)
                        if v is None:
                            continue
                        if drop_nan and math.isnan(v):
                            continue
                        ref_t.append(frame.time)
                        ref_v.append(float(v))
                    assert times.tolist() == ref_t
                    assert [
                        values_equal(a, b)
                        for a, b in zip(values.tolist(), ref_v)
                    ] == [True] * len(ref_v)

    def test_total_delta_and_mean_match_reference(self):
        recorder = self._recording()
        pid = recorder.pids()[0]
        ref = sum(
            float(frame.deltas["instructions"][i])
            for frame, i in task_intervals(recorder, pid)
        )
        assert recorder.total_delta(pid, "instructions") == pytest.approx(ref)
        assert recorder.total_delta(pid, "no-such-event") == 0.0
        _, values = recorder.series(pid, "IPC")
        if len(values):
            assert recorder.mean(pid, "IPC") == pytest.approx(
                float(np.mean(values))
            )

    def test_series_vs_instructions_matches_reference(self):
        recorder = self._recording()
        pid = recorder.pids()[0]
        xs, ys = recorder.series_vs_instructions(pid, "IPC")
        total, ref_x, ref_y = 0.0, [], []
        for frame, i in task_intervals(recorder, pid):
            total += float(frame.deltas["instructions"][i])
            v = numeric_cell(frame, "IPC", i)
            if v is not None and not math.isnan(v):
                ref_x.append(total)
                ref_y.append(v)
        assert xs.tolist() == pytest.approx(ref_x)
        assert ys.tolist() == ref_y


_comm = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs",), blacklist_characters="\r\n"
    ),
    min_size=1,
    max_size=12,
)
_metric = st.floats(allow_nan=True, allow_infinity=True, width=64)


def recorded(frames: list[SnapshotFrame]) -> Recorder:
    recorder = Recorder()
    for frame in frames:
        recorder.record_frame(frame)
    return recorder


class TestLosslessCsv:
    @given(recordings(_comm, _metric))
    @settings(max_examples=60)
    def test_round_trip_exact(self, frames):
        back = Recorder.from_csv(recorded(frames).to_csv())
        assert len(back.frames) == len(frames)
        for original, restored in zip(frames, back.frames):
            assert_same_frame(original, restored)

    def test_full_pipeline_round_trip_is_lossless(self):
        with make_app(procs=5) as app:
            recorder = app.run_collect(3)
        back = Recorder.from_csv(recorder.to_csv())
        assert len(back.frames) == len(recorder.frames) == 3
        for mine, theirs in zip(recorder.frames, back.frames):
            assert_same_frame(mine, theirs)

    def test_nan_metric_and_unicode_comm_cells(self):
        frame = SnapshotFrame(
            time=1.5,
            interval=0.0,
            pids=np.array([7]),
            tids=np.array([7]),
            uids=np.array([-1]),
            users=("üser",),
            comms=("naïve-προ€ess",),
            cpu_pct=np.array([12.5]),
            cpu_time=np.array([0.0]),
            processors=np.array([-1]),
            deltas={"instructions": np.array([1e7])},
            metrics={"IPC": np.array([math.nan])},
            columns=(("IPC", "expr"),),
        )
        [back] = Recorder.from_csv(recorded([frame]).to_csv()).frames
        assert back.comms == ("naïve-προ€ess",)
        assert back.users == ("üser",)
        assert math.isnan(back.metrics["IPC"][0])


class TestProfileFlag:
    def test_cli_profile_prints_breakdown(self, capsys):
        assert main(["--sim", "-b", "-n", "2", "--profile"]) == 0
        err = capsys.readouterr().err
        lines = [line for line in err.splitlines() if line.startswith("profile:")]
        assert len(lines) == 2
        for line in lines:
            for field in ("advance=", "read=", "eval=", "render=", "tasks="):
                assert field in line

    def test_profile_off_by_default(self, capsys):
        assert main(["--sim", "-b", "-n", "1"]) == 0
        assert "profile:" not in capsys.readouterr().err

    def test_sampler_records_timing(self):
        with make_app() as app:
            list(app.snapshots(1))
            timing = app.sampler.last_timing
        assert timing is not None
        assert timing.tasks > 0
        assert timing.read_seconds >= 0.0
        assert timing.eval_seconds >= 0.0
