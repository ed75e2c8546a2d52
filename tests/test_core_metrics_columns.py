"""Canonical metrics and column definitions."""

import math

import pytest

from repro.core.columns import (
    COMMAND_COLUMN,
    Column,
    ColumnKind,
    PID_COLUMN,
    expr_column,
)
from repro.core.expr import Expression
from repro.core.metrics import METRICS, get_metric
from repro.errors import ConfigError


class TestMetrics:
    ENV = {
        "instructions": 1000.0,
        "cycles": 2000.0,
        "cache_misses": 9.0,
        "cache_references": 90.0,
        "branch_misses": 4.0,
        "branch_instructions": 200.0,
        "fp_assist": 120.0,
        "fp_operations": 100.0,
        "loads": 250.0,
        "l2_misses": 30.0,
        "l3_misses": 20.0,
        "uops_executed": 1300.0,
        "mem_latency_cycles": 1800.0,
        "delta_t": 2.0,
    }

    def test_ipc(self):
        assert get_metric("IPC").compute(self.ENV) == 0.5

    def test_dmis(self):
        assert get_metric("DMIS").compute(self.ENV) == 0.9

    def test_miss_ratio(self):
        assert get_metric("MISS_RATIO").compute(self.ENV) == 10.0

    def test_branch_metrics(self):
        assert get_metric("BMIS").compute(self.ENV) == 0.4
        assert get_metric("BMISPRED").compute(self.ENV) == 2.0

    def test_fp_assist(self):
        assert get_metric("FP_ASSIST").compute(self.ENV) == 12.0

    def test_characterisation_rates(self):
        assert get_metric("FPI").compute(self.ENV) == 0.1
        assert get_metric("LPI").compute(self.ENV) == 0.25
        assert get_metric("BPI").compute(self.ENV) == 0.2
        assert get_metric("FPC").compute(self.ENV) == 0.05
        assert get_metric("LPC").compute(self.ENV) == 0.125

    def test_case_insensitive_lookup(self):
        assert get_metric("ipc") is METRICS["IPC"]

    def test_unknown_metric(self):
        with pytest.raises(KeyError):
            get_metric("WARP_FACTOR")

    def test_all_metrics_evaluate(self):
        for metric in METRICS.values():
            value = metric.compute(self.ENV)
            assert isinstance(value, float)
            assert not math.isnan(value)

    def test_empty_interval_gives_nan(self):
        env = dict.fromkeys(self.ENV, 0.0)
        assert math.isnan(get_metric("IPC").compute(env))


class TestColumns:
    def test_expr_column_variables(self):
        col = expr_column("IPC", "instructions / cycles")
        assert col.variables() == frozenset({"instructions", "cycles"})

    def test_intrinsic_has_no_variables(self):
        assert PID_COLUMN.variables() == frozenset()

    def test_expr_column_needs_expression(self):
        with pytest.raises(ConfigError):
            Column("X", ColumnKind.EXPR)

    def test_intrinsic_column_takes_no_expression(self):
        with pytest.raises(ConfigError, match="only with it"):
            Column("X", ColumnKind.PID, expression=Expression("a / b"))

    def test_positive_width(self):
        with pytest.raises(ConfigError):
            Column("X", ColumnKind.PID, width=0)

    def test_format_renders_nan_as_dash(self):
        col = expr_column("IPC", "a / b")
        assert col.to_format().render(math.nan) == "-"

    def test_format_decimals(self):
        col = expr_column("IPC", "a", decimals=1)
        assert col.to_format().render(1.966) == "2.0"

    def test_command_truncates(self):
        fmt = COMMAND_COLUMN.to_format()
        assert fmt.format_cell("a-very-long-command-name") == "a-very-long-com"
