"""The metric catalogue and column definitions."""

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
from repro.core.metrics import METRICS
from repro.core.screen import screen_from_config
from repro.errors import ConfigError


def _value(name, env):
    return METRICS[name].column().expression.evaluate(env)


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
        "l1d_misses": 40.0,
        "l2_misses": 30.0,
        "l3_misses": 20.0,
        "uops_executed": 1300.0,
        "mem_latency_cycles": 1800.0,
        "delta_t": 2.0,
    }

    def test_ipc(self):
        assert _value("IPC", self.ENV) == 0.5

    def test_dmis(self):
        assert _value("DMIS", self.ENV) == 0.9

    def test_miss_ratio(self):
        assert _value("MISS_RATIO", self.ENV) == 10.0

    def test_branch_metrics(self):
        assert _value("BMIS", self.ENV) == 0.4
        assert _value("%MISP", self.ENV) == 2.0

    def test_fp_assist(self):
        assert _value("ASSIST", self.ENV) == 12.0

    def test_characterisation_rates(self):
        assert _value("FPI", self.ENV) == 0.1
        assert _value("LPI", self.ENV) == 0.25
        assert _value("BPI", self.ENV) == 0.2
        assert _value("FPC", self.ENV) == 0.05
        assert _value("LPC", self.ENV) == 0.125

    def test_unknown_metric(self):
        with pytest.raises(ConfigError, match="unknown metric 'WARP_FACTOR'"):
            screen_from_config({"name": "x", "columns": ["WARP_FACTOR"]})

    def test_all_metrics_evaluate(self):
        for name in METRICS:
            value = _value(name, self.ENV)
            assert isinstance(value, float)
            assert not math.isnan(value)

    def test_empty_interval_gives_nan(self):
        env = dict.fromkeys(self.ENV, 0.0)
        assert math.isnan(_value("IPC", env))

    def test_column_carries_layout(self):
        column = METRICS["Mcycle"].column()
        assert (column.header, column.width, column.decimals) == ("Mcycle", 9, 0)
        assert column.expression.text == "cycles / 1000000"


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
        assert col.cells([math.nan, 1.0]) == ["       -", "    1.00"]

    def test_format_decimals(self):
        col = expr_column("IPC", "a", decimals=1)
        assert col.cells([1.966]) == ["     2.0"]

    def test_command_truncates(self):
        fmt = COMMAND_COLUMN.to_format()
        assert fmt.cells(["a-very-long-command-name"]) == ["a-very-long-com"]
