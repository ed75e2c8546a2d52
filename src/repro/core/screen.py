"""Screen definitions: named sets of columns plus the counters they need.

The default screen reproduces Figure 1 exactly:
``PID USER %CPU Mcycle Minst IPC DMIS COMMAND``. Further built-in screens
cover the paper's other use cases — the FP-assist column added in §3.1, the
L1/L2/L3 cache view of §3.4 (Fig. 11), a branch view, an instruction-mix
view for the §2.6 characterisation rates and a memory-latency view.

Every screen, built-in or custom, is built by :func:`screen_from_config`
from a plain dict (the equivalent of tiptop's XML configuration file)
whose columns name :mod:`repro.core.metrics` entries or give an inline
expression. :func:`get_screen` is the one name-to-screen lookup.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.columns import (
    COMMAND_COLUMN,
    CPU_COLUMN,
    HEALTH_COLUMN,
    Column,
    ColumnKind,
    PID_COLUMN,
    USER_COLUMN,
    expr_column,
)
from repro.core.expr import BUILTIN_VARIABLES, canonical_name
from repro.core.metrics import METRICS
from repro.errors import ConfigError
from repro.perf.events import EventSpec, event_names, resolve_event


@dataclass(frozen=True)
class Screen:
    """A named column layout.

    Attributes:
        name: screen name for selection (-S option equivalent).
        description: one-liner shown in help.
        columns: the column tuple, in display order.
    """

    name: str
    description: str
    columns: tuple[Column, ...]

    def with_columns(self, *extra: Column) -> "Screen":
        """This screen plus ``extra`` columns appended (headers must be new).

        Raises:
            ConfigError: when an extra column duplicates an existing header.
        """
        have = {c.header for c in self.columns}
        for column in extra:
            if column.header in have:
                raise ConfigError(
                    f"screen {self.name!r} already has column "
                    f"{column.header!r}"
                )
            have.add(column.header)
        return Screen(
            name=self.name,
            description=self.description,
            columns=(*self.columns, *extra),
        )

    def with_health(self) -> "Screen":
        """This screen with the HEALTH lifecycle column (chaos mode),
        appended unless it already shows one."""
        if any(c.kind is ColumnKind.HEALTH for c in self.columns):
            return self
        return self.with_columns(HEALTH_COLUMN)

    def required_events(self) -> list[EventSpec]:
        """Counter events this screen's expressions reference, resolved.

        Raises:
            ConfigError: for an identifier that is neither a built-in
                variable nor a known event.
        """
        known = {canonical_name(n): n for n in event_names()}
        needed: dict[str, EventSpec] = {}
        for column in self.columns:
            for var in sorted(column.variables()):
                if var in BUILTIN_VARIABLES:
                    continue
                if var not in known:
                    raise ConfigError(
                        f"screen {self.name!r}: column {column.header!r} uses "
                        f"unknown identifier {var!r}"
                    )
                spec = resolve_event(known[var])
                needed[spec.name] = spec
        return list(needed.values())


#: The built-in screens, in the ``-W`` screen-file format: each column
#: names a :data:`~repro.core.metrics.METRICS` entry.
BUILTIN_CONFIGS: tuple[dict, ...] = (
    # Fig. 1's layout: the out-of-the-box tiptop view.
    {
        "name": "default",
        "description": "cycles, instructions, IPC and LLC misses (Figure 1)",
        "columns": ["Mcycle", "Minst", "IPC", "DMIS"],
    },
    # §3.1: "We added a new column to tiptop in order to trace
    # simultaneously IPC and FP assist events."
    {
        "name": "fpassist",
        "description": "IPC plus micro-code FP assists per 100 instructions (§3.1)",
        "columns": ["IPC", "ASSIST", "UPI"],
    },
    # §3.4 / Fig. 11: per-level cache misses per 100 instructions.
    {
        "name": "cache",
        "description": "per-level cache misses per 100 instructions (Fig. 11)",
        "columns": ["IPC", "L1MIS", "L2MIS", "L3MIS"],
    },
    {
        "name": "branch",
        "description": "branch density and misprediction ratio",
        "columns": ["IPC", "BPI", "%MISP"],
    },
    # §2.6's application-characterisation rates. DMIS adds memory traffic:
    # together with FPC it is the roofline placement input (§2.6's
    # processor-selection use).
    {
        "name": "mix",
        "description": "instruction-mix rates of §2.6 (FPI, LPI, BPI, FPC, LPC)",
        "columns": ["IPC", "FPI", "LPI", "BPI", "FPC", "LPC", "DMIS"],
    },
    # §3.4's outlook implemented: average memory latency per task, the
    # signal for DRAM-level contention that LLC miss counts alone cannot
    # show.
    {
        "name": "latency",
        "description": "average memory-access latency (detects DRAM contention, §3.4)",
        "columns": ["IPC", "DMIS", "MEMLAT"],
    },
)


def screens(extra: Sequence[Screen] = ()) -> list[Screen]:
    """Every selectable screen: the built-ins, then ``extra``'s new names.

    A screen in ``extra`` (e.g. loaded with ``-W``) replaces the built-in
    of the same name in place.
    """
    table = dict(_BUILTINS)
    table.update((screen.name, screen) for screen in extra)
    return list(table.values())


def builtin_screens() -> list[Screen]:
    """All built-in screens."""
    return screens()


def get_screen(name: str, extra: Sequence[Screen] = ()) -> Screen:
    """Look up a screen by name: ``extra`` first, then the built-ins.

    Raises:
        ConfigError: unknown screen name.
    """
    for screen in extra:
        if screen.name == name:
            return screen
    try:
        return _BUILTINS[name]
    except KeyError as exc:
        raise ConfigError(
            f"unknown screen {name!r} (have: {[s.name for s in screens(extra)]})"
        ) from exc


def _json_int(entry: dict, key: str, default: int) -> int:
    value = entry.get(key, default)
    # bool is an int subclass, but ``"width": true`` is not a width.
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"column {entry!r}: {key} must be an integer")
    return value


def _config_column(entry: object) -> Column:
    """One screen-file column: a catalogue name or an inline dict."""
    if isinstance(entry, str):
        try:
            return METRICS[entry].column()
        except KeyError as exc:
            raise ConfigError(
                f"unknown metric {entry!r}; catalogue: {sorted(METRICS)}"
            ) from exc
    try:
        header = entry["header"]
        text = entry["expr"]
    except (TypeError, KeyError) as exc:
        raise ConfigError(f"bad column entry {entry!r}: {exc}") from exc
    if not isinstance(header, str) or not isinstance(text, str):
        raise ConfigError(f"column {entry!r}: header and expr must be strings")
    return expr_column(
        header,
        text,
        width=_json_int(entry, "width", 8),
        decimals=_json_int(entry, "decimals", 2),
    )


def screen_from_config(config: dict) -> Screen:
    """Build a custom screen from a plain dict.

    The equivalent of tiptop's XML screen configuration::

        screen_from_config({
            "name": "mine",
            "description": "my view",
            "columns": [
                "IPC",
                {"header": "L1/L3", "expr": "l1d_misses / l3_misses",
                 "width": 6, "decimals": 1},
            ],
        })

    A column is either the name of a :data:`~repro.core.metrics.METRICS`
    entry or an inline ``{"header", "expr", "width", "decimals"}`` dict
    (width 8 and 2 decimals unless given). Intrinsic PID/USER/%CPU/COMMAND
    columns are added around the derived ones automatically unless
    ``"bare": True``.

    Raises:
        ConfigError: missing keys or malformed column entries.
    """
    try:
        name = config["name"]
        entries = config["columns"]
    except KeyError as exc:
        raise ConfigError(f"screen config missing key {exc}") from exc
    if not isinstance(entries, (list, tuple)) or not entries:
        raise ConfigError("screen config needs a non-empty 'columns' list")
    derived = [_config_column(entry) for entry in entries]
    if config.get("bare"):
        columns = tuple(derived)
    else:
        columns = (PID_COLUMN, USER_COLUMN, CPU_COLUMN, *derived, COMMAND_COLUMN)
    screen = Screen(
        name=name,
        description=config.get("description", "custom screen"),
        columns=columns,
    )
    screen.required_events()  # validate identifiers eagerly
    return screen


_BUILTINS: dict[str, Screen] = {
    screen.name: screen for screen in map(screen_from_config, BUILTIN_CONFIGS)
}
