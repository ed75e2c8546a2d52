"""Declarative experiment specs: what to sweep, loaded from TOML/JSON.

A spec names an experiment and declares a full factorial sweep:
``configs x workloads x seeds``. Each *config* is a named bundle of
harness knobs; ``[defaults]`` supplies values shared by every config.
The same schema loads from ``.toml`` (via :mod:`tomllib`) or ``.json``.

Example (TOML)::

    name = "ablation-refresh-period"
    title = "Refresh period vs phase-boundary resolution"
    seeds = [12]
    workloads = ["revolve-original/20"]

    [defaults]
    harness = "tool"
    span = 0            # run until the job exits
    detect_transitions = true

    [[configs]]
    name = "delay-1"
    delay = 1.0

    [[configs]]
    name = "delay-5"
    delay = 5.0

Every key is validated here — unknown keys, wrong types and
out-of-range values raise :class:`~repro.errors.ExperimentError`
(exit status 2 from the CLI) before any cell runs.
"""

from __future__ import annotations

import json
import math
import re
import tomllib
from dataclasses import dataclass, fields
from pathlib import Path

from repro.errors import ExperimentError
from repro.sim.arch import get_arch

from repro.experiments import library

_NAME_RE = re.compile(r"^[a-z0-9][a-z0-9._-]*$")

#: The three execution harnesses (see :mod:`repro.experiments.executor`).
HARNESSES = ("counters", "tool", "grid")


@dataclass(frozen=True)
class CellConfig:
    """One fully resolved config row (defaults already merged in).

    Attributes:
        name: config label, unique within the spec.
        harness: ``"counters"`` (SimBackend + Counter loop), ``"tool"``
            (the full tiptop app + Recorder) or ``"grid"`` (batch
            submission through :class:`~repro.sim.grid.Grid`).
        arch: architecture model name (``get_arch``).
        tick: scheduler tick in simulated seconds.
        sockets / cores_per_socket: machine shape (counters/tool) or
            per-node shape (grid).
        span: simulated seconds to run. ``0`` means "until the first
            process exits" (tool harness only).
        warmup: seconds advanced before the measured window.
        delay: sampling interval in seconds (counters/tool).
        copies: processes spawned (or grid jobs submitted).
        nthreads: threads per process.
        per_thread: tool harness counts threads separately (inherit off).
        pin: pin copy *i* to PU *i* (counters/tool).
        duty_cycle: runnable fraction per process.
        sample_period: when set, adds an interrupt-sampled instructions
            counter next to the counted one (the §2.5 ablation).
        events: ``None`` for the standard six-event set, an integer *N*
            for the first N supported events (multiplexing sweeps), or an
            explicit list of event names.
        noise: when set, overrides every phase's noise level.
        screen: tool-harness screen name.
        detect_transitions: tool harness reports the first detected
            IPC transition point.
        engine / workers / transport: grid execution engine selection.
        nodes: grid node count.
        queue: grid submission queue.
    """

    name: str
    harness: str = "counters"
    arch: str = "nehalem"
    tick: float = 0.5
    sockets: int = 1
    cores_per_socket: int = 4
    span: float = 30.0
    warmup: float = 0.0
    delay: float = 5.0
    copies: int = 1
    nthreads: int = 1
    per_thread: bool = False
    pin: bool = False
    duty_cycle: float = 1.0
    sample_period: int | None = None
    events: int | tuple[str, ...] | None = None
    noise: float | None = None
    screen: str = "default"
    detect_transitions: bool = False
    engine: str | None = None
    workers: int = 1
    transport: str | None = None
    nodes: int = 2
    queue: str = "day-8g-asap"


@dataclass(frozen=True)
class ExperimentSpec:
    """One validated experiment: the sweep axes and their settings."""

    name: str
    title: str
    seeds: tuple[int, ...]
    workloads: tuple[str, ...]
    configs: tuple[CellConfig, ...]
    source: str = ""  # where this spec was loaded from, for reports

    def to_dict(self) -> dict:
        """A JSON-clean rendering embedded in artifacts."""
        return {
            "name": self.name,
            "title": self.title,
            "seeds": list(self.seeds),
            "workloads": list(self.workloads),
            "configs": [
                {
                    f.name: (
                        list(v) if isinstance(v := getattr(c, f.name), tuple) else v
                    )
                    for f in fields(CellConfig)
                }
                for c in self.configs
            ],
        }


_FLOAT_KEYS = {"tick", "span", "warmup", "delay", "duty_cycle", "noise"}
_INT_KEYS = {"sockets", "cores_per_socket", "copies", "nthreads",
             "sample_period", "workers", "nodes"}
_BOOL_KEYS = {"per_thread", "pin", "detect_transitions"}
_STR_KEYS = {"name", "harness", "arch", "screen", "queue"}
_OPT_STR_KEYS = {"engine", "transport"}
_CONFIG_KEYS = (
    _FLOAT_KEYS | _INT_KEYS | _BOOL_KEYS | _STR_KEYS | _OPT_STR_KEYS | {"events"}
)
_OPTIONAL = {"sample_period", "noise", "events", "engine", "transport"}


def _fail(msg: str) -> None:
    raise ExperimentError(msg)


def _coerce(key: str, value):
    if key in _OPTIONAL and value is None:
        return None
    if key in _BOOL_KEYS:
        if not isinstance(value, bool):
            _fail(f"config key {key!r} must be a boolean, got {value!r}")
        return value
    if key in _INT_KEYS:
        if isinstance(value, bool) or not isinstance(value, int):
            _fail(f"config key {key!r} must be an integer, got {value!r}")
        return value
    if key in _FLOAT_KEYS:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            _fail(f"config key {key!r} must be a number, got {value!r}")
        value = float(value)
        if math.isnan(value) or math.isinf(value):
            _fail(f"config key {key!r} must be finite, got {value!r}")
        return value
    if key in _STR_KEYS or key in _OPT_STR_KEYS:
        if not isinstance(value, str):
            _fail(f"config key {key!r} must be a string, got {value!r}")
        return value
    if key == "events":
        if isinstance(value, bool):
            _fail(f"config key 'events' must be an int or list, got {value!r}")
        if isinstance(value, int):
            return value
        if isinstance(value, list) and all(isinstance(v, str) for v in value):
            return tuple(value)
        _fail(f"config key 'events' must be an int or a list of names, got {value!r}")
    raise AssertionError(f"unhandled key {key}")  # pragma: no cover


def _validate_config(cfg: CellConfig) -> None:
    where = f"config {cfg.name!r}"
    if not _NAME_RE.match(cfg.name):
        _fail(f"config name {cfg.name!r} must match {_NAME_RE.pattern}")
    if cfg.harness not in HARNESSES:
        _fail(f"{where}: harness must be one of {HARNESSES}, got {cfg.harness!r}")
    try:
        get_arch(cfg.arch)
    except Exception as exc:
        _fail(f"{where}: unknown arch {cfg.arch!r} ({exc})")
    if cfg.tick <= 0:
        _fail(f"{where}: tick must be positive")
    if cfg.span < 0:
        _fail(f"{where}: span must be >= 0")
    if cfg.span == 0 and cfg.harness != "tool":
        _fail(f"{where}: span=0 (run to completion) only works with the tool harness")
    if cfg.warmup < 0:
        _fail(f"{where}: warmup must be >= 0")
    if cfg.delay <= 0:
        _fail(f"{where}: delay must be positive")
    if cfg.sockets < 1 or cfg.cores_per_socket < 1:
        _fail(f"{where}: machine shape must be at least 1x1")
    if cfg.copies < 1:
        _fail(f"{where}: copies must be >= 1")
    if cfg.nthreads < 1:
        _fail(f"{where}: nthreads must be >= 1")
    if not 0 < cfg.duty_cycle <= 1:
        _fail(f"{where}: duty_cycle must be in (0, 1]")
    if cfg.sample_period is not None and cfg.sample_period < 1:
        _fail(f"{where}: sample_period must be >= 1")
    if isinstance(cfg.events, int) and cfg.events < 1:
        _fail(f"{where}: events count must be >= 1")
    if cfg.noise is not None and not 0 <= cfg.noise < 1:
        _fail(f"{where}: noise must be in [0, 1)")
    if cfg.workers < 1:
        _fail(f"{where}: workers must be >= 1")
    if cfg.nodes < 1:
        _fail(f"{where}: nodes must be >= 1")


def from_dict(data: dict, *, source: str = "") -> ExperimentSpec:
    """Build and validate a spec from already-parsed data.

    Raises:
        ExperimentError: any schema violation.
    """
    if not isinstance(data, dict):
        _fail(f"spec must be a table/object, got {type(data).__name__}")
    known_top = {"name", "title", "seeds", "workloads", "defaults", "configs"}
    unknown = set(data) - known_top
    if unknown:
        _fail(f"unknown spec key(s) {sorted(unknown)}; known: {sorted(known_top)}")

    name = data.get("name")
    if not isinstance(name, str) or not _NAME_RE.match(name):
        _fail(f"spec needs a name matching {_NAME_RE.pattern}, got {name!r}")
    title = data.get("title", "")
    if not isinstance(title, str):
        _fail(f"title must be a string, got {title!r}")

    seeds = data.get("seeds")
    if (
        not isinstance(seeds, list)
        or not seeds
        or not all(isinstance(s, int) and not isinstance(s, bool) for s in seeds)
    ):
        _fail(f"seeds must be a non-empty list of integers, got {seeds!r}")
    if len(set(seeds)) != len(seeds):
        _fail("seeds must be unique")

    workloads = data.get("workloads")
    if (
        not isinstance(workloads, list)
        or not workloads
        or not all(isinstance(w, str) for w in workloads)
    ):
        _fail(f"workloads must be a non-empty list of references, got {workloads!r}")
    for ref in workloads:
        library.check(ref)

    defaults = data.get("defaults", {})
    if not isinstance(defaults, dict):
        _fail(f"defaults must be a table, got {defaults!r}")
    if "name" in defaults:
        _fail("defaults may not set 'name'")
    raw_configs = data.get("configs")
    if not isinstance(raw_configs, list) or not raw_configs:
        _fail("spec needs a non-empty [[configs]] list")

    configs = []
    for i, raw in enumerate(raw_configs):
        if not isinstance(raw, dict):
            _fail(f"configs[{i}] must be a table, got {raw!r}")
        merged = {**defaults, **raw}
        unknown = set(merged) - _CONFIG_KEYS
        if unknown:
            _fail(
                f"configs[{i}]: unknown key(s) {sorted(unknown)}; "
                f"known: {sorted(_CONFIG_KEYS)}"
            )
        if "name" not in merged:
            _fail(f"configs[{i}] needs a name")
        cfg = CellConfig(**{k: _coerce(k, v) for k, v in merged.items()})
        _validate_config(cfg)
        configs.append(cfg)
    config_names = [c.name for c in configs]
    if len(set(config_names)) != len(config_names):
        _fail(f"config names must be unique, got {config_names}")

    return ExperimentSpec(
        name=name,
        title=title,
        seeds=tuple(seeds),
        workloads=tuple(workloads),
        configs=tuple(configs),
        source=source,
    )


def load(path: Path | str) -> ExperimentSpec:
    """Load a spec file (``.toml`` or ``.json``).

    Raises:
        ExperimentError: unreadable file, parse error, or any schema
            violation.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        _fail(f"cannot read spec {path}: {exc}")
    if path.suffix == ".toml":
        try:
            data = tomllib.loads(raw.decode("utf-8"))
        except (tomllib.TOMLDecodeError, UnicodeDecodeError) as exc:
            _fail(f"spec {path} is not valid TOML: {exc}")
    elif path.suffix == ".json":
        try:
            data = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            _fail(f"spec {path} is not valid JSON: {exc}")
    else:
        _fail(f"spec {path} must be a .toml or .json file")
    return from_dict(data, source=path.name)
