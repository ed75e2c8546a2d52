"""Screen configuration files — the equivalent of tiptop's XML config.

Real tiptop reads user-defined screens from an XML file; this reproduction
uses JSON (no extra dependencies) with the same information content: named
screens made of derived columns over counter expressions. A file holds one
screen or a list of screens; a column names a metric of the catalogue
(:mod:`repro.core.metrics`) or gives its own expression::

    {
      "screens": [
        {
          "name": "hpc",
          "description": "roofline-ish rates",
          "columns": [
            "FPC",
            {"header": "L/F", "expr": "loads / fp_operations"}
          ]
        }
      ]
    }

The built-in screens are written in this format too
(:data:`repro.core.screen.BUILTIN_CONFIGS`). Loaded screens are validated
eagerly (unknown identifiers fail at load time, not mid-monitoring) and
shadow built-ins by name: :func:`repro.core.screen.get_screen` looks in
the loaded list first.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.screen import Screen, screen_from_config
from repro.errors import ConfigError


def parse_screens(data: object) -> list[Screen]:
    """Build screens from a decoded config object.

    Accepts a single screen dict, a list of screen dicts, or a dict with a
    ``"screens"`` list.

    Raises:
        ConfigError: malformed structure or invalid screen definitions.
    """
    if isinstance(data, dict) and "screens" in data:
        entries = data["screens"]
    elif isinstance(data, dict):
        entries = [data]
    elif isinstance(data, list):
        entries = data
    else:
        raise ConfigError(
            f"screen config must be a dict or list, got {type(data).__name__}"
        )
    if not isinstance(entries, list) or not entries:
        raise ConfigError("screen config contains no screens")
    screens = [screen_from_config(entry) for entry in entries]
    names = [s.name for s in screens]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate screen names in config: {names}")
    return screens


def load_screens(path: str | Path) -> list[Screen]:
    """Load and validate screens from a JSON file.

    Raises:
        ConfigError: unreadable file, invalid JSON, or bad definitions.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read screen config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return parse_screens(data)
