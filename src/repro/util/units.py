"""Parsing and formatting of sizes and elapsed times.

Cache sizes read and print in KB/MB as in the hwloc topology rendering;
elapsed time prints as ``H:MM:SS`` like top's TIME column. Screen cells
format through their column's width and decimals
(:meth:`repro.core.columns.Column.to_format`), not through this module.
"""

from __future__ import annotations

from repro.errors import ConfigError

_SIZE_SUFFIXES = {
    "": 1,
    "B": 1,
    "K": 1024,
    "KB": 1024,
    "KIB": 1024,
    "M": 1024**2,
    "MB": 1024**2,
    "MIB": 1024**2,
    "G": 1024**3,
    "GB": 1024**3,
    "GIB": 1024**3,
    "T": 1024**4,
    "TB": 1024**4,
}


def parse_size(text: str | int) -> int:
    """Parse a size like ``"32KB"``, ``"8MB"`` or ``256`` into bytes.

    Accepts an ``int`` (returned unchanged) or a string with an optional
    binary suffix (K/M/G/T with optional B, case-insensitive).

    Raises:
        ConfigError: if the string cannot be parsed or is negative.
    """
    if isinstance(text, int):
        if text < 0:
            raise ConfigError(f"size must be non-negative, got {text}")
        return text
    s = text.strip().upper().replace(" ", "")
    i = len(s)
    while i > 0 and not s[i - 1].isdigit():
        i -= 1
    num, suffix = s[:i], s[i:]
    if not num:
        raise ConfigError(f"cannot parse size {text!r}")
    try:
        value = int(num)
    except ValueError as exc:
        raise ConfigError(f"cannot parse size {text!r}") from exc
    if suffix not in _SIZE_SUFFIXES:
        raise ConfigError(f"unknown size suffix {suffix!r} in {text!r}")
    return value * _SIZE_SUFFIXES[suffix]


def format_size(nbytes: int) -> str:
    """Format a byte count the way hwloc labels caches (``32KB``, ``8192KB``)."""
    if nbytes >= 1024 and nbytes % 1024 == 0:
        return f"{nbytes // 1024}KB"
    return f"{nbytes}B"


def format_seconds(seconds: float) -> str:
    """Format elapsed virtual time as ``H:MM:SS`` (like top's TIME column)."""
    seconds = int(seconds)
    h, rem = divmod(seconds, 3600)
    m, s = divmod(rem, 60)
    return f"{h}:{m:02d}:{s:02d}"
