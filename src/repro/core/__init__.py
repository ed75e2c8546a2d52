"""Tiptop itself: the top-like counter monitor.

The public surface a downstream user works with:

* :class:`repro.core.app.TipTop` — the application object; wire it to a
  :class:`~repro.core.app.SimHost` (simulated node) or
  :class:`~repro.core.app.RealHost` (live kernel with a PMU) and call
  :meth:`~repro.core.app.TipTop.run_batch`,
  :meth:`~repro.core.app.TipTop.run_collect` or
  :meth:`~repro.core.app.TipTop.run_live`.
* :mod:`repro.core.metrics` — the metric catalogue: every derived
  column's formula, width and decimals, keyed by its printed header.
* :mod:`repro.core.screen` — column/screen definitions (the default screen
  is Figure 1's ``PID USER %CPU Mcycle Minst IPC DMIS COMMAND``); screens
  are lists of catalogue names or inline expressions.
* :mod:`repro.core.options` — tool options mirroring tiptop's CLI.
* :mod:`repro.core.frame` — :class:`~repro.core.frame.SnapshotFrame`, the
  columnar block every refresh produces and every consumer reads.
* :mod:`repro.core.recorder` — time-series capture for offline analysis.
"""

from repro.core.app import RealHost, SimHost, TipTop
from repro.core.batchparse import BatchBlock, BatchRow, parse_blocks
from repro.core.config_file import load_screens
from repro.core.frame import SnapshotFrame
from repro.core.interactive import InteractiveSession
from repro.core.options import Options
from repro.core.recorder import Recorder
from repro.core.sampler import Sampler, Snapshot
from repro.core.screen import Screen, builtin_screens, get_screen
from repro.core.triggers import Comparison, Trigger, TriggerSet

__all__ = [
    "BatchBlock",
    "BatchRow",
    "Comparison",
    "InteractiveSession",
    "Trigger",
    "TriggerSet",
    "Options",
    "RealHost",
    "Recorder",
    "Sampler",
    "Screen",
    "SimHost",
    "Snapshot",
    "SnapshotFrame",
    "TipTop",
    "builtin_screens",
    "get_screen",
    "load_screens",
    "parse_blocks",
]
