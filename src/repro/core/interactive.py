"""Interactive live-mode commands.

The live mode "periodically refreshes the screen ... and lets users
interactively inspect processes" (§2.1); the loop "goes idle until some
timeout expires or the user pressed a key" (§2.3). This module models the
key commands of a top-like tool against an injectable input source, so the
behaviour is fully testable without a terminal:

=========  =====================================================
key        effect
=========  =====================================================
``q``      quit the live loop
``d N``    set the refresh delay to N seconds
``H``      toggle per-thread / per-process counting
``i``      toggle hiding of idle tasks (below 5 %CPU)
``o``      cycle the sort key through the sortable columns
``s NAME`` switch to screen NAME (counters are re-attached)
``u UID``  watch only this uid (``u`` alone clears the filter)
``w N``    clip frames to N columns (``w`` alone resets)
``h``      show a help frame
=========  =====================================================

Commands are processed between refreshes, exactly like tiptop's keyboard
handling.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import replace

from repro.core import formatter
from repro.core.columns import ColumnKind
from repro.core.options import Options
from repro.core.sampler import Sampler
from repro.core.screen import Screen, get_screen, screens
from repro.errors import ConfigError, ReproError

#: Idle threshold applied when 'i' hides idle tasks.
IDLE_HIDE_THRESHOLD = 5.0

#: Column kinds the 'o' command can sort by (numeric per-row values).
SORTABLE_KINDS = frozenset({
    ColumnKind.PID,
    ColumnKind.CPU_PCT,
    ColumnKind.TIME,
    ColumnKind.PROCESSOR,
    ColumnKind.EXPR,
})

#: Narrowest width 'w' accepts: anything smaller cannot fit a header.
MIN_WIDTH = 10


def help_frame(extra: Sequence[Screen] = ()) -> str:
    """The frame shown for the 'h' command; ``extra`` screens are listed
    after the built-ins, as ``s`` accepts them."""
    lines = ["tiptop interactive commands:"]
    lines += [
        "  q        quit",
        "  d N      set refresh delay to N seconds",
        "  H        toggle per-thread counting",
        "  i        toggle hiding idle tasks",
        "  o        cycle the sort column",
        "  s NAME   switch screen",
        "  u [UID]  filter by uid (no argument clears)",
        "  w [N]    clip frames to N columns (no argument resets)",
        "  h        this help",
        "screens: " + ", ".join(s.name for s in screens(extra)),
    ]
    return "\n".join(lines)


class InteractiveSession:
    """A live tiptop session driven by key commands.

    Args:
        host: a Sim/Real host (see :mod:`repro.core.app`).
        options: initial options.
        screen: initial screen (default: by options.screen).
        input_source: callable returning the commands typed since the last
            refresh (the test harness queues strings; a terminal front-end
            would poll stdin).
        paint: frame sink.
        extra_screens: additional named screens selectable with ``s``
            (e.g. loaded from a config file); one named like a built-in
            replaces it.
    """

    def __init__(
        self,
        host,
        options: Options | None = None,
        screen: Screen | None = None,
        *,
        input_source: Callable[[], Iterable[str]] | None = None,
        paint: Callable[[str], object] | None = None,
        extra_screens: list[Screen] | None = None,
    ) -> None:
        self.host = host
        self.options = options or Options()
        self._extra = extra_screens or []
        self.screen = screen or get_screen(self.options.screen, self._extra)
        self._input = input_source or (lambda: ())
        self._paint = paint or (lambda s: None)
        self._hide_idle = False
        self._quit = False
        self._width: int | None = None
        self.frames: list[str] = []
        self._sampler = self._make_sampler()

    def _make_sampler(self) -> Sampler:
        return Sampler(self.host.backend, self.host.tasks, self.screen, self.options)

    def _reattach(self) -> None:
        """Rebuild the sampler after a screen/option change."""
        self._sampler.close()
        self._sampler = self._make_sampler()

    def _sort_keys(self) -> list[str]:
        """Headers of the current screen's sortable columns, in order."""
        return [
            c.header for c in self.screen.columns if c.kind in SORTABLE_KINDS
        ]

    def _clip(self, text: str) -> str:
        if self._width is None:
            return text
        return "\n".join(line[: self._width] for line in text.splitlines())

    # -- command handling --------------------------------------------------
    def handle(self, command: str) -> None:
        """Apply one key command.

        Raises:
            ConfigError: malformed command arguments (reported to the
                screen in :meth:`run`; raised directly here for tests).
        """
        command = command.strip()
        if not command:
            return
        key, _, arg = command.partition(" ")
        arg = arg.strip()
        if key == "q":
            self._quit = True
        elif key == "d":
            try:
                delay = float(arg)
            except ValueError as exc:
                raise ConfigError(f"d needs a number, got {arg!r}") from exc
            self.options = replace(self.options, delay=delay)
        elif key == "H":
            self.options = replace(
                self.options, per_thread=not self.options.per_thread
            )
            self._reattach()
        elif key == "i":
            self._hide_idle = not self._hide_idle
        elif key == "o":
            keys = self._sort_keys()
            if keys:
                try:
                    i = keys.index(self.options.sort_by)
                except ValueError:
                    i = -1
                self.options = replace(
                    self.options, sort_by=keys[(i + 1) % len(keys)]
                )
                # Sorting is read at sample time, so no reattach: just
                # hand the sampler the new options.
                self._sampler.options = self.options
        elif key == "s":
            self.screen = get_screen(arg, self._extra)
            self._reattach()
        elif key == "u":
            uid = None
            if arg:
                try:
                    uid = int(arg)
                except ValueError as exc:
                    raise ConfigError(f"u needs a uid, got {arg!r}") from exc
            self.options = replace(self.options, watch_uid=uid)
            self._reattach()
        elif key == "w":
            if not arg:
                self._width = None
            else:
                try:
                    width = int(arg)
                except ValueError as exc:
                    raise ConfigError(f"w needs a width, got {arg!r}") from exc
                if width < MIN_WIDTH:
                    raise ConfigError(
                        f"width must be >= {MIN_WIDTH}, got {width}"
                    )
                self._width = width
        elif key == "h":
            frame = help_frame(self._extra)
            self._paint(frame)
            self.frames.append(frame)
        else:
            raise ConfigError(f"unknown command {command!r}")

    # -- the loop -----------------------------------------------------------
    def run(self, max_iterations: int = 1000) -> list[str]:
        """Run the live loop until 'q' or ``max_iterations`` refreshes.

        Returns all painted frames (help frames included).
        """
        self._sampler.sample()  # baseline
        for _ in range(max_iterations):
            for command in self._input():
                try:
                    self.handle(command)
                except ConfigError as exc:
                    message = f"tiptop: {exc}"
                    self._paint(message)
                    self.frames.append(message)
                if self._quit:
                    break
            if self._quit:
                break
            self.host.sleep(self.options.delay)
            snapshot = self._sampler.sample()
            threshold = IDLE_HIDE_THRESHOLD if self._hide_idle else 0.0
            frame = self._clip(
                formatter.render_frame(
                    self.screen, snapshot, idle_threshold=threshold
                )
            )
            self._paint(frame)
            self.frames.append(frame)
        self._sampler.close()
        return self.frames

    def close(self) -> None:
        """Release counters (idempotent)."""
        try:
            self._sampler.close()
        except ReproError:  # pragma: no cover - defensive
            pass
