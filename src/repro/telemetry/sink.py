"""Trace sinks and the activity tracer that drives them.

:class:`ActivityTracer` is the object :meth:`repro.sim.gpu.GPU.run`
accepts: it watches the event loop's clock, cuts an
:class:`~repro.telemetry.window.ActivityWindow` every ``interval``
shader cycles from cumulative counter snapshots, and forwards each
window to a pluggable :class:`TraceSink`.

Cost model: when no tracer is passed (the default), the simulator's
event loop pays a single ``is not None`` test per event and nothing
else -- results are bit-identical with tracing on, off, or absent,
because snapshotting only *reads* counters.  Window boundaries are
deterministic: an event timestamped exactly on a boundary belongs to
the window that boundary closes.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..sim.activity import ActivityReport
from .window import ActivityWindow, window_delta


class TraceSink:
    """Receiver for telemetry windows; all hooks default to no-ops.

    Subclass and override any subset:

    * :meth:`on_begin` -- a traced kernel execution starts;
    * :meth:`on_window` -- one activity window was cut;
    * :meth:`on_end` -- the execution finished (aggregate report).
    """

    def on_begin(self, config, launch, interval_cycles: float) -> None:
        """Called once before the first window of a kernel execution."""

    def on_window(self, window: ActivityWindow) -> None:
        """Called for every window, in time order."""

    def on_end(self, aggregate: ActivityReport, cycles: float) -> None:
        """Called once after the last window."""


class NullSink(TraceSink):
    """The explicit do-nothing sink (tracing wired up but discarded)."""


class CollectingSink(TraceSink):
    """Accumulates every window in memory (``sink.windows``)."""

    def __init__(self) -> None:
        self.windows: List[ActivityWindow] = []

    def on_window(self, window: ActivityWindow) -> None:
        self.windows.append(window)


class ActivityTracer:
    """Cuts activity windows every ``interval_cycles`` shader cycles.

    Driven by :meth:`repro.sim.gpu.GPU.run`; one tracer serves one
    kernel execution (``begin`` resets it, so a tracer may be reused
    across the launches of a kernel chain, see
    :meth:`repro.backends.base.SimulationBackend.simulate_sequence`).

    Attributes:
        interval_cycles: Window length in shader cycles.
        sink: Optional :class:`TraceSink` receiving windows as they are
            cut (streaming consumers).
        windows: The collected windows of the current/last execution.
    """

    def __init__(self, interval_cycles: float,
                 sink: Optional[TraceSink] = None) -> None:
        interval = float(interval_cycles)
        if not interval > 0:
            raise ValueError(
                f"trace interval must be positive, got {interval_cycles!r}")
        self.interval_cycles = interval
        self.sink = sink
        self.windows: List[ActivityWindow] = []
        self.next_boundary = interval
        self._snapshot: Optional[Callable[[float], ActivityReport]] = None
        self._prev = ActivityReport()
        self._prev_cycles = 0.0

    # -- driven by GPU.run ----------------------------------------------------

    def begin(self, snapshot: Callable[[float], ActivityReport],
              config=None, launch=None) -> None:
        """Arm the tracer for one execution.

        Args:
            snapshot: Callable returning the cumulative
                :class:`ActivityReport` at a given shader-cycle time
                (the engine's collector); must be read-only.
        """
        self.windows = []
        self.next_boundary = self.interval_cycles
        self._snapshot = snapshot
        self._prev = ActivityReport()
        self._prev_cycles = 0.0
        if self.sink is not None:
            self.sink.on_begin(config, launch, self.interval_cycles)

    def cut(self, now: float) -> None:
        """Close every window boundary strictly before ``now``.

        The event loop calls this when an event pops with a timestamp
        past ``next_boundary``: all counter updates so far happened at
        times <= the boundary, so the cumulative snapshot taken here is
        exactly the state at the boundary.
        """
        while now > self.next_boundary:
            self._emit(self.next_boundary,
                       self._snapshot(self.next_boundary))
            self.next_boundary += self.interval_cycles

    def cut_through(self, limit: float) -> None:
        """Close every window boundary up to and including ``limit``
        (an epoch horizon: every remaining event lies beyond it)."""
        while self.next_boundary <= limit:
            self._emit(self.next_boundary,
                       self._snapshot(self.next_boundary))
            self.next_boundary += self.interval_cycles

    def finish(self, final_cycles: float,
               aggregate: ActivityReport) -> List[ActivityWindow]:
        """Close the trailing partial window and return all windows.

        The final snapshot *is* the aggregate report, which makes the
        cumulative end of the last window bit-identical to the
        aggregate by construction.
        """
        last_emitted = self.windows[-1].end_cycles if self.windows else 0.0
        if final_cycles > last_emitted or not self.windows:
            self._emit(final_cycles, aggregate)
        if self.sink is not None:
            self.sink.on_end(aggregate, final_cycles)
        return self.windows

    # -- internals ------------------------------------------------------------

    def _emit(self, end_cycles: float, snapshot: ActivityReport) -> None:
        window = window_delta(len(self.windows), self._prev, snapshot,
                              self._prev_cycles, end_cycles)
        self.windows.append(window)
        self._prev = snapshot
        self._prev_cycles = end_cycles
        if self.sink is not None:
            self.sink.on_window(window)


class BoundaryRecorder(ActivityTracer):
    """A shard's tracer: keeps cumulative reports, not window deltas.

    ``boundaries`` holds ``(boundary, report)`` pairs; the merge sums
    them across shards before any delta is taken.
    """

    def begin(self, snapshot, config=None, launch=None) -> None:
        super().begin(snapshot, config, launch)
        self.boundaries: List[Tuple[float, ActivityReport]] = []

    def _emit(self, end_cycles: float, snapshot: ActivityReport) -> None:
        self.boundaries.append((end_cycles, snapshot))
