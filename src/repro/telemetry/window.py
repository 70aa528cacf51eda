"""Activity windows: per-interval deltas of the simulator's counters.

The testbed of the paper samples card power *over time* while a kernel
runs; the simulator side of that story is an :class:`ActivityWindow` --
the exact change of every :class:`~repro.sim.activity.ActivityReport`
counter over one N-shader-cycle interval.  Windows are cut from
monotone cumulative snapshots, so they obey a checkable invariant:

    summed per-window deltas == the kernel's aggregate ActivityReport,
    bit-identically, field by field (see :func:`sum_windows`).

Three aggregate fields are *envelope-derived* rather than summed,
mirroring how :func:`repro.sim.activity.set_cycle_envelope` derives
them for every backend:

* ``shader_cycles`` / ``runtime_s`` -- the trace envelope (each window
  carries its duration; the reconstruction takes the final cumulative
  end, which float summation of durations could not reproduce exactly);
* ``dram_refreshes`` -- a pure function of runtime (one REFab per
  refresh interval per channel), rederived from the reconstructed
  runtime through the same :func:`repro.sim.dram.refresh_operations`
  arithmetic the simulator uses.

Every other field is an integer-valued event count, for which float64
subtraction and addition are exact -- the deltas telescope.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Sequence

from ..serialize import Serializable
from ..sim.activity import ActivityReport
from ..sim.config import GPUConfig
from ..sim.dram import refresh_operations

#: Aggregate fields reconstructed from the trace envelope, not summed.
ENVELOPE_FIELDS = ("shader_cycles", "runtime_s")
#: Aggregate fields rederived from reconstructed runtime, not summed.
DERIVED_FIELDS = ("dram_refreshes",)

_COUNTER_FIELDS = tuple(
    f.name for f in fields(ActivityReport)
    if f.name not in ENVELOPE_FIELDS + DERIVED_FIELDS
)


@dataclass
class ActivityWindow(Serializable):
    """One sampling interval's activity delta.

    Attributes:
        index: Zero-based window number.
        start_cycles: Window start in shader cycles (exclusive: events
            timestamped exactly at the start belong to the previous
            window).
        end_cycles: Window end in shader cycles (inclusive).
        end_runtime_s: Cumulative runtime at the window end (seconds);
            lets the reconstruction recover the aggregate runtime
            bit-identically.
        active_cores: *Cumulative* cores active at the window end (the
            delta report's ``active_cores`` holds only newly activated
            ones, so the deltas still sum to the aggregate).
        active_clusters: Cumulative clusters active at the window end.
        activity: The per-counter delta over this window.  Its
            ``shader_cycles``/``runtime_s`` hold the window *duration*;
            its ``dram_refreshes`` holds the refresh operations issued
            during the window.
    """

    index: int
    start_cycles: float
    end_cycles: float
    end_runtime_s: float
    active_cores: int
    active_clusters: int
    activity: ActivityReport

    @property
    def duration_cycles(self) -> float:
        return self.activity.shader_cycles

    @property
    def duration_s(self) -> float:
        return self.activity.runtime_s

    def power_activity(self) -> ActivityReport:
        """The window's activity as the power model wants to see it.

        Identical to the delta except that ``active_cores`` and
        ``active_clusters`` are the *cumulative* occupancy: a core
        activated in window 0 keeps burning base power in window 5, so
        per-window power evaluation must not see "0 newly activated
        cores" as "no cores powered".
        """
        view = ActivityReport.from_dict(self.activity.to_dict())
        view.active_cores = self.active_cores
        view.active_clusters = self.active_clusters
        return view

    def to_dict(self) -> Dict[str, Any]:
        """Compact dict form (zero counters dropped from the delta)."""
        return {
            "index": self.index,
            "start_cycles": self.start_cycles,
            "end_cycles": self.end_cycles,
            "end_runtime_s": self.end_runtime_s,
            "active_cores": self.active_cores,
            "active_clusters": self.active_clusters,
            "activity": self.activity.to_dict(sparse=True),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ActivityWindow":
        """Rebuild a window from :meth:`to_dict` output."""
        return cls(
            index=int(data["index"]),
            start_cycles=float(data["start_cycles"]),
            end_cycles=float(data["end_cycles"]),
            end_runtime_s=float(data["end_runtime_s"]),
            active_cores=int(data["active_cores"]),
            active_clusters=int(data["active_clusters"]),
            activity=ActivityReport.from_dict(data["activity"]),
        )


def window_delta(index: int, prev: ActivityReport, cur: ActivityReport,
                 start_cycles: float, end_cycles: float) -> ActivityWindow:
    """Cut one window as the difference of two cumulative snapshots.

    ``prev`` and ``cur`` are monotone cumulative reports (``prev`` all
    zeros for the first window); every counter delta is an exact float64
    subtraction of integer-valued counts.
    """
    delta = ActivityReport()
    for name in _COUNTER_FIELDS:
        setattr(delta, name, getattr(cur, name) - getattr(prev, name))
    delta.shader_cycles = end_cycles - start_cycles
    delta.runtime_s = cur.runtime_s - prev.runtime_s
    delta.dram_refreshes = cur.dram_refreshes - prev.dram_refreshes
    return ActivityWindow(
        index=index,
        start_cycles=start_cycles,
        end_cycles=end_cycles,
        end_runtime_s=cur.runtime_s,
        active_cores=cur.active_cores,
        active_clusters=cur.active_clusters,
        activity=delta,
    )


def sum_counters(reports: Sequence[ActivityReport]) -> ActivityReport:
    """Sum the counter fields of ``reports``, left to right.

    Exact for integer-valued counts; the envelope fields stay zero.
    """
    total = ActivityReport()
    for report in reports:
        for name in _COUNTER_FIELDS:
            setattr(total, name,
                    getattr(total, name) + getattr(report, name))
    return total


def sum_windows(windows: Sequence[ActivityWindow],
                config: Optional[GPUConfig] = None) -> ActivityReport:
    """Reconstruct the aggregate :class:`ActivityReport` from windows.

    Counter fields are summed left to right (exact: they are
    integer-valued deltas of monotone counters); the envelope fields
    come from the last window's cumulative end; ``dram_refreshes`` is
    rederived from the reconstructed runtime when ``config`` is given
    (falling back to summing the per-window values otherwise).

    For a complete trace this is bit-identical to the untraced
    aggregate -- the invariant the telemetry tests enforce.
    """
    if not windows:
        return ActivityReport()
    total = sum_counters([w.activity for w in windows])
    last = windows[-1]
    total.shader_cycles = last.end_cycles
    total.runtime_s = last.end_runtime_s
    if config is not None:
        total.dram_refreshes = refresh_operations(config, total.runtime_s)
    else:
        total.dram_refreshes = sum(w.activity.dram_refreshes for w in windows)
    return total


def windows_to_dicts(
        windows: Sequence[ActivityWindow]) -> List[Dict[str, Any]]:
    """Transport form for the runner pipe and the on-disk cache."""
    return [w.to_dict() for w in windows]


def windows_from_dicts(
        payload: Sequence[Dict[str, Any]]) -> List[ActivityWindow]:
    """Inverse of :func:`windows_to_dicts`."""
    return [ActivityWindow.from_dict(d) for d in payload]
