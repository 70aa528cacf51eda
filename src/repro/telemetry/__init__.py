"""Windowed activity sampling and power tracing.

The paper validates its power model against a testbed that samples real
card power at 31.2 kHz *while kernels run*.  This package is the
simulator-side counterpart: :class:`ActivityTracer` snapshots the
simulator's cumulative activity counters every N shader cycles, cuts
them into per-window :class:`ActivityWindow` deltas, and
:class:`PowerTrace` feeds each window through the unchanged power model
to get power over time with a per-component breakdown.

Layering: ``repro.telemetry`` imports from ``repro.sim`` and
``repro.power``; the simulator only ever sees the tracer through an
``Optional`` parameter and pays one ``is not None`` test per event when
tracing is off.  Summed window deltas reconstruct the aggregate
:class:`~repro.sim.activity.ActivityReport` bit-identically (see
:func:`sum_windows`).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".sink": ("ActivityTracer", "CollectingSink", "NullSink", "TraceSink"),
    ".trace": ("PowerSample", "PowerTrace"),
    ".window": ("ActivityWindow", "DERIVED_FIELDS", "ENVELOPE_FIELDS",
                "sum_windows", "window_delta", "windows_from_dicts",
                "windows_to_dicts"),
    ".export": ("chrome_trace", "render_trace", "sparkline",
                "write_chrome_trace", "write_trace_json"),
})
