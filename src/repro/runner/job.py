"""Runner job results and failures.

A job is a :class:`~repro.request.SimRequest` (``SimJob`` is an alias):
a plain :class:`~repro.sim.config.GPUConfig` (a dataclass of
primitives) plus either a workload label resolved worker-side or an
explicit :class:`~repro.isa.launch.KernelLaunch` (dataclasses + numpy
arrays, both picklable), so it crosses a process boundary as is.  The
heavyweight, stateful :class:`GPU` object is always constructed
*inside* the worker by :meth:`SimRequest.execute`, so nothing
unpicklable ever crosses the pipe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..request import SimRequest
from ..sim.activity import ActivityReport

if TYPE_CHECKING:
    from ..telemetry.window import ActivityWindow


@dataclass
class JobFailure:
    """One job's failure record, typed by what actually went wrong.

    Attributes:
        label: The failing job's display label.
        kind: One of ``"exception"`` (the simulation raised -- treated
            as deterministic, never retried), ``"timeout"`` (an attempt
            exceeded its wall-clock budget), ``"worker-crash"`` (a pool
            worker died without reporting -- OOM kill, segfault,
            signal), or ``"cache-corrupt"`` (a stored entry failed to
            load and was dropped; informational, the job re-simulates).
        message: Short human-readable description.
        traceback: Full worker-side traceback, when one exists.
        attempts: How many execution attempts had been made when this
            failure was recorded (``0`` for ``cache-corrupt``, which
            happens before any attempt).
        attempt_durations: Wall-clock seconds of every attempt so far,
            in attempt order.
    """

    label: str
    kind: str
    message: str = ""
    traceback: str = ""
    attempts: int = 1
    attempt_durations: List[float] = field(default_factory=list)

    @property
    def summary(self) -> str:
        """One-line description for error aggregation."""
        if self.message:
            return self.message
        last = self.traceback.strip().splitlines()[-1] if self.traceback \
            else ""
        return last or "unknown error"

    @property
    def transient(self) -> bool:
        """Whether this failure kind is retried by the engine."""
        return self.kind in ("timeout", "worker-crash")

    def to_dict(self) -> Dict[str, Any]:
        """Structured failure taxonomy for machine consumers.

        The service returns this (not a formatted traceback string) in
        error responses, so clients can branch on ``kind`` and surface
        ``attempts``/``attempt_durations`` without parsing prose.
        """
        return {
            "label": self.label,
            "kind": self.kind,
            "message": self.message,
            "summary": self.summary,
            "transient": self.transient,
            "traceback": self.traceback,
            "attempts": self.attempts,
            "attempt_durations": [float(d)
                                  for d in self.attempt_durations],
        }


#: The runner's job descriptor *is* the canonical request.  The name
#: stays because callers still spell jobs ``SimJob(...)``, and
#: ``benchmarks/e2e/tracing.py`` hooks ``SimJob.execute`` by this path.
SimJob = SimRequest


@dataclass
class JobResult:
    """Outcome of one job (a :class:`~repro.request.SimRequest`).

    Carries the activity report and cycle count (everything the power
    model and the experiment drivers consume) -- not the final memory
    image, which stays worker-side so results are cheap to ship and to
    cache.  ``windows`` holds the telemetry activity windows for traced
    jobs (``trace_interval`` set) and is ``None`` otherwise.

    ``attempts`` counts execution attempts (1 for a clean first-try
    run); ``faults`` records every :class:`JobFailure` the engine
    overcame on the way to this result -- transient failures that were
    retried, and corrupt cache entries that degraded to misses.

    The fidelity-ladder provenance trio: ``backend_used`` is the
    concrete backend that produced the numbers (the resolution of
    ``"auto"``); ``promised_error`` the |chip-power| relative error it
    promised at selection time (0.0 for exact tiers); and
    ``achieved_error`` the *measured* error -- known only once an exact
    tier has run the same simulation, so it is usually ``None`` on
    fresh estimator results and appears on cache hits after the cycle
    backend later ran the same digest.
    """

    job: SimRequest
    activity: ActivityReport
    cycles: float
    cached: bool = False
    duration_s: float = 0.0
    worker: int = -1  # -1: ran in the calling process
    windows: Optional[List["ActivityWindow"]] = field(default=None,
                                                      repr=False)
    attempts: int = 1
    faults: List[JobFailure] = field(default_factory=list, repr=False)
    backend_used: str = ""
    promised_error: Optional[float] = None
    achieved_error: Optional[float] = None
    #: Runtime-sanitizer findings (:class:`repro.analysis.Diagnostic`)
    #: for jobs submitted with ``sanitize=True``; ``None`` otherwise.
    #: Never cached -- sanitized jobs always recompute them fresh.
    diagnostics: Optional[List] = field(default=None, repr=False)

    @property
    def label(self) -> str:
        return self.job.label

    @property
    def backend(self) -> str:
        """Name of the simulation backend that produced this result.

        The resolved name when the job asked for ``"auto"``.
        """
        return self.backend_used or self.job.backend
