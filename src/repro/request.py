"""The canonical simulation request: one currency for every layer.

:class:`SimRequest` is the single description of "simulate this kernel
on this config with these knobs", and :meth:`SimRequest.execute` the
single way to simulate one:

* ``GPUSimPow.run(request)`` / ``run_benchmark(request)`` -- the
  facade's entry points;
* :func:`repro.runner.run_jobs` -- the runner's job descriptor is the
  request itself (``repro.runner.SimJob`` is an alias), and its workers
  call :meth:`~SimRequest.execute`;
* :func:`repro.runner.cache.request_key` -- the cache key is a digest
  of the request (``SimRequest.digest()``);
* ``POST /v1/submit`` -- the service accepts ``SimRequest.to_dict()``
  as its body and deduplicates in-flight work by ``digest()``.

Each entry point resolves a request once (:meth:`SimRequest.resolve`)
and hands the *concrete* request down; no layer below walks the
fidelity ladder again.

A request is pure *simulation input* plus execution policy; it carries
no results and no process-level settings (worker counts, cache
locations).  It round-trips through :mod:`repro.serialize` exactly --
including explicit launches with their kernel IR and memory images --
so a request that crossed HTTP has the same digest as the original.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import isfinite
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from .isa.launch import KernelLaunch
from .isa.serialize import launch_from_dict, launch_to_dict
from .serialize import Serializable
from .sim.config import GPUConfig

if TYPE_CHECKING:
    from .backends.base import SimulationBackend
    from .sim.gpu import SimulationOutput
    from .telemetry.sink import TraceSink

#: Default simulation watchdog (forwarded to the backend).
DEFAULT_MAX_CYCLES = 5e8


@dataclass
class SimRequest(Serializable):
    """Everything needed to name -- and reproduce -- one simulation.

    Attributes:
        config: The architecture to simulate.
        kernel: Workload label from Table I (``repro.workloads``),
            resolved to a launch on demand; also the display label.
            For :meth:`execute_chain` (``GPUSimPow.run_benchmark``)
            it names a Table I *benchmark* instead.
        launch: Explicit launch descriptor; takes precedence over
            ``kernel`` for execution (both may be set -- ``kernel``
            then only labels the request).
        max_cycles: Simulation watchdog, forwarded to the backend.
        trace_interval: Telemetry window length in shader cycles; when
            set, results carry per-window activity deltas (and the
            interval becomes part of the digest).
        backend: Simulation backend name (``repro.backends`` registry),
            or ``"auto"`` to let the fidelity ladder pick the cheapest
            tier whose promised error fits ``error_budget``.
        backend_options: Extra keyword arguments for the backend's
            ``simulate``; result-changing options enter the digest
            through the backend's ``cache_signature``.
        error_budget: Acceptable |chip-power| relative error (a
            fraction in [0, 1]) for ``backend="auto"`` resolution;
            ``None`` (and 0.0) demand exactness, resolving to the
            ``cycle`` tier.  Selection policy, not simulation input:
            never part of the digest -- only the *resolved* backend is.
        timeout_s: Per-attempt wall-clock budget in seconds (execution
            policy -- deliberately *not* part of the digest).
        sanitize: Attach the runtime sanitizer
            (:mod:`repro.sim.sanitizer`) to the run and surface its
            findings alongside the result.  An execution-side observer
            like ``timeout_s``: deliberately *not* part of the digest,
            because the simulation result is byte-identical with or
            without it.
        tag: Optional display label overriding the derived one.
        tags: Free-form string metadata (tenant hints, experiment ids);
            carried through the service and the journal, never part of
            the digest.
    """

    config: GPUConfig
    kernel: Optional[str] = None
    launch: Optional[KernelLaunch] = None
    max_cycles: float = DEFAULT_MAX_CYCLES
    trace_interval: Optional[float] = None
    backend: str = "cycle"
    backend_options: Optional[Dict[str, Any]] = None
    error_budget: Optional[float] = None
    timeout_s: Optional[float] = None
    sanitize: bool = False
    tag: str = ""
    tags: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kernel is None and self.launch is None:
            raise ValueError("SimRequest needs a kernel label or a launch")
        if self.trace_interval is not None \
                and not self.trace_interval > 0:
            raise ValueError(f"trace_interval must be positive, "
                             f"got {self.trace_interval!r}")
        if not self.backend:
            raise ValueError("SimRequest.backend must be a backend name")
        if self.error_budget is not None and (
                not isfinite(self.error_budget)
                or not 0.0 <= self.error_budget <= 1.0):
            raise ValueError(f"error_budget must be a finite fraction "
                             f"in [0, 1], got {self.error_budget!r}")
        if self.timeout_s is not None and not self.timeout_s > 0:
            raise ValueError(f"timeout_s must be positive, "
                             f"got {self.timeout_s!r}")

    # -- identity -------------------------------------------------------------

    @property
    def label(self) -> str:
        """Human-readable name for progress/error surfacing."""
        if self.tag:
            return self.tag
        name = self.kernel or (self.launch.kernel.name if self.launch
                               else "?")
        return f"{name}@{self.config.name}"

    def resolve_launch(self) -> KernelLaunch:
        """The launch to execute (resolving workload labels if needed).

        Workload labels resolve through
        :func:`repro.workloads.common.kernel_launch`, over launches
        built from a fixed seed -- so a label names the same launch
        (and the same digest) in every process.  Each benchmark is
        built once per process: a label resolves to the one shared,
        read-only launch object (see :mod:`repro.workloads.common`).
        """
        if self.launch is not None:
            return self.launch
        from .workloads.common import kernel_launch
        return kernel_launch(self.kernel)

    def digest(self) -> str:
        """Content-addressed identity (hex SHA-256).

        This is *the* cache key: two requests with the same digest name
        the same simulation result, whatever layer they came through.
        Execution policy (``timeout_s``), observers (``sanitize``) and
        presentation (``tag``, ``tags``) are excluded.
        """
        from .runner.cache import request_key
        return request_key(self)

    def to_job(self) -> "SimRequest":
        """The runner job for this request: the request itself (kept
        because ``benchmarks/e2e/workloads.py`` still calls it)."""
        return self

    # -- resolution -----------------------------------------------------------

    def resolve(self) -> Tuple["SimRequest", float]:
        """``(concrete request, promised error)``: the one ladder walk.

        ``"auto"`` becomes the tier :func:`~repro.backends.base.
        resolve_backend` picks, and that backend must honour
        ``sanitize`` and ``trace_interval`` (else ``BackendError``; an
        unknown name raises ``KeyError``).  The only caller of
        ``resolve_backend``.
        """
        from .backends.base import get_backend, resolve_backend
        name, promised = resolve_backend(self)
        backend = get_backend(name)
        backend.check_sanitize(self.sanitize)
        backend.check_tracer(self.trace_interval)
        if name != self.backend:
            return replace(self, backend=name), promised
        return self, promised

    # -- execution ------------------------------------------------------------

    def execute(self, sink: Optional["TraceSink"] = None,
                ) -> "SimulationOutput":
        """Simulate this request in this process.

        Runner workers, the facade's fresh runs, the service's traced
        runs and ``gpusimpow run --profile`` all come through here (and
        chains through :meth:`execute_chain`).  ``"auto"`` resolves
        (:meth:`resolve`) first, so an unknown backend name, or a
        tracing or sanitize request against a backend that cannot
        honour it, fails before any simulation work.  ``sink`` receives
        windows as they are cut (and implies tracing, with a 1000-cycle
        default interval).
        """
        backend, kwargs = self._prepare(sink)
        return backend.simulate(self.config, self.resolve_launch(),
                                max_cycles=self.max_cycles, **kwargs)

    def execute_chain(self, sink: Optional["TraceSink"] = None,
                      ) -> List["SimulationOutput"]:
        """Simulate the Table I benchmark ``kernel`` names as a chain.

        The benchmark's kernels run back to back on one shared
        global-memory image (see
        :meth:`~repro.backends.base.SimulationBackend.simulate_sequence`),
        with the same resolve, capability checks and tracer as
        :meth:`execute`; one tracer, and ``sink``, serve every kernel.
        """
        from .workloads import build_benchmark
        backend, kwargs = self._prepare(sink)
        return backend.simulate_sequence(
            self.config, build_benchmark(self.kernel),
            max_cycles=self.max_cycles, **kwargs)

    def _prepare(self, sink: Optional["TraceSink"],
                 ) -> Tuple["SimulationBackend", Dict[str, Any]]:
        """``(backend, simulate keyword arguments)`` for this request.

        Resolve ``"auto"`` -> sanitize and tracing checks -> tracer
        setup: the only place an :class:`~repro.telemetry.ActivityTracer`
        is built from a request.  A concrete request evaluates no
        promise.
        """
        from .backends.base import AUTO_BACKEND, get_backend
        name = self.backend
        if name == AUTO_BACKEND:
            name = self.resolve()[0].backend
        backend = get_backend(name)
        backend.check_sanitize(self.sanitize)
        kwargs: Dict[str, Any] = dict(self.backend_options or {})
        if self.sanitize:
            kwargs["sanitize"] = True
        if self.trace_interval is not None or sink is not None:
            from .telemetry.sink import ActivityTracer
            kwargs["tracer"] = ActivityTracer(self.trace_interval or 1000.0,
                                              sink=sink)
            backend.check_tracer(kwargs["tracer"])
        return backend, kwargs

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (the service's HTTP body schema).

        Sparse: defaults are omitted, so a minimal request is just
        ``{"config": {...}, "kernel": "vectorAdd"}``.
        """
        data: Dict[str, Any] = {"config": self.config.to_dict()}
        if self.kernel is not None:
            data["kernel"] = self.kernel
        if self.launch is not None:
            data["launch"] = launch_to_dict(self.launch)
        if self.max_cycles != DEFAULT_MAX_CYCLES:
            data["max_cycles"] = self.max_cycles
        if self.trace_interval is not None:
            data["trace_interval"] = self.trace_interval
        if self.backend != "cycle":
            data["backend"] = self.backend
        if self.backend_options:
            data["backend_options"] = dict(self.backend_options)
        if self.error_budget is not None:
            data["error_budget"] = self.error_budget
        if self.timeout_s is not None:
            data["timeout_s"] = self.timeout_s
        if self.sanitize:
            data["sanitize"] = True
        if self.tag:
            data["tag"] = self.tag
        if self.tags:
            data["tags"] = dict(self.tags)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SimRequest":
        """Rebuild a request from :meth:`to_dict` output.

        Unknown keys raise ``ValueError`` (a stale or foreign payload
        fails loudly instead of silently dropping knobs).
        """
        known = {"config", "kernel", "launch", "max_cycles",
                 "trace_interval", "backend", "backend_options",
                 "error_budget", "timeout_s", "sanitize", "tag", "tags"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown request fields: {sorted(unknown)}")
        if "config" not in data:
            raise ValueError("request needs a 'config'")
        launch = None
        if data.get("launch") is not None:
            launch = launch_from_dict(data["launch"])
        trace_interval = data.get("trace_interval")
        error_budget = data.get("error_budget")
        timeout_s = data.get("timeout_s")
        return cls(
            config=GPUConfig.from_dict(data["config"]),
            kernel=data.get("kernel"),
            launch=launch,
            max_cycles=float(data.get("max_cycles", DEFAULT_MAX_CYCLES)),
            trace_interval=(None if trace_interval is None
                            else float(trace_interval)),
            backend=str(data.get("backend", "cycle")),
            backend_options=(dict(data["backend_options"])
                             if data.get("backend_options") else None),
            error_budget=(None if error_budget is None
                          else float(error_budget)),
            timeout_s=None if timeout_s is None else float(timeout_s),
            sanitize=bool(data.get("sanitize", False)),
            tag=str(data.get("tag", "")),
            tags={str(k): str(v)
                  for k, v in data.get("tags", {}).items()},
        )
