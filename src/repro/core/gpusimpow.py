"""The GPUSimPow facade: the Fig. 1 pipeline of the paper.

GPU configuration + GPGPU kernel -> cycle-level performance simulation
(producing activity information) -> GPGPU-Pow power model -> power and
area results.  This is the class downstream users interact with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from ..backends.base import DEFAULT_BACKEND
from ..isa.launch import KernelLaunch
from ..power.chip import Chip
from ..power.result import PowerReport
from ..request import SimRequest
from ..runner.job import JobResult
from ..serialize import Serializable
from ..sim.activity import ActivityReport
from ..sim.config import GPUConfig, config_memo
from ..sim.gpu import SimulationOutput
from ..telemetry.sink import TraceSink
from ..telemetry.trace import PowerTrace
from ..telemetry.window import (ActivityWindow, windows_from_dicts,
                                windows_to_dicts)


@dataclass
class ArchitectureReport:
    """Workload-independent chip statistics (Section III-A outputs)."""

    name: str
    area_mm2: float
    static_power_w: float
    peak_dynamic_w: float


@dataclass
class SimulationResult(Serializable):
    """Everything GPUSimPow produces for one kernel execution.

    ``trace`` is the windowed :class:`~repro.telemetry.PowerTrace` when
    the run was traced (``trace_interval``/``sink`` passed, or a traced
    job replayed) and ``None`` otherwise.

    ``backend`` is the *concrete* backend that produced the numbers --
    a request for ``"auto"`` records its fidelity-ladder resolution
    here, with ``promised_error`` carrying the |chip-power| relative
    error that tier promised at selection time (0.0 for exact tiers; a
    replayed job carries its own promise, ``None`` when it has none).
    """

    kernel_name: str
    config: GPUConfig
    performance: SimulationOutput
    power: PowerReport
    trace: Optional[PowerTrace] = field(default=None, repr=False)
    backend: str = DEFAULT_BACKEND
    promised_error: Optional[float] = None

    @property
    def activity(self) -> ActivityReport:
        return self.performance.activity

    @property
    def runtime_s(self) -> float:
        return self.performance.runtime_s

    @property
    def chip_static_w(self) -> float:
        return self.power.chip_static_w

    @property
    def chip_dynamic_w(self) -> float:
        return self.power.chip_dynamic_w

    @property
    def chip_total_w(self) -> float:
        return self.power.chip_total_w

    @property
    def card_total_w(self) -> float:
        """Chip + external DRAM: comparable to a card-level measurement."""
        return self.power.card_total_w

    @property
    def energy_j(self) -> float:
        return self.card_total_w * self.runtime_s

    def summary(self) -> Dict[str, float]:
        return {
            "runtime_s": self.runtime_s,
            "static_w": self.chip_static_w,
            "dynamic_w": self.chip_dynamic_w,
            "chip_total_w": self.chip_total_w,
            "dram_w": self.power.dram.total_dynamic_w,
            "card_total_w": self.card_total_w,
        }

    def to_dict(self) -> Dict[str, Any]:
        """Serializable form (drops the memory image and launch IR)."""
        data: Dict[str, Any] = {
            "kernel": self.kernel_name,
            "config": self.config.to_dict(),
            "activity": self.activity.to_dict(),
            "power": self.power.to_dict(),
            "backend": self.backend,
        }
        if self.promised_error is not None:
            data["promised_error"] = self.promised_error
        if self.performance.windows is not None:
            data["windows"] = windows_to_dicts(self.performance.windows)
        if self.trace is not None:
            data["trace"] = self.trace.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SimulationResult":
        """Rebuild a result whose performance side is a replay record."""
        config = GPUConfig.from_dict(data["config"])
        activity = ActivityReport.from_dict(data["activity"])
        windows: Optional[List[ActivityWindow]] = None
        if "windows" in data:
            windows = windows_from_dicts(data["windows"])
        return cls(
            kernel_name=data["kernel"],
            config=config,
            performance=SimulationOutput.replay(config, None, activity,
                                                windows=windows),
            power=PowerReport.from_dict(data["power"]),
            trace=(PowerTrace.from_dict(data["trace"])
                   if "trace" in data else None),
            backend=data.get("backend", DEFAULT_BACKEND),
            promised_error=data.get("promised_error"),
        )


class GPUSimPow:
    """Coupled performance + power simulator for one GPU configuration.

    ``chip`` is the configuration's power model.  It depends on nothing
    but the configuration, so it is built once per configuration
    content (:func:`~repro.sim.config.config_memo`) and shared by every
    simulator of an equal config: treat it as read-only.
    """

    def __init__(self, config: GPUConfig) -> None:
        self.config = config
        self.chip = config_memo(config, "chip", Chip)

    def architecture(self) -> ArchitectureReport:
        """Static power, peak dynamic power and area of the chip."""
        return ArchitectureReport(
            name=self.config.name,
            area_mm2=self.chip.area_mm2(),
            static_power_w=self.chip.static_power_w(),
            peak_dynamic_w=self.chip.peak_dynamic_w(),
        )

    def _request(self, request: Union[SimRequest, KernelLaunch, str],
                 wrap_as: str) -> SimRequest:
        """``request`` as a :class:`~repro.request.SimRequest` for this
        simulator; anything else becomes field ``wrap_as`` of a default
        request.  A request bound to a different config is rejected
        (the chip model was built for ``self.config``)."""
        if not isinstance(request, SimRequest):
            return SimRequest(config=self.config, **{wrap_as: request})
        if request.config != self.config:
            raise ValueError(
                f"request is for config {request.config.name!r}, "
                f"but this simulator models {self.config.name!r}")
        return request

    def run(self, request: Union[SimRequest, KernelLaunch, JobResult], *,
            sink: Optional[TraceSink] = None) -> SimulationResult:
        """Simulate one request and evaluate its power, or replay a job.

        ``request`` is a :class:`~repro.request.SimRequest` -- the same
        object the runner, the result cache and the service speak -- or
        a bare :class:`KernelLaunch`, run as a default request.  Fresh
        simulations go through :meth:`SimRequest.execute`; ``sink``
        receives their windows as they are cut (implying tracing, with
        a 1000-cycle default interval).

        A finished :class:`~repro.runner.JobResult` (off the runner,
        the result cache or the service) is replayed: its activity
        report is power-evaluated without re-running the performance
        simulation, its timing -- including ``runtime_s`` -- taken from
        the report itself, never rederived.  Everything else comes from
        the job too: the concrete backend that produced the report
        (``"auto"`` is not resolved again), the error that backend
        promised, the windows of a traced job (yielding a
        :class:`PowerTrace`) and the sanitizer findings (on
        ``performance.diagnostics``).
        """
        if isinstance(request, JobResult):
            req = self._request(request.job, "launch")
            perf = SimulationOutput.replay(self.config, req.resolve_launch(),
                                           request.activity,
                                           windows=request.windows)
            perf.diagnostics = request.diagnostics
            return self._result(req, perf, request.backend,
                                request.promised_error, replayed=True)
        req = self._request(request, "launch")
        concrete, promised = req.resolve()
        perf = concrete.execute(sink=sink)
        return self._result(req, perf, concrete.backend, promised)

    def run_benchmark(self, request: Union[SimRequest, str], *,
                      sink: Optional[TraceSink] = None,
                      ) -> "BenchmarkResult":
        """Run all kernels of a Table I benchmark as a dependent chain.

        ``request`` is a :class:`~repro.request.SimRequest` whose
        ``kernel`` names the benchmark, or the bare benchmark name; it
        simulates through :meth:`SimRequest.execute_chain`.  Kernels
        execute on a shared global-memory image (the way the real
        multi-kernel benchmarks run); each kernel gets its own power
        evaluation -- and its own power trace when traced -- and the
        totals aggregate the whole benchmark.
        """
        req = self._request(request, "kernel")
        if not req.kernel:
            raise ValueError("run_benchmark needs a benchmark name")
        # Ladder resolution happens once for the whole chain, so every
        # kernel of the benchmark runs at the same fidelity.
        concrete, promised = req.resolve()
        outputs = concrete.execute_chain(sink=sink)
        return BenchmarkResult(
            benchmark=req.kernel,
            kernels=[self._result(req, perf, concrete.backend, promised)
                     for perf in outputs])

    def _result(self, req: SimRequest, perf: SimulationOutput,
                backend: str, promised: Optional[float],
                replayed: bool = False) -> SimulationResult:
        """Power-evaluate one kernel's performance output.

        A windowed output also gets its :class:`PowerTrace`, cut at the
        request's interval -- else the 1000-cycle default of a fresh
        run, or a replay's first window end.
        """
        trace = None
        if perf.windows:
            interval = req.trace_interval or (
                perf.windows[0].end_cycles if replayed else 1000.0)
            trace = PowerTrace.from_windows(
                self.config, perf.launch.kernel.name, perf.windows,
                interval, chip=self.chip)
        return SimulationResult(
            kernel_name=perf.launch.kernel.name,
            config=self.config,
            performance=perf,
            power=self.chip.evaluate(perf.activity),
            trace=trace,
            backend=backend,
            promised_error=promised,
        )


@dataclass
class BenchmarkResult:
    """All kernels of one benchmark, run as a chain."""

    benchmark: str
    kernels: list

    @property
    def total_runtime_s(self) -> float:
        return sum(k.runtime_s for k in self.kernels)

    @property
    def total_energy_j(self) -> float:
        return sum(k.energy_j for k in self.kernels)

    @property
    def average_power_w(self) -> float:
        t = self.total_runtime_s
        return self.total_energy_j / t if t > 0 else 0.0
