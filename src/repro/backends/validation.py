"""Cross-backend validation: run the same jobs on two backends, diff them.

The point of a backend seam is that backends disagree -- ``cycle`` vs
``functional_ref`` must agree *exactly* (same engine, different
functional layer), while ``cycle`` vs ``analytical`` differ by model
error that must be measured, not assumed.  This harness runs an
identical job list through two backends (via the pooled/cached runner,
so backends' results cache independently), evaluates both through the
unchanged power model, and reports per-component activity deltas plus
the total-power error distribution.

:func:`sweep_ladder` extends the pairwise diff to the whole fidelity
ladder: every auto-eligible estimator tier compared against the exact
``cycle`` reference on one suite, yielding the measured
error-vs-speedup trade-off curve the ladder's ``BackendInfo`` metadata
promises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..power.chip import Chip
from ..sim.activity import ActivityReport
from ..sim.config import GPUConfig
from .base import get_backend


@dataclass
class CounterDelta:
    """One activity counter's disagreement between two backends."""

    counter: str
    a: float
    b: float

    @property
    def abs_delta(self) -> float:
        return abs(self.b - self.a)

    @property
    def rel_delta(self) -> float:
        """Relative to backend A (the reference); 0 when both are 0."""
        if self.a == 0:
            return 0.0 if self.b == 0 else float("inf")
        return (self.b - self.a) / self.a


@dataclass
class KernelComparison:
    """One kernel's cross-backend result pair."""

    kernel: str
    cycles_a: float
    cycles_b: float
    power_a_w: float
    power_b_w: float
    duration_a_s: float
    duration_b_s: float
    activity_deltas: List[CounterDelta] = field(default_factory=list)

    @property
    def power_rel_error(self) -> float:
        """Signed relative total-power error of B against A."""
        if self.power_a_w == 0:
            return 0.0
        return (self.power_b_w - self.power_a_w) / self.power_a_w

    @property
    def cycles_rel_error(self) -> float:
        """Signed relative cycle-count error of B against A."""
        if self.cycles_a == 0:
            return 0.0
        return (self.cycles_b - self.cycles_a) / self.cycles_a

    @property
    def exact_match(self) -> bool:
        """Bit-identical activity (every counter equal)."""
        return all(d.a == d.b for d in self.activity_deltas) and \
            self.cycles_a == self.cycles_b


@dataclass
class BackendComparison:
    """A whole suite compared across two backends."""

    config_name: str
    backend_a: str
    backend_b: str
    kernels: List[KernelComparison]

    @property
    def exact_match(self) -> bool:
        return all(k.exact_match for k in self.kernels)

    @property
    def mean_abs_power_error(self) -> float:
        """Mean absolute relative total-power error of B vs A."""
        if not self.kernels:
            return 0.0
        return sum(abs(k.power_rel_error) for k in self.kernels) \
            / len(self.kernels)

    @property
    def max_abs_power_error(self) -> float:
        if not self.kernels:
            return 0.0
        return max(abs(k.power_rel_error) for k in self.kernels)

    @property
    def mean_abs_cycles_error(self) -> float:
        """Mean absolute relative cycle-count error of B vs A."""
        if not self.kernels:
            return 0.0
        return sum(abs(k.cycles_rel_error) for k in self.kernels) \
            / len(self.kernels)

    @property
    def max_abs_cycles_error(self) -> float:
        if not self.kernels:
            return 0.0
        return max(abs(k.cycles_rel_error) for k in self.kernels)

    @property
    def speedup(self) -> Optional[float]:
        """Fresh-run wall-clock speedup of B over A (None if cached)."""
        ta = sum(k.duration_a_s for k in self.kernels)
        tb = sum(k.duration_b_s for k in self.kernels)
        if ta <= 0 or tb <= 0:
            return None
        return ta / tb

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready report (the CI artifact format)."""
        return {
            "config": self.config_name,
            "backend_a": self.backend_a,
            "backend_b": self.backend_b,
            "exact_match": self.exact_match,
            "mean_abs_power_error": self.mean_abs_power_error,
            "max_abs_power_error": self.max_abs_power_error,
            "mean_abs_cycles_error": self.mean_abs_cycles_error,
            "max_abs_cycles_error": self.max_abs_cycles_error,
            "speedup": self.speedup,
            "kernels": [
                {
                    "kernel": k.kernel,
                    "cycles": {self.backend_a: k.cycles_a,
                               self.backend_b: k.cycles_b},
                    "chip_total_w": {self.backend_a: k.power_a_w,
                                     self.backend_b: k.power_b_w},
                    "power_rel_error": k.power_rel_error,
                    "cycles_rel_error": k.cycles_rel_error,
                    "exact_match": k.exact_match,
                    "worst_counters": [
                        {"counter": d.counter, "a": d.a, "b": d.b,
                         "rel_delta": (None if d.rel_delta == float("inf")
                                       else d.rel_delta)}
                        for d in sorted(k.activity_deltas,
                                        key=lambda d: d.abs_delta,
                                        reverse=True)[:8]
                        if d.abs_delta > 0
                    ],
                }
                for k in self.kernels
            ],
        }


def _activity_deltas(a: ActivityReport,
                     b: ActivityReport) -> List[CounterDelta]:
    da, db = a.to_dict(), b.to_dict()
    return [CounterDelta(counter=name, a=da[name], b=db[name])
            for name in da]


def compare_backends(config: GPUConfig,
                     kernels: Sequence[str],
                     backend_a: str = "cycle",
                     backend_b: str = "analytical",
                     jobs: Optional[int] = None, cache="auto",
                     max_cycles: float = 5e8,
                     backend_b_options: Optional[Dict[str, Any]] = None,
                     progress=None) -> BackendComparison:
    """Run ``kernels`` on two backends and diff activity and power.

    Jobs go through :func:`repro.runner.run_jobs`, so ``jobs``/``cache``
    /``progress`` follow the runner's conventions (environment
    resolution when omitted) and the two backends' results land under
    distinct cache keys.  ``backend_b_options`` tunes the candidate
    backend (e.g. ``parallel_cycle``'s ``epoch_cycles``/``n_shards``);
    the reference backend always runs with its defaults.
    """
    from ..request import SimRequest
    from ..runner.engine import run_jobs
    # Touch the registry up front so an unknown name fails before any
    # simulation is paid for.
    get_backend(backend_a)
    get_backend(backend_b)
    job_list = [SimRequest(config=config, kernel=name, backend=backend,
                           max_cycles=max_cycles,
                           backend_options=(backend_b_options
                                            if backend == backend_b else None))
                for backend in (backend_a, backend_b)
                for name in kernels]
    results = run_jobs(job_list, n_jobs=jobs, cache=cache,
                       progress=progress)
    half = len(kernels)
    chip = Chip(config)
    comparisons = []
    for ra, rb in zip(results[:half], results[half:]):
        power_a = chip.evaluate(ra.activity)
        power_b = chip.evaluate(rb.activity)
        comparisons.append(KernelComparison(
            kernel=ra.job.kernel or ra.label,
            cycles_a=ra.cycles,
            cycles_b=rb.cycles,
            power_a_w=power_a.chip_total_w,
            power_b_w=power_b.chip_total_w,
            duration_a_s=ra.duration_s,
            duration_b_s=rb.duration_s,
            activity_deltas=_activity_deltas(ra.activity, rb.activity),
        ))
    return BackendComparison(
        config_name=config.name,
        backend_a=backend_a,
        backend_b=backend_b,
        kernels=comparisons,
    )


@dataclass
class LadderRung:
    """One estimator tier's measured position on the accuracy ladder."""

    backend: str
    tier: int
    expected_error: float
    relative_cost: float
    comparison: BackendComparison

    def to_dict(self) -> Dict[str, Any]:
        return {
            "backend": self.backend,
            "tier": self.tier,
            "expected_error": self.expected_error,
            "relative_cost": self.relative_cost,
            "mean_abs_power_error": self.comparison.mean_abs_power_error,
            "max_abs_power_error": self.comparison.max_abs_power_error,
            "speedup_vs_cycle": self.comparison.speedup,
            "kernels": [
                {"kernel": k.kernel,
                 "power_rel_error": k.power_rel_error}
                for k in self.comparison.kernels
            ],
        }


def sweep_ladder(config: GPUConfig, kernels: Sequence[str],
                 jobs: Optional[int] = None, cache="auto",
                 max_cycles: float = 5e8,
                 progress=None) -> List[LadderRung]:
    """Measure every estimator rung against the exact reference.

    Runs ``kernels`` once per auto-eligible inexact backend (cheapest
    tier first) plus once on ``cycle``, and reports each tier's
    measured power-error distribution next to the nominal
    ``expected_error`` its :class:`~repro.backends.base.BackendInfo`
    claims -- the check that the ladder's promises stay honest.
    Backends that cannot serve the config (e.g. an uncalibrated
    surrogate) are skipped rather than failed.
    """
    from .base import BackendError, escalation_path
    rungs: List[LadderRung] = []
    for backend in escalation_path():
        if backend.capabilities.exact:
            continue
        try:
            comparison = compare_backends(
                config, kernels, backend_a="cycle",
                backend_b=backend.name, jobs=jobs, cache=cache,
                max_cycles=max_cycles, progress=progress)
        except BackendError:
            continue
        rungs.append(LadderRung(
            backend=backend.name,
            tier=backend.info.tier,
            expected_error=backend.info.expected_error,
            relative_cost=backend.info.relative_cost,
            comparison=comparison,
        ))
    return rungs
