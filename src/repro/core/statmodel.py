"""A measurement-based statistical power model (the related-work foil).

Section II of the paper contrasts GPUSimPow with purely empirical models
"such as the ones from Hong and Kim or Ma et al. which are based
entirely on measured data.  While this type of power model is able to
deliver superior accuracy for the architecture it was built from, it
lacks the capability to make accurate predictions about GPUs with other
architectural parameters and designs."

This module implements that class of model -- a linear regression from
coarse per-kernel activity rates to measured card power -- so the
repository can *demonstrate* the paper's argument quantitatively:
:mod:`repro.experiments.exp_statmodel` trains it on GT240 measurements,
shows excellent held-out accuracy on the same card, and then shows it
collapsing on the GTX580, where GPUSimPow's architectural model keeps
working.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from ..hw.measure import MeasurementTool
from ..hw.testbed import Testbed
from ..hw.virtual_gpu import VirtualGPU
from ..request import SimRequest
from ..runner.engine import AUTO, run_jobs
from ..sim.activity import ActivityReport
from ..sim.config import GPUConfig
from ..workloads import all_kernel_launches

#: The performance-counter-style features the regression sees, as rates
#: (events per second) -- the granularity hardware counters expose.
FEATURES = (
    "issued_instructions", "int_ops", "fp_ops", "sfu_ops",
    "mem_instructions", "mem_transactions", "dram_reads", "smem_accesses",
)


def feature_vector(activity: ActivityReport) -> np.ndarray:
    """Rates of the model's features plus a constant intercept term."""
    rates = [activity.rate(name) for name in FEATURES]
    return np.array([1.0] + rates)


@dataclass
class StatisticalPowerModel:
    """Linear measured-data power model: power = w . [1, rates...]."""

    trained_on: str
    weights: np.ndarray
    training_kernels: List[str] = field(default_factory=list)

    def predict(self, activity: ActivityReport) -> float:
        """Predicted average card power for a kernel's activity (W)."""
        return float(self.weights @ feature_vector(activity))

    @classmethod
    def fit(cls, config: GPUConfig, kernel_names: Sequence[str],
            seed: int = 41, ridge: float = 1e-2,
            jobs=None, cache=AUTO) -> "StatisticalPowerModel":
        """Train on testbed measurements of ``kernel_names``.

        The training measurements run through the same virtual card and
        noisy measurement chain the validation uses -- the model sees
        exactly what Hong & Kim's setup would have seen.
        """
        launches = all_kernel_launches()
        session = []
        activities: Dict[str, ActivityReport] = {}
        results = _simulate_kernels(config, kernel_names, jobs, cache)
        for name in kernel_names:
            activities[name] = results[name]
            session.append((name, results[name], launches[name].repeat,
                            launches[name].repeatable))
        bed = Testbed(VirtualGPU(config), seed=seed)
        tool = MeasurementTool(bed.run_session(session))
        measured = {m.name: m.avg_power_w for m in tool.kernel_measurements()}

        rows = np.stack([feature_vector(activities[n]) for n in kernel_names])
        target = np.array([measured[n] for n in kernel_names])
        # Ridge-regularised least squares on scaled features (rates span
        # many orders of magnitude).
        scale = np.maximum(np.abs(rows).max(axis=0), 1e-30)
        scaled = rows / scale
        gram = scaled.T @ scaled + ridge * np.eye(scaled.shape[1])
        weights = np.linalg.solve(gram, scaled.T @ target) / scale
        return cls(trained_on=config.name, weights=weights,
                   training_kernels=list(kernel_names))


@dataclass
class ModelEvaluation:
    """Accuracy of one power model over a kernel set."""

    model_name: str
    gpu: str
    errors: Dict[str, float]

    @property
    def average_error(self) -> float:
        return float(np.mean([abs(e) for e in self.errors.values()]))

    @property
    def max_error(self) -> float:
        return float(max(abs(e) for e in self.errors.values()))


def _simulate_kernels(config, kernel_names, jobs, cache, progress=None):
    """Activity reports for ``kernel_names``, fanned out via the runner."""
    launches = all_kernel_launches()
    sim_jobs = [SimRequest(config=config, kernel=name, launch=launches[name])
                for name in kernel_names]
    job_results = run_jobs(sim_jobs, n_jobs=jobs, cache=cache,
                           progress=progress)
    return {name: jr.activity
            for name, jr in zip(kernel_names, job_results)}


def evaluate_statistical(model: StatisticalPowerModel, config: GPUConfig,
                         kernel_names: Sequence[str],
                         seed: int = 47,
                         jobs=None, cache=AUTO) -> ModelEvaluation:
    """Measure ``kernel_names`` on ``config``'s card and score the model."""
    launches = all_kernel_launches()
    session = []
    activities = _simulate_kernels(config, kernel_names, jobs, cache)
    for name in kernel_names:
        session.append((name, activities[name], launches[name].repeat,
                        launches[name].repeatable))
    bed = Testbed(VirtualGPU(config), seed=seed)
    tool = MeasurementTool(bed.run_session(session))
    measured = {m.name: m.avg_power_w for m in tool.kernel_measurements()}
    errors = {}
    for name in kernel_names:
        predicted = model.predict(activities[name])
        errors[name] = (predicted - measured[name]) / measured[name]
    return ModelEvaluation(
        model_name=f"statistical({model.trained_on})",
        gpu=config.name,
        errors=errors,
    )


def evaluate_gpusimpow(config: GPUConfig, kernel_names: Sequence[str],
                       seed: int = 47,
                       jobs=None, cache=AUTO) -> ModelEvaluation:
    """The same scoring for GPUSimPow (architectural model)."""
    from .validation import validate_suite
    suite = validate_suite(config, kernel_names=list(kernel_names),
                           seed=seed, jobs=jobs, cache=cache)
    errors = {
        k.kernel: (k.simulated_total_w - k.measured_total_w)
        / k.measured_total_w
        for k in suite.kernels
    }
    return ModelEvaluation(model_name="GPUSimPow", gpu=config.name,
                           errors=errors)
