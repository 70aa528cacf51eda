"""Fig. 6 and the Section V-A error statistics.

Fig. 6a/6b: measured and simulated total power (static + dynamic
stacked) for all 19 benchmark kernels on GT240 and GTX580.  The same run
yields the paper's headline numbers: 11.7% / 10.8% average relative
error on total power, 28.3% / 20.9% on dynamic power alone, the
maximum-error kernels, and the observation that the simulator
overestimates nearly every kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.validation import SuiteValidation, validate_suite
from ..runner.engine import AUTO
from ..sim.config import gt240, gtx580

from . import base

#: Paper-reported statistics for comparison.
PAPER_STATS = {
    "GT240": {"avg_rel_error": 0.117, "avg_dynamic_error": 0.283,
              "max_rel_error": 0.354, "worst_kernel": "mergeSort3",
              "underestimated": {"BlackScholes", "scalarProd"}},
    "GTX580": {"avg_rel_error": 0.108, "avg_dynamic_error": 0.209,
               "max_rel_error": 0.252, "worst_kernel": "scalarProd",
               "underestimated": set()},
}


@dataclass
class Fig6Result:
    suites: Dict[str, SuiteValidation]

    def suite(self, gpu: str) -> SuiteValidation:
        return self.suites[gpu]


def run(kernel_names: Optional[List[str]] = None,
        seed: int = 17,
        jobs: Optional[int] = None,
        cache=AUTO,
        backend: str = "cycle",
        progress=None) -> Fig6Result:
    """Run the full Fig. 6 evaluation on both GPUs.

    ``backend`` selects the performance model (``repro.backends``); the
    paper's numbers are quoted for the default ``cycle`` backend.
    ``progress`` follows the runner convention -- failed jobs report a
    :class:`~repro.runner.JobFailure`, so ``(done, total)`` watchers
    always converge.
    """
    suites = {}
    for config in (gt240(), gtx580()):
        suites[config.name] = validate_suite(config,
                                             kernel_names=kernel_names,
                                             seed=seed,
                                             jobs=jobs, cache=cache,
                                             backend=backend,
                                             progress=progress)
    return Fig6Result(suites=suites)


def format_table(result: Fig6Result) -> str:
    """Render the result as an aligned text table."""
    lines = []
    for gpu, suite in result.suites.items():
        paper = PAPER_STATS[gpu]
        sub = "a" if gpu == "GT240" else "b"
        lines.append(f"Fig. 6{sub}: simulated vs measured power ({gpu})")
        lines.append(f"{'kernel':<14s}{'sim stat':>9s}{'sim dyn':>9s}"
                     f"{'sim tot':>9s}{'meas tot':>9s}{'err':>8s}")
        for k in suite.kernels:
            sim_dyn = k.simulated_total_w - k.simulated_static_w
            lines.append(
                f"{k.kernel:<14s}{k.simulated_static_w:>9.1f}"
                f"{sim_dyn:>9.1f}{k.simulated_total_w:>9.1f}"
                f"{k.measured_total_w:>9.1f}"
                f"{k.relative_error * 100:>7.1f}%"
            )
        lines.append(
            f"average relative error: {suite.average_relative_error*100:.1f}% "
            f"(paper {paper['avg_rel_error']*100:.1f}%)")
        lines.append(
            f"dynamic-only error:     {suite.average_dynamic_error*100:.1f}% "
            f"(paper {paper['avg_dynamic_error']*100:.1f}%)")
        lines.append(
            f"max error: {suite.max_relative_error*100:.1f}% on "
            f"{suite.worst_kernel} (paper {paper['max_rel_error']*100:.1f}% "
            f"on {paper['worst_kernel']})")
        lines.append(
            f"simulator overestimates {suite.overestimate_fraction*100:.0f}% "
            f"of kernels")
        lines.append("")
    return "\n".join(lines)


def format_chart(result: Fig6Result) -> str:
    """The stacked-bar rendering of both Fig. 6 panels."""
    from .figures import fig6_chart
    parts = []
    for gpu, suite in result.suites.items():
        sub = "a" if gpu == "GT240" else "b"
        parts.append(f"Fig. 6{sub} ({gpu}):")
        parts.append(fig6_chart(suite.kernels))
    return "\n".join(parts)


def _render(result) -> str:
    return format_table(result) + "\n" + format_chart(result)


EXPERIMENT = base.register(base.Experiment(
    name="fig6",
    description="Fig. 6: measured vs. simulated power on both GPUs",
    compute=run,
    render=_render,
))


if __name__ == "__main__":
    EXPERIMENT.run(echo=True)
