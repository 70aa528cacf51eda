"""Exact backends: the cycle-level simulator and its scalar cross-check.

``cycle`` is the default backend -- a thin wrapper over
:class:`repro.sim.gpu.GPU`, bit-identical to calling it directly.

``functional_ref`` runs the *same* cycle-level engine but binds the
per-lane scalar reference interpreter (:mod:`repro.sim.functional_ref`)
in place of the vectorised functional layer.  Timing, scheduling and
activity accounting are untouched, so its results must equal the
``cycle`` backend's bit for bit; any divergence is a vectorization bug.
It exists as a cross-check (and is what the ``backends`` validation
experiment asserts against), not as something to run for speed.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..isa.launch import KernelLaunch
from ..sim.config import GPUConfig
from ..sim.functional import VECTORIZED, FunctionalBinding
from ..sim.functional_ref import REFERENCE
from ..sim.gpu import GPU, SimulationOutput
from .base import BackendCapabilities, BackendInfo, SimulationBackend


def _sim_version() -> str:
    from .. import SIM_VERSION
    return SIM_VERSION


class CycleBackend(SimulationBackend):
    """The cycle-accurate event-driven simulator (the paper's model)."""

    name = "cycle"
    info = BackendInfo(
        tier=3, expected_error=0.0, relative_cost=1.0,
        capabilities=BackendCapabilities(supports_tracing=True,
                                         exact=True,
                                         supports_sanitize=True),
        auto=True,
        description="cycle-accurate event-driven simulation (exact)")
    #: Value-level layer handed to the GPU (per run, never global).
    functional: FunctionalBinding = VECTORIZED

    @property
    def version(self) -> str:
        """Tracks :data:`repro.SIM_VERSION`: the simulator IS this backend."""
        return _sim_version()

    def simulate(self, config: GPUConfig, launch: KernelLaunch, *,
                 max_cycles: float = 5e8,
                 gmem: Optional[np.ndarray] = None,
                 tracer=None, sanitize: bool = False) -> SimulationOutput:
        self.check_tracer(tracer)
        self.check_sanitize(sanitize)
        sanitizer = None
        if sanitize:
            from ..sim.sanitizer import Sanitizer
            words = launch.gmem_words if gmem is None else len(gmem)
            sanitizer = Sanitizer(launch, gmem_words=words)
        return GPU(config, self.functional).run(
            launch, max_cycles=max_cycles, gmem=gmem, tracer=tracer,
            sanitizer=sanitizer)


class FunctionalRefBackend(CycleBackend):
    """Cycle engine driven by the scalar per-lane reference interpreter."""

    name = "functional_ref"
    info = BackendInfo(
        tier=3, expected_error=0.0, relative_cost=2.0,
        capabilities=BackendCapabilities(supports_tracing=True,
                                         exact=True,
                                         supports_sanitize=True),
        auto=False,
        description="scalar reference interpreter (exact cross-check)")
    functional = REFERENCE
