"""Pluggable simulation backends, organised as a fidelity ladder.

Five backends ship built-in (registered at import), each a rung with a
tier rank, an expected-error model and a relative cost
(:class:`~repro.backends.base.BackendInfo`):

* ``surrogate`` (tier 0) -- calibrated k-nearest-neighbour estimator
  over static-analyzer features; zero execution, microsecond queries,
  calibrated expected error (see :mod:`repro.backends.surrogate`);
* ``analytical`` (tier 1) -- a first-order sampled-profile estimator
  with no per-cycle loop (fast, inexact; see
  :mod:`repro.backends.analytical`);
* ``parallel_cycle`` (tier 2) -- the cycle engine sharded across
  worker processes with epoch-based relaxed synchronization (fast on
  multi-core hosts, bounded timing error; see
  :mod:`repro.backends.parallel_cycle`);
* ``cycle`` (tier 3) -- the cycle-accurate event-driven simulator
  (default; exact, supports tracing);
* ``functional_ref`` (tier 3) -- the same engine driven by the
  per-lane scalar reference interpreter (exact; the vectorization
  cross-check).

Pick one anywhere a ``backend=`` parameter or ``--backend`` flag
appears -- or pass ``"auto"`` with an ``error_budget`` to let
:func:`~repro.backends.base.resolve_backend` pick the cheapest rung
whose promised error fits, escalating
``surrogate -> analytical -> cycle``.
:mod:`repro.backends.validation` quantifies how two backends disagree
(and sweeps the whole ladder).
"""

from .._lazy import lazy_exports
from .analytical import AnalyticalBackend
from .base import register_backend
from .cycle import CycleBackend, FunctionalRefBackend
from .parallel_cycle import ParallelCycleBackend
from .surrogate import SurrogateBackend

#: The built-in backends, registered eagerly so any importer of this
#: package or of any module in it (the runner's workers included) sees a
#: populated registry.
CYCLE = register_backend(CycleBackend())
FUNCTIONAL_REF = register_backend(FunctionalRefBackend())
ANALYTICAL = register_backend(AnalyticalBackend())
PARALLEL_CYCLE = register_backend(ParallelCycleBackend())
SURROGATE = register_backend(SurrogateBackend())

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".base": ("SimulationBackend", "BackendCapabilities", "BackendInfo",
              "BackendError", "DEFAULT_BACKEND", "AUTO_BACKEND",
              "register_backend", "get_backend", "list_backends",
              "all_backends", "ladder", "escalation_path",
              "resolve_backend"),
    ".cycle": ("CycleBackend", "FunctionalRefBackend"),
    ".analytical": ("AnalyticalBackend",),
    ".parallel_cycle": ("ParallelCycleBackend", "ShardWorkerError"),
    ".surrogate": ("SurrogateBackend", "CalibrationStore",
                   "CalibrationTable", "calibrate_surrogate"),
    ".validation": ("BackendComparison", "KernelComparison",
                    "CounterDelta", "compare_backends", "LadderRung",
                    "sweep_ladder"),
})
