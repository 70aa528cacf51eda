"""The simulation-backend seam: protocol, fidelity ladder and registry.

The paper frames the design space of power estimation as a trade-off
between speed, accuracy and portability (Section II): measured
counter-based models are fast but bound to existing silicon, while
architectural simulation is slow but fully configurable.  A
:class:`SimulationBackend` makes that trade-off a runtime choice instead
of an architectural commitment: every backend consumes the same
(:class:`~repro.sim.config.GPUConfig`, :class:`~repro.isa.launch.
KernelLaunch`) pair and produces the same
:class:`~repro.sim.gpu.SimulationOutput`, so the unchanged power model
(:meth:`repro.power.chip.Chip.evaluate`) works behind any of them.

Backends register by name, mirroring the experiment registry
(:mod:`repro.experiments.base`); the runner, the :class:`~repro.core.
gpusimpow.GPUSimPow` facade and the CLI all dispatch through
:func:`get_backend`.

Beyond the flat registry, every backend places itself on a **fidelity
ladder** through its :class:`BackendInfo`: a tier rank (cheapest
estimator first), a nominal expected |power| error, a rough cost
relative to the cycle simulator, and its capabilities.  The ladder
powers the ``auto`` selection policy (:func:`resolve_backend`): a
request carrying an ``error_budget`` resolves to the cheapest
auto-eligible tier whose *promised* error fits the budget, escalating
``surrogate -> analytical -> cycle`` until one does.  Promised errors
are per-request -- :meth:`SimulationBackend.promised_error` defaults to
the nominal :attr:`BackendInfo.expected_error` but calibrated backends
(the surrogate) refine it from their calibration tables.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..isa.launch import KernelLaunch
from ..sim.config import GPUConfig
from ..sim.gpu import SimulationOutput

#: Name of the backend used when none is requested: the cycle-accurate
#: simulator, the only backend whose results are exact by construction.
DEFAULT_BACKEND = "cycle"

#: Pseudo-backend name selecting a real tier by error budget at
#: resolution time (:func:`resolve_backend`).  Never registered: by the
#: time a simulation (or a cache key) exists, ``auto`` has resolved to
#: a concrete backend name.
AUTO_BACKEND = "auto"


class BackendError(RuntimeError):
    """A backend was asked for something it cannot do (or went wrong)."""


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend can and cannot deliver.

    Attributes:
        supports_tracing: The backend can drive an
            :class:`~repro.telemetry.ActivityTracer` (windowed activity
            deltas).  Estimators that never step through time cannot.
        exact: Activity counts are bit-identical to the cycle-accurate
            reference simulator; False marks estimators whose numbers
            carry model error.
        supports_sanitize: The backend can run with the runtime memory
            sanitizer (:mod:`repro.sim.sanitizer`) attached and return
            its findings on ``SimulationOutput.diagnostics``.  Only
            backends that actually execute memory instructions can.
    """

    supports_tracing: bool = False
    exact: bool = False
    supports_sanitize: bool = False


@dataclass(frozen=True)
class BackendInfo:
    """One backend's rung on the fidelity ladder.

    Replaces the old ad-hoc pair of ``supports_tracing``/``exact``
    flags as the registry's metadata: capabilities still live here, but
    alongside the accuracy/cost coordinates the ``auto`` policy and the
    ``gpusimpow backends`` listing need.

    Attributes:
        tier: Ladder rank; lower tiers are cheaper and less accurate.
            Ties are broken by name.
        expected_error: Nominal absolute relative chip-power error the
            tier promises (fraction; 0.0 for exact backends).  The
            static half of the expected-error model -- backends with a
            per-request model override
            :meth:`SimulationBackend.promised_error`.
        relative_cost: Rough per-query cost relative to the ``cycle``
            backend (1.0); display/ordering metadata, not a timer.
        capabilities: What the backend can deliver (tracing, exactness).
        auto: Whether the ``auto`` policy may select this backend.
            Backends needing explicit tuning (``parallel_cycle``) or
            existing purely as cross-checks (``functional_ref``) opt
            out.
        description: One-line summary for the ladder listing.
    """

    tier: int = 99
    expected_error: float = float("inf")
    relative_cost: float = 1.0
    capabilities: BackendCapabilities = BackendCapabilities()
    auto: bool = False
    description: str = ""


class SimulationBackend(ABC):
    """One way to turn (config, launch) into a :class:`SimulationOutput`.

    Subclasses define :attr:`name`, :attr:`version`, :attr:`info` and
    :meth:`simulate`.  ``version`` enters the runner's
    content-addressed cache key for non-default backends, so bumping it
    invalidates exactly that backend's cached results.
    """

    name: str = "?"
    version: str = "0"
    #: Ladder metadata; the default marks an unranked backend that the
    #: ``auto`` policy never selects (third-party backends work without
    #: declaring a rung).
    info: BackendInfo = BackendInfo()

    @property
    def capabilities(self) -> BackendCapabilities:
        """The backend's capabilities (derived from :attr:`info`)."""
        return self.info.capabilities

    def promised_error(self, request) -> float:
        """Expected |chip-power| relative error for one request.

        The bound the ``auto`` policy holds against the request's
        ``error_budget``, and the value recorded as ``promised_error``
        on results and cache entries.  Exact backends promise 0.0; the
        default estimator promise is the nominal
        :attr:`BackendInfo.expected_error`; calibrated backends refine
        it per request (and return ``inf`` when they cannot serve the
        request's config at all).
        """
        if self.info.capabilities.exact:
            return 0.0
        return self.info.expected_error

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} {self.name!r} "
                f"v{self.version} tier={self.info.tier} "
                f"{self.capabilities}>")

    @abstractmethod
    def simulate(self, config: GPUConfig, launch: KernelLaunch, *,
                 max_cycles: float = 5e8,
                 gmem: Optional[np.ndarray] = None,
                 tracer=None) -> SimulationOutput:
        """Run one kernel launch.

        Args:
            config: Architecture to simulate.
            launch: Kernel launch descriptor.
            max_cycles: Watchdog -- implementations must refuse to
                produce results claiming more shader cycles than this.
            gmem: Optional pre-existing global-memory image (dependent
                kernel chains); the launch's own image is built when
                None.
            tracer: Optional :class:`~repro.telemetry.ActivityTracer`.
                Backends whose capabilities say
                ``supports_tracing=False`` must raise
                :class:`BackendError` rather than silently return an
                untraced result.
        """

    def cache_signature(self, job) -> Dict[str, str]:
        """The backend's contribution to a job's content-addressed key.

        The runner embeds this dict in
        :func:`repro.runner.cache.request_key` for non-default backends
        (and whenever the job carries backend options).  The base form
        is name+version; backends whose results depend on tunables (e.g.
        ``parallel_cycle``'s epoch length and shard count) override this
        to fold the *resolved* option values in, so differently-tuned
        runs never collide in the cache.
        """
        return {"name": self.name, "version": str(self.version)}

    def check_tracer(self, tracer) -> None:
        """Raise :class:`BackendError` on an unsupported tracer.

        ``tracer`` is an :class:`~repro.telemetry.ActivityTracer` or a
        request's ``trace_interval``; ``None`` means untraced.
        """
        if tracer is not None and not self.capabilities.supports_tracing:
            raise BackendError(
                f"backend {self.name!r} does not support activity tracing"
            )

    def check_sanitize(self, sanitize: bool) -> None:
        """Raise :class:`BackendError` on an unsupported sanitize ask."""
        if sanitize and not self.capabilities.supports_sanitize:
            raise BackendError(
                f"backend {self.name!r} does not support the runtime "
                f"sanitizer (no memory instructions are executed)"
            )

    def simulate_sequence(self, config: GPUConfig,
                          launches: List[KernelLaunch], *,
                          max_cycles: float = 5e8,
                          **options) -> List[SimulationOutput]:
        """Run dependent kernels back-to-back on a shared memory image.

        The first launch's initial data is applied; every later kernel
        sees the global memory its predecessors left behind -- how real
        multi-kernel benchmarks (bfs, backprop, mergeSort) actually
        execute.  Each kernel runs through :meth:`simulate` on fresh
        timing state, so its activity report stands alone.  ``options``
        (``tracer``, ``sanitize``, backend options) go to every
        :meth:`simulate` call: one tracer, and its sink, serve the whole
        chain.  :meth:`repro.request.SimRequest.execute_chain` is the
        caller that builds them from a request.
        """
        if not launches:
            return []
        words = max(l.gmem_words for l in launches)
        gmem = np.zeros(words, dtype=np.float64)
        outputs = []
        # High-water mark of memory words already materialised.  Each
        # launch's initial image is applied only *beyond* that mark:
        # words below it belong to predecessors' live output and must
        # not be clobbered, words above it are fresh input this launch
        # declares.
        seen = 0
        for launch in launches:
            if launch.gmem_words > seen:
                image = launch.build_global_memory()
                gmem[seen:launch.gmem_words] = image[seen:launch.gmem_words]
                seen = launch.gmem_words
            outputs.append(self.simulate(config, launch,
                                         max_cycles=max_cycles,
                                         gmem=gmem, **options))
        return outputs


# ---------------------------------------------------------------------------
# Registry (mirrors repro.experiments.base)
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, SimulationBackend] = {}


def register_backend(backend: SimulationBackend) -> SimulationBackend:
    """Register (or re-register) a backend instance under its name.

    Returns the backend so the call can double as a module-level
    definition: ``BACKEND = register_backend(MyBackend())``.
    Re-registration replaces the previous instance -- cache keys embed
    the backend's *name and version*, not its identity, so results
    survive a re-registration of an equivalent backend.
    """
    name = getattr(backend, "name", "")
    if not name or name == "?":
        raise ValueError(f"backend {backend!r} needs a non-empty name")
    _REGISTRY[name] = backend
    return backend


def get_backend(name: str) -> SimulationBackend:
    """Look up a registered backend by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown simulation backend {name!r}; "
            f"registered: {', '.join(list_backends()) or '(none)'}"
        ) from None


def list_backends() -> List[str]:
    """Sorted names of all registered backends."""
    return sorted(_REGISTRY)


def all_backends() -> Dict[str, SimulationBackend]:
    """Name -> backend mapping (a copy; mutating it registers nothing)."""
    return dict(_REGISTRY)


# ---------------------------------------------------------------------------
# The fidelity ladder and the `auto` selection policy
# ---------------------------------------------------------------------------


def ladder() -> List[SimulationBackend]:
    """Every registered backend, cheapest tier first (ties by name)."""
    return sorted(_REGISTRY.values(),
                  key=lambda b: (b.info.tier, b.name))


def escalation_path(require_tracing: bool = False
                    ) -> List[SimulationBackend]:
    """The ``auto`` policy's candidates, cheapest first.

    Only auto-eligible rungs (``info.auto``); with ``require_tracing``
    the path further narrows to backends that can drive an
    :class:`~repro.telemetry.ActivityTracer`, so a traced auto request
    never resolves to an estimator that cannot produce windows.
    """
    return [b for b in ladder()
            if b.info.auto
            and (not require_tracing or b.capabilities.supports_tracing)]


def resolve_backend(request) -> Tuple[str, float]:
    """Resolve a request's backend name; returns ``(name, promised)``.

    ``request`` is a :class:`~repro.request.SimRequest` (or anything
    request-shaped).  A concrete backend name resolves to itself plus
    that backend's per-request promise.  :data:`AUTO_BACKEND` takes the
    cheapest rung of :func:`escalation_path` whose promise fits the
    request's ``error_budget`` (a fraction; ``None`` means 0.0, exact),
    escalating ``surrogate -> analytical -> cycle``; the exact tier
    promises 0.0, so the walk always terminates.

    Its one caller is :meth:`repro.request.SimRequest.resolve`, which
    each entry point runs once per request, *before* cache keying.
    """
    name = getattr(request, "backend", DEFAULT_BACKEND)
    if name != AUTO_BACKEND:
        backend = get_backend(name)
        return name, backend.promised_error(request)
    budget = getattr(request, "error_budget", None)
    budget = 0.0 if budget is None else float(budget)
    traced = getattr(request, "trace_interval", None) is not None
    candidates = escalation_path(require_tracing=traced)
    if budget <= 0.0:
        # A zero budget demands exactness; estimators can never fit,
        # so don't pay for (or risk) their per-request promise models.
        candidates = [b for b in candidates
                      if b.info.capabilities.exact]
    if not candidates:
        raise BackendError("no auto-eligible backend is registered")
    chosen, promised = None, float("inf")
    for backend in candidates:
        promised = backend.promised_error(request)
        chosen = backend
        if promised <= budget:
            break
    return chosen.name, promised
