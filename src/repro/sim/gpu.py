"""Whole-GPU performance simulation: global scheduler, cores, uncore.

The global (block) scheduler reproduces the distribution policy the paper
observes in Fig. 4: "Until the entire chip is occupied, blocks are
distributed first not only to unoccupied cores, but also to unoccupied
clusters" -- i.e. blocks fill breadth-first across clusters, then across
cores within clusters, and only then stack up on already-occupied cores.

:func:`simulate` runs one kernel launch to completion and returns a
:class:`SimulationOutput` with the final memory image (for functional
verification) and the aggregated :class:`~repro.sim.activity.ActivityReport`
(for the power model).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from ..isa.launch import KernelLaunch
from .activity import ActivityReport, set_launch_envelope
from .config import GPUConfig
from .core import Core, SimulationDeadlock, max_resident_blocks
from .functional import VECTORIZED, FunctionalBinding
from .memsys import MemorySystem
from .shard import ShardEngine, dispatch_order, plan_initial_placement

if TYPE_CHECKING:  # telemetry imports sim, never the other way around
    from ..telemetry.sink import ActivityTracer
    from ..telemetry.window import ActivityWindow


@dataclass
class SimulationOutput:
    """Result of simulating one kernel launch.

    ``gmem`` is the final global-memory image for fresh simulations and
    ``None`` for replayed results (:meth:`replay`); ``windows`` holds
    the telemetry activity windows when the run was traced.
    """

    config: GPUConfig
    launch: Optional[KernelLaunch]
    activity: ActivityReport
    gmem: Optional[np.ndarray]
    cycles: float
    windows: Optional[List["ActivityWindow"]] = field(default=None,
                                                      repr=False)
    #: Runtime-sanitizer findings (:class:`repro.analysis.Diagnostic`
    #: records) for sanitized runs; ``None`` when no sanitizer rode
    #: along.  Never cached: the cached artifact is the unsanitized
    #: result, which is byte-identical by construction.
    diagnostics: Optional[List] = field(default=None, repr=False)

    @property
    def runtime_s(self) -> float:
        return self.activity.runtime_s

    @property
    def ipc(self) -> float:
        """Issued warp instructions per shader cycle (whole GPU)."""
        if self.cycles <= 0:
            return 0.0
        return self.activity.issued_instructions / self.cycles

    @classmethod
    def replay(cls, config: GPUConfig, launch: Optional[KernelLaunch],
               activity: ActivityReport,
               windows: Optional[List["ActivityWindow"]] = None,
               ) -> "SimulationOutput":
        """A performance record rebuilt from a saved activity report.

        Used by power-model sweeps and cached results: timing
        (``cycles`` *and* ``runtime_s``) comes from the supplied report
        itself -- ``runtime_s`` is never rederived from shader cycles,
        so a report whose runtime does not equal ``shader_cycles /
        shader_clock_hz`` (scaled traces, foreign-clock sweeps) keeps
        its real runtime and energy numbers.  No memory image is
        fabricated (``gmem`` is ``None``).
        """
        return cls(config=config, launch=launch, activity=activity,
                   gmem=None, cycles=activity.shader_cycles,
                   windows=windows)


class GPU:
    """A configured GPU able to run kernel launches.

    ``functional`` is the value-level layer every core executes with;
    :data:`repro.sim.functional_ref.REFERENCE` runs the scalar oracle
    instead of the vectorised default.
    """

    def __init__(self, config: GPUConfig,
                 functional: FunctionalBinding = VECTORIZED) -> None:
        self.config = config
        self.memsys = MemorySystem(config)
        self.cores: List[Core] = [
            Core(i, config, self.memsys, functional)
            for i in range(config.n_cores)
        ]
        self._dispatch_order = dispatch_order(config)

    def run(self, launch: KernelLaunch, max_cycles: float = 5e8,
            gmem: Optional[np.ndarray] = None,
            tracer: Optional["ActivityTracer"] = None,
            sanitizer=None) -> SimulationOutput:
        """Simulate ``launch`` to completion.

        Args:
            gmem: Optional pre-existing global-memory image to execute
                against (used by :meth:`run_sequence`); by default the
                launch's own initial image is built.
            tracer: Optional :class:`~repro.telemetry.ActivityTracer`;
                when given, cumulative activity is snapshotted at every
                window boundary and the output carries the per-window
                deltas.  Tracing only *reads* counters, so simulation
                results are bit-identical with or without it.
            sanitizer: Optional :class:`~repro.sim.sanitizer.Sanitizer`
                attached to every core for the duration of the run.
                Like tracing, sanitizing only observes: activity,
                timing and the memory image are bit-identical with or
                without it.  Findings land on the output's
                ``diagnostics``; a run aborting with an ``IndexError``
                or :class:`~repro.sim.core.SimulationDeadlock` carries
                them on the exception instead
                (``exc.sanitizer_diagnostics``).
        """
        config = self.config
        if gmem is None:
            gmem = launch.build_global_memory()
        cmem = launch.const_init

        # One full-width shard with an unbounded horizon reproduces the
        # historical inline event loop bit for bit (same heap tuples,
        # same tie-breaks, same float arithmetic).
        engine = ShardEngine(config, self.memsys, self.cores,
                             self._dispatch_order)
        engine.prepare(launch, gmem, cmem)
        if tracer is not None:
            tracer.begin(lambda t: self._collect(engine, launch, t),
                         config=config, launch=launch)
            engine.tracer = tracer
        if sanitizer is not None:
            for core in self.cores:
                core.sanitizer = sanitizer

        capacity = max_resident_blocks(config, launch.kernel,
                                       launch.block.count)
        placed, n_placed = plan_initial_placement(
            self._dispatch_order, capacity, launch.grid.count)
        engine.load_assignments(placed)
        engine.extend_queue(range(n_placed, launch.grid.count))
        engine.seed()
        try:
            engine.step_epoch(None, max_cycles, launch.kernel.name)
        except SimulationDeadlock as exc:
            if sanitizer is not None:
                from .sanitizer import attach_diagnostics
                sanitizer.on_deadlock(str(exc))
                raise attach_diagnostics(exc, sanitizer.finalize())
            raise
        except IndexError as exc:
            if sanitizer is not None:
                from .sanitizer import attach_diagnostics
                raise attach_diagnostics(exc, sanitizer.finalize())
            raise
        finally:
            if sanitizer is not None:
                for core in self.cores:
                    core.sanitizer = None

        if engine.unplaced:
            raise RuntimeError("scheduler finished with unplaced blocks")
        final_time = engine.final_time

        activity = self._collect(engine, launch, final_time)
        windows = None
        if tracer is not None:
            windows = tracer.finish(final_time, activity)
        return SimulationOutput(
            config=config,
            launch=launch,
            activity=activity,
            gmem=gmem,
            cycles=final_time,
            windows=windows,
            diagnostics=(None if sanitizer is None
                         else sanitizer.finalize()),
        )

    # -- aggregation ----------------------------------------------------------

    def _collect(self, engine: ShardEngine, launch: KernelLaunch,
                 cycles: float) -> ActivityReport:
        """The engine's report; every block counts as launched from
        cycle 0."""
        act = engine.collect(cycles)
        set_launch_envelope(act, self.config, launch.block.count,
                            launch.grid.count)
        return act


def simulate(config: GPUConfig, launch: KernelLaunch,
             tracer: Optional["ActivityTracer"] = None) -> SimulationOutput:
    """Convenience wrapper: build a fresh GPU and run one launch."""
    return GPU(config).run(launch, tracer=tracer)

