"""Sharded cycle simulation with epoch-based relaxed synchronization.

The serial ``cycle`` backend's cost is one event loop over all cores.
This backend splits that loop: each *shard* owns a disjoint,
cluster-aligned subset of cores plus a private
:class:`~repro.sim.memsys.MemorySystem`, and advances independently up
to an epoch horizon of ``epoch_cycles`` shader cycles.  At each epoch
barrier the coordinator exchanges what shards cannot see locally:

* **block-dispatch claims** -- the shared pending queue lives in the
  coordinator; shards report free block slots and receive grants, so no
  block ever runs twice;
* **shared-resource pressure** -- each shard models the others' NoC and
  DRAM load with *zero lag* as a ratio times its own instantaneously
  measured utilization (symmetry prior: the other shards look like me,
  right now); the coordinator only corrects the *ratio* at barriers
  from the shards' reported raw bandwidth consumption
  (:meth:`~repro.sim.memsys.MemorySystem.set_background`).

Functional results are exact: every block executes exactly once with
full fidelity, so the merged memory image matches ``cycle`` whenever
blocks write disjoint outputs (all bundled workloads do).  *Timing* is
approximate -- cross-shard contention is modelled, not replayed -- so
the backend registers with ``exact=False``.  The knob trades error for
synchronization cost: ``epoch_cycles=None`` (infinity) runs each shard
dry in one epoch, small values converge toward serial timing, and one
shard degenerates to the serial engine bit for bit.

Shards run as forked worker processes by default, falling back to
in-process execution (identical results, no speedup) when only one CPU
is wanted, when the caller is itself a daemon worker of the job runner,
or when a shard process dies mid-run.
"""

from __future__ import annotations

import math
import multiprocessing
from multiprocessing import connection
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..isa.launch import KernelLaunch
from ..sim.activity import ActivityReport, set_cycle_envelope
from ..sim.config import GPUConfig
from ..sim.core import Core, max_resident_blocks
from ..sim.gpu import GPU, SimulationOutput
from ..sim.memsys import MemorySystem
from ..sim.shard import ShardEngine, dispatch_order, plan_initial_placement
from ..telemetry.sink import BoundaryRecorder
from ..telemetry.window import sum_counters
from .base import BackendCapabilities, BackendInfo, SimulationBackend

#: Default epoch horizon in shader cycles.  Empirically small enough to
#: keep Table IV timing error within the validation gates while paying
#: few barriers per kernel (see ``benchmarks/test_bench_parallel.py``).
DEFAULT_EPOCH_CYCLES: Optional[float] = 250.0

#: Default shard count before clamping to the config's cluster count.
DEFAULT_SHARDS = 4

#: Cap on the coordinator-corrected foreign-to-local traffic ratio.
#: A shard that has produced almost no traffic itself would otherwise
#: divide by its own near-zero load and saturate every access.
RATIO_CAP = 8.0

#: First-barrier horizon in shader cycles: an early barrier lets the
#: coordinator replace the symmetry prior (everyone looks like me) with
#: a measured traffic ratio soon after launch, even for large epochs.
WARMUP_CYCLES = 32.0


def _shard_core_ids(config: GPUConfig, n_shards: int) -> List[List[int]]:
    """Partition cores into ``n_shards`` contiguous cluster chunks.

    Cluster-aligned so shard-local ``active_clusters`` counts sum
    exactly to the whole-GPU value.
    """
    per, extra = divmod(config.n_clusters, n_shards)
    shards: List[List[int]] = []
    cluster = 0
    for k in range(n_shards):
        take = per + (1 if k < extra else 0)
        ids: List[int] = []
        for c in range(cluster, cluster + take):
            base = c * config.cores_per_cluster
            ids.extend(range(base, base + config.cores_per_cluster))
        shards.append(ids)
        cluster += take
    return shards


class _ShardSession:
    """Worker-side state of one shard: engine, tracer, memory diff.

    The same object backs both execution modes -- in-process shards call
    it directly, forked shards drive it over a pipe -- so results cannot
    depend on the process topology.
    """

    def __init__(self, config: GPUConfig, core_ids: Sequence[int],
                 dispatch_order: Sequence[int], launch: KernelLaunch,
                 base_gmem: np.ndarray,
                 assignments: Sequence[Tuple[int, int]],
                 trace_interval: Optional[float],
                 max_cycles: float, sanitize: bool = False) -> None:
        self.launch = launch
        self.max_cycles = max_cycles
        self.base_gmem = base_gmem
        self.gmem = base_gmem.copy()
        memsys = MemorySystem(config)
        cores = [Core(i, config, memsys) for i in core_ids]
        order = [cid for cid in dispatch_order if cid in set(core_ids)]
        self.engine = ShardEngine(config, memsys, cores, order)
        self.engine.prepare(launch, self.gmem, launch.const_init)
        self.engine.load_assignments(assignments)
        self.engine.seed()
        self.sanitizer = None
        if sanitize:
            from ..sim.sanitizer import Sanitizer
            self.sanitizer = Sanitizer(launch,
                                       gmem_words=len(base_gmem))
            for core in cores:
                core.sanitizer = self.sanitizer
        if trace_interval is not None:
            self.engine.tracer = BoundaryRecorder(trace_interval)
            self.engine.tracer.begin(self.engine.collect)

    def epoch(self, horizon: Optional[float], grants: Sequence[int],
              ratio: float,
              foreign_fills: Sequence[int]) -> Dict[str, object]:
        """Run one epoch; returns the barrier report."""
        engine = self.engine
        engine.memsys.set_background(ratio)
        if foreign_fills:
            engine.memsys.install_l2_lines(list(foreign_fills))
        if grants:
            engine.extend_queue(grants)
        engine.barrier_fill()
        active = engine.step_epoch(horizon, self.max_cycles,
                                   self.launch.kernel.name)
        return {
            "active": active,
            "final_time": engine.final_time,
            "usable_slots": engine.usable_slots,
            "backlog": engine.backlog,
            "busy": engine.memsys.uncore_busy,
            "l2_fills": engine.memsys.drain_l2_fills(),
        }

    def finish(self) -> Dict[str, object]:
        """Final shard result: aggregate, boundary snapshots, gmem diff."""
        engine = self.engine
        activity = engine.collect(engine.final_time)
        tracer = engine.tracer
        boundaries = [] if tracer is None else [
            (b, report.to_dict()) for b, report in tracer.boundaries]
        changed = self.gmem != self.base_gmem
        idx = np.nonzero(changed)[0]
        return {
            "activity": activity.to_dict(),
            "boundaries": boundaries,
            "final_time": engine.final_time,
            "gmem_idx": idx,
            "gmem_val": self.gmem[idx],
            "sanitizer": (None if self.sanitizer is None
                          else self.sanitizer.export_state()),
        }


def _shard_worker_main(conn, config, core_ids, dispatch_order, launch,
                       base_gmem, assignments, trace_interval,
                       max_cycles, sanitize) -> None:
    """Forked shard process: serve epoch/finish requests over ``conn``."""
    try:
        session = _ShardSession(config, core_ids, dispatch_order, launch,
                                base_gmem, assignments, trace_interval,
                                max_cycles, sanitize)
        while True:
            msg = conn.recv()
            if msg[0] == "epoch":
                conn.send(("ok", session.epoch(*msg[1:])))
            elif msg[0] == "finish":
                conn.send(("ok", session.finish()))
                break
            else:  # pragma: no cover - protocol guard
                raise RuntimeError(f"unknown shard request {msg[0]!r}")
    except Exception as exc:  # noqa: BLE001 - forwarded to the parent
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except OSError:
            pass
    finally:
        conn.close()


class _LocalShard:
    """In-process shard driver (no parallelism, identical results)."""

    def __init__(self, *args) -> None:
        self.session = _ShardSession(*args)

    def send_epoch(self, horizon, grants, ratio, fills) -> None:
        self._report = self.session.epoch(horizon, grants, ratio, fills)

    def recv(self):
        return self._report

    def send_finish(self) -> None:
        self._report = self.session.finish()

    def close(self) -> None:
        pass


class _ProcShard:
    """Forked shard driver speaking the epoch protocol over a pipe."""

    def __init__(self, ctx, *args) -> None:
        self.conn, child = connection.Pipe(duplex=True)
        self.proc = ctx.Process(target=_shard_worker_main,
                                args=(child,) + args, daemon=True)
        self.proc.start()
        child.close()

    def send_epoch(self, horizon, grants, ratio, fills) -> None:
        self.conn.send(("epoch", horizon, list(grants), ratio, list(fills)))

    def send_finish(self) -> None:
        self.conn.send(("finish",))

    def recv(self):
        status, payload = self.conn.recv()
        if status == "error":
            raise ShardWorkerError(payload)
        return payload

    def close(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        if self.proc.is_alive():
            self.proc.kill()
        self.proc.join()


class ShardWorkerError(RuntimeError):
    """A shard worker reported a simulation error (re-raised verbatim)."""


class ParallelCycleBackend(SimulationBackend):
    """Cycle simulation sharded across workers with epoch barriers."""

    name = "parallel_cycle"
    version = "p1"
    #: Nominal expected |power| error at the default 250-cycle epoch
    #: (~0.1% measured, gated <= 3% in CI).  Not auto-eligible: shard
    #: count and epoch length are host-dependent tuning the policy
    #: cannot pick blind.
    info = BackendInfo(
        tier=2, expected_error=0.01, relative_cost=0.4,
        capabilities=BackendCapabilities(supports_tracing=True,
                                         exact=False,
                                         supports_sanitize=True),
        auto=False,
        description="sharded cycle simulation, epoch-relaxed timing")

    def resolve_options(self, config: GPUConfig,
                        options: Optional[Dict[str, object]] = None,
                        ) -> Tuple[Optional[float], int, bool]:
        """Resolve ``(epoch_cycles, n_shards, processes)`` for a config.

        Shards are clamped to the cluster count (partitioning is
        cluster-aligned); worker processes are disabled for a single
        shard and inside daemonic runner workers, which may not fork.
        """
        opts = dict(options or {})
        epoch = opts.get("epoch_cycles", DEFAULT_EPOCH_CYCLES)
        if epoch is not None:
            epoch = float(epoch)
            if math.isinf(epoch):
                epoch = None  # `inf` spelled as a float (e.g. the CLI)
            elif not epoch > 0:
                raise ValueError(
                    f"epoch_cycles must be positive or None, got {epoch!r}")
        requested = opts.get("n_shards") or DEFAULT_SHARDS
        n_shards = max(1, min(int(requested), config.n_clusters))
        processes = opts.get("processes")
        if processes is None:
            processes = n_shards > 1
        processes = bool(processes) and n_shards > 1 \
            and not multiprocessing.current_process().daemon
        return epoch, n_shards, processes

    def cache_signature(self, job) -> Dict[str, str]:
        """Name+version plus the *resolved* knobs that change results.

        ``processes`` is execution policy (local vs forked shards give
        identical results) and stays out of the key; epoch length and
        shard count change timing and must never collide.
        """
        epoch, n_shards, _ = self.resolve_options(
            job.config, getattr(job, "backend_options", None))
        return {
            "name": self.name,
            "version": str(self.version),
            "epoch_cycles": "inf" if epoch is None else repr(epoch),
            "n_shards": str(n_shards),
        }

    def simulate(self, config: GPUConfig, launch: KernelLaunch, *,
                 max_cycles: float = 5e8,
                 gmem: Optional[np.ndarray] = None,
                 tracer=None,
                 sanitize: bool = False,
                 epoch_cycles: object = "default",
                 n_shards: Optional[int] = None,
                 processes: Optional[bool] = None) -> SimulationOutput:
        self.check_tracer(tracer)
        self.check_sanitize(sanitize)
        options: Dict[str, object] = {}
        if epoch_cycles != "default":
            options["epoch_cycles"] = epoch_cycles
        options["n_shards"] = n_shards
        options["processes"] = processes
        epoch, shards, use_procs = self.resolve_options(config, options)
        if gmem is None:
            gmem = launch.build_global_memory()
        if shards == 1:
            # One shard is the serial engine: bit-identical to `cycle`.
            sanitizer = None
            if sanitize:
                from ..sim.sanitizer import Sanitizer
                sanitizer = Sanitizer(launch, gmem_words=len(gmem))
            return GPU(config).run(launch, max_cycles=max_cycles,
                                   gmem=gmem, tracer=tracer,
                                   sanitizer=sanitizer)
        try:
            return self._run_sharded(config, launch, max_cycles, gmem,
                                     tracer, epoch, shards, use_procs,
                                     sanitize)
        except (EOFError, BrokenPipeError, OSError):
            # A shard process died (OOM kill, interpreter teardown...).
            # The computation is deterministic, so replaying it entirely
            # in-process yields the same result, just without speedup.
            return self._run_sharded(config, launch, max_cycles, gmem,
                                     tracer, epoch, shards, False,
                                     sanitize)

    # -- coordinator ----------------------------------------------------------

    def _run_sharded(self, config, launch, max_cycles, gmem, tracer,
                     epoch, n_shards, use_procs,
                     sanitize=False) -> SimulationOutput:
        order = dispatch_order(config)
        core_sets = _shard_core_ids(config, n_shards)
        owner = {cid: k for k, ids in enumerate(core_sets) for cid in ids}

        # Plan the Fig. 4 initial placement globally, then split it.
        capacity = max_resident_blocks(config, launch.kernel,
                                       launch.block.count)
        placed, n_placed = plan_initial_placement(order, capacity,
                                                  launch.grid.count)
        assignments: List[List[Tuple[int, int]]] = [[] for _ in core_sets]
        for cid, block in placed:
            assignments[owner[cid]].append((cid, block))
        tail = list(range(n_placed, launch.grid.count))

        interval = tracer.interval_cycles if tracer is not None else None
        shard_args = [
            (config, core_sets[k], order, launch, gmem, assignments[k],
             interval, max_cycles, sanitize)
            for k in range(n_shards)
        ]
        if use_procs:
            ctx = self._fork_context()
            drivers = [_ProcShard(ctx, *a) for a in shard_args]
        else:
            drivers = [_LocalShard(*a) for a in shard_args]

        try:
            results = self._coordinate(drivers, config, epoch, tail)
        finally:
            for d in drivers:
                d.close()

        return self._merge(config, launch, gmem, tracer, results)

    def _coordinate(self, drivers, config, epoch, tail):
        """Drive all shards epoch by epoch until the launch drains."""
        n = len(drivers)
        # Symmetry prior: until measured otherwise, each shard assumes
        # the other n-1 shards generate exactly its own traffic.
        ratio = [float(n - 1)] * n
        grants: List[List[int]] = [[] for _ in range(n)]
        fills: List[List[int]] = [[] for _ in range(n)]
        warmup = None if epoch is None else min(WARMUP_CYCLES, epoch)
        epoch_index = 0
        while True:
            horizon = None if epoch is None \
                else warmup + epoch * epoch_index
            for k, d in enumerate(drivers):
                d.send_epoch(horizon, grants[k], ratio[k], fills[k])
            reports = [d.recv() for d in drivers]

            # Mirror every shard's L2 fills into the other shards next
            # epoch, so the logically-shared L2 keeps serving
            # cross-shard hits (with one barrier of lag).
            epoch_fills = [r["l2_fills"] for r in reports]
            fills = [
                sorted({a for j, fl in enumerate(epoch_fills) if j != k
                        for a in fl})
                for k in range(n)
            ]

            # Correct the foreign-to-local traffic ratio from measured
            # cumulative bandwidth use.  The shard itself turns the
            # ratio into load with zero lag (ratio times its own
            # instantaneous utilization), so the coordinator only needs
            # this slowly-varying scale factor; cumulative (not
            # per-epoch) ratios damp the feedback loop.  A shard with
            # no traffic yet keeps the symmetry prior.
            if epoch is not None:
                busy = [r["busy"] for r in reports]
                total = sum(busy)
                ratio = [
                    min(RATIO_CAP, (total - b_k) / b_k) if b_k > 0
                    else float(n - 1)
                    for b_k in busy
                ]

            # Grant pending blocks against reported free capacity.
            grants = [[] for _ in range(n)]
            for k, r in enumerate(reports):
                want = max(0, int(r["usable_slots"]) - int(r["backlog"]))
                while want > 0 and tail:
                    grants[k].append(tail.pop(0))
                    want -= 1

            any_active = any(r["active"] for r in reports)
            any_backlog = any(r["backlog"] for r in reports)
            any_grants = any(grants)
            if not any_active and not any_grants:
                if tail or any_backlog:
                    raise RuntimeError(
                        "scheduler finished with unplaced blocks")
                break
            epoch_index += 1

        for d in drivers:
            d.send_finish()
        return [d.recv() for d in drivers]

    # -- merge ----------------------------------------------------------------

    @staticmethod
    def _merge_cumulative(config: GPUConfig, t: float,
                          snapshots: Sequence[ActivityReport],
                          ) -> ActivityReport:
        """Whole-GPU cumulative report at time ``t``: shard counters
        (launch fields included) summed, the cycle envelope from ``t``."""
        act = sum_counters(snapshots)
        set_cycle_envelope(act, config, t)
        return act

    def _merge(self, config, launch, gmem, tracer, results
               ) -> SimulationOutput:
        final_time = max(r["final_time"] for r in results)
        aggregates = [ActivityReport.from_dict(r["activity"])
                      for r in results]
        activity = self._merge_cumulative(config, final_time, aggregates)

        for r in results:
            gmem[r["gmem_idx"]] = r["gmem_val"]

        diagnostics = None
        if any(r.get("sanitizer") is not None for r in results):
            # Blocks never span shards, so block-local findings are
            # already final; only global-memory access sets need a
            # cross-shard union before analysis.
            from ..sim.sanitizer import Sanitizer
            merged = Sanitizer(launch, gmem_words=len(gmem))
            for r in results:
                if r.get("sanitizer") is not None:
                    merged.absorb(r["sanitizer"])
            diagnostics = merged.finalize()

        windows = None
        if tracer is not None:
            # The shards recorded cumulatives on the tracer's boundary
            # grid; the tracer cuts windows from their per-boundary sum
            # (a shard that already finished contributes its aggregate).
            per_shard = [
                {b: ActivityReport.from_dict(d) for b, d in r["boundaries"]}
                for r in results
            ]

            def snapshot(t: float) -> ActivityReport:
                return self._merge_cumulative(
                    config, t, [shard.get(t, aggregates[k])
                                for k, shard in enumerate(per_shard)])

            tracer.begin(snapshot, config=config, launch=launch)
            tracer.cut(final_time)
            windows = tracer.finish(final_time, activity)

        return SimulationOutput(
            config=config,
            launch=launch,
            activity=activity,
            gmem=gmem,
            cycles=final_time,
            windows=windows,
            diagnostics=diagnostics,
        )

    @staticmethod
    def _fork_context():
        """Fork-preferring multiprocessing context (shards inherit the
        prepared launch/memory state instead of re-pickling it)."""
        try:
            return multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            return multiprocessing.get_context()
