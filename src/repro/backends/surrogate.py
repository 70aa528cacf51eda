"""The ``surrogate`` backend: zero-execution power/cycle estimation.

The cheapest rung of the fidelity ladder.  Where ``analytical`` still
*executes* sampled warps to profile a kernel, the surrogate never runs
a single instruction: it predicts a launch's activity from **static**
features alone -- the instruction mix, divergence, bank-conflict phases
and coalescing ratios the :mod:`repro.analysis` passes derive
symbolically from the IR -- so a query costs a feature lookup plus a
k-nearest-neighbour blend, microseconds instead of milliseconds.

Why this works: chip power in the GPUSimPow model is
``static + sum(coefficient * rate(counter))`` where ``rate(counter) =
counter / runtime_s``.  Scale-free *per-cycle* rates therefore
determine dynamic power exactly, independent of how many cycles the
kernel runs -- so the surrogate predicts per-cycle counter rates (the
well-conditioned quantity) and cycle counts separately (a coarse
log-space work scaling; order-of-magnitude only, and documented as
such).  Power is the calibrated, promised quantity.

Calibration (:func:`calibrate_surrogate`) runs the exact ``cycle``
backend over a set of workloads for one config -- through the pooled,
cached runner, so re-calibration against warm caches is instant -- and
stores each kernel's ``(feature vector, per-cycle rates,
cycles-per-work-unit)``.  A prediction z-scores the query's features
against the table and blends the ``k=3`` nearest kernels with
inverse-distance weights.  Leave-one-out cross-validation over the
table yields the *honest* expected-error model: the promise for a
query is the LOO mean error, inflated toward the LOO max as the
query's nearest-neighbour distance leaves the table's coverage, and
floored at :data:`OUT_OF_COVERAGE_ERROR` beyond it -- which is what
makes the ``auto`` policy escalate off the surrogate for kernels it
has never seen the likes of.

Tables persist content-addressed like cache entries
(:class:`CalibrationStore`): keyed by the config's signature digest,
carrying their own content hash, invalidated by any
``SIM_VERSION``/:data:`SURROGATE_VERSION` bump.  Tables for the two
hardware presets ship with the package (``calibdata/``), so
``--backend auto`` works out of the box.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..isa.launch import KernelLaunch
from ..isa.serialize import kernel_digest
from ..serialize import write_json_atomic
from ..sim.activity import (ActivityReport, set_cycle_envelope,
                            set_launch_envelope)
from ..sim.config import GPUConfig, config_memo
from ..sim.gpu import SimulationOutput
from .base import (BackendCapabilities, BackendError, BackendInfo,
                   SimulationBackend)

#: Model version: enters cache keys (via ``cache_signature``) and
#: calibration tables; bump on any change to the features, the
#: neighbour blend or the activity reconstruction.
SURROGATE_VERSION = "1.0"

#: Promised error for queries outside the calibration table's feature
#: coverage: deliberately pessimistic, so reasonable budgets escalate.
OUT_OF_COVERAGE_ERROR = 0.25

#: Nearest neighbours blended per prediction.
K_NEIGHBOURS = 3

#: Multiple of the table's median nearest-neighbour distance at which
#: a query counts as fully out of coverage.
COVERAGE_RADIUS = 4.0

#: Environment variable overriding the calibration-table directory.
CALIB_DIR_ENV = "REPRO_CALIB_DIR"

#: The ordered static feature vector.  Geometry, occupancy and register
#: pressure come from the launch; everything else from the symbolic
#: analyzer (instruction mix weighted by mean active lanes, divergence,
#: predicted bank-conflict phases and coalescing ratios).
FEATURE_NAMES: Tuple[str, ...] = (
    "frac_int", "frac_fp", "frac_sfu", "frac_ctrl",
    "frac_gmem", "frac_smem", "frac_const", "frac_tex",
    "div_frac", "bank_phases", "coal_ratio",
    "log_threads", "log_blocks", "warps_per_block", "occupancy",
    "smem_words", "n_regs", "n_inst", "back_edges", "barrier",
)

#: Counters whose values follow from launch geometry alone; set
#: exactly, never predicted.
_GEOMETRY_COUNTERS = frozenset({
    "shader_cycles", "runtime_s", "blocks_launched", "warps_launched",
    "threads_launched", "active_cores", "active_clusters",
})


def counter_names() -> List[str]:
    """The predicted counters, in stable :class:`ActivityReport` order."""
    return [f.name for f in fields(ActivityReport)
            if f.name not in _GEOMETRY_COUNTERS]


def config_key(config: GPUConfig) -> str:
    """Digest of the config's full cache signature (table identity).

    Computed once per configuration content (:func:`config_memo`) -- a
    warm surrogate query must not pay for re-serializing the config.
    """
    return config_memo(config, "surrogate_key", _config_key)


def _config_key(config: GPUConfig) -> str:
    from ..runner.cache import config_signature
    blob = json.dumps(config_signature(config), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Static features
# ---------------------------------------------------------------------------


def kernel_features(launch: KernelLaunch,
                    config: GPUConfig) -> Dict[str, float]:
    """The surrogate's static feature vector for one launch.

    Pure static analysis: symbolic facts, memory-lint predictions and
    launch geometry.  No instruction is ever executed, no memory image
    is ever read.  Of the launch it reads only the kernel, the grid, the
    block and the repeat count, so two launches differing only in data,
    params or ``gmem_words`` have identical features (which is how the
    memo, keyed on :func:`_memo_key`, exploits this).
    """
    from ..analysis.framework import AnalysisManager, shape_for_launch
    from ..analysis.memlints import predict_memory
    from ..sim.core import max_resident_blocks

    kernel = launch.kernel
    shape = shape_for_launch(launch, config)
    manager = AnalysisManager(kernel, shape)
    facts = manager.symbolic

    # Instruction mix over reachable blocks, weighted by each block's
    # mean active-lane fraction (so divergent cold paths count less).
    unit_mix = {unit: 0.0 for unit in ("int", "fp", "sfu", "ctrl")}
    space_mix = {space: 0.0
                 for space in ("global", "shared", "const", "texture")}
    weighted_insts = 0.0
    for leader in facts.reachable_blocks:
        mask = facts.block_masks.get(leader)
        weight = float(mask.mean()) if mask is not None else 1.0
        for pc in range(leader, manager.block_ranges[leader]):
            inst = manager.instructions[pc]
            weighted_insts += weight
            if inst.unit == "mem":
                space_mix[inst.mem_space] += weight
            else:
                unit_mix[inst.unit] += weight
    weighted_insts = max(weighted_insts, 1.0)

    divergent = sum(1 for b in facts.branches.values() if not b.uniform)
    mem_report = predict_memory(facts, shape, kernel.name)
    phases = [s.phases for s in mem_report.sites
              if s.space == "shared" and s.comparable]
    ratios = [s.transactions_per_access
              / max(s.ideal_transactions_per_access, 1.0)
              for s in mem_report.sites
              if s.space == "global" and s.comparable]

    warps_per_block = -(-launch.block.count // config.warp_size)
    resident = max_resident_blocks(config, kernel, launch.block.count)
    back_edges = sum(1 for src, dsts in manager.cfg.items()
                     for dst in dsts if dst != -1 and dst <= src)

    feats = {
        "frac_int": unit_mix["int"] / weighted_insts,
        "frac_fp": unit_mix["fp"] / weighted_insts,
        "frac_sfu": unit_mix["sfu"] / weighted_insts,
        "frac_ctrl": unit_mix["ctrl"] / weighted_insts,
        "frac_gmem": space_mix["global"] / weighted_insts,
        "frac_smem": space_mix["shared"] / weighted_insts,
        "frac_const": space_mix["const"] / weighted_insts,
        "frac_tex": space_mix["texture"] / weighted_insts,
        "div_frac": divergent / max(len(facts.branches), 1),
        "bank_phases": float(np.mean(phases)) if phases else 1.0,
        "coal_ratio": float(np.mean(ratios)) if ratios else 1.0,
        "log_threads": math.log(launch.total_threads),
        "log_blocks": math.log(launch.grid.count),
        "warps_per_block": float(warps_per_block),
        "occupancy": min(resident * warps_per_block, 48) / 48.0,
        "smem_words": math.log1p(kernel.smem_words),
        "n_regs": float(kernel.n_regs),
        "n_inst": math.log(weighted_insts),
        "back_edges": float(back_edges),
        "barrier": (1.0 if any(i.op == "BAR"
                               for i in kernel.instructions) else 0.0),
    }
    # Work units for the (coarse) cycle scaling ride along so callers
    # never re-run the analysis just for the denominator.
    feats["_work_units"] = (launch.total_threads * weighted_insts
                           * max(launch.repeat, 1))
    return feats


def feature_vector(feats: Dict[str, float]) -> np.ndarray:
    return np.array([feats[name] for name in FEATURE_NAMES],
                    dtype=np.float64)


def work_units(feats: Dict[str, float]) -> float:
    return float(feats["_work_units"])


# ---------------------------------------------------------------------------
# Calibration table
# ---------------------------------------------------------------------------


def _scale(matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Robust z-scoring stats: a floor keeps near-constant features
    from exploding the distance metric when a query deviates."""
    mu = matrix.mean(axis=0)
    sd = matrix.std(axis=0) + 0.05 * (np.abs(mu) + 1.0)
    return mu, sd


@dataclass
class CalibrationEntry:
    """One calibrated kernel: features + its exact-backend ground truth."""

    name: str
    features: List[float]
    rates: List[float]            # per-cycle rate of every counter
    log_cycles_per_work: float
    cycles: float
    power_w: float
    loo_error: float = 0.0        # |power err| when predicted held-out

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "features": [float(v) for v in self.features],
            "rates": [float(v) for v in self.rates],
            "log_cycles_per_work": float(self.log_cycles_per_work),
            "cycles": float(self.cycles),
            "power_w": float(self.power_w),
            "loo_error": float(self.loo_error),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CalibrationEntry":
        return cls(
            name=str(data["name"]),
            features=[float(v) for v in data["features"]],
            rates=[float(v) for v in data["rates"]],
            log_cycles_per_work=float(data["log_cycles_per_work"]),
            cycles=float(data["cycles"]),
            power_w=float(data["power_w"]),
            loo_error=float(data.get("loo_error", 0.0)),
        )


@dataclass
class CalibrationTable:
    """Per-config surrogate model: calibrated kernels + error model.

    ``loo_mean``/``loo_max`` summarize the leave-one-out power-error
    distribution; ``ref_distance`` is the median nearest-neighbour
    distance among calibration kernels (the coverage scale the
    promised-error inflation is measured in).
    """

    config_name: str
    config_key: str
    sim_version: str
    surrogate_version: str
    feature_names: List[str]
    counter_names: List[str]
    entries: List[CalibrationEntry]
    mu: List[float] = field(default_factory=list)
    sd: List[float] = field(default_factory=list)
    loo_mean: float = 0.0
    loo_max: float = 0.0
    ref_distance: float = 0.0

    # -- identity -------------------------------------------------------------

    def payload(self) -> Dict[str, Any]:
        return {
            "format": 1,
            "config_name": self.config_name,
            "config_key": self.config_key,
            "sim_version": self.sim_version,
            "surrogate_version": self.surrogate_version,
            "feature_names": list(self.feature_names),
            "counter_names": list(self.counter_names),
            "entries": [e.to_dict() for e in self.entries],
            "mu": [float(v) for v in self.mu],
            "sd": [float(v) for v in self.sd],
            "loo_mean": float(self.loo_mean),
            "loo_max": float(self.loo_max),
            "ref_distance": float(self.ref_distance),
        }

    @property
    def key(self) -> str:
        """Content address of the table (hex SHA-256 of its payload).

        Computed lazily and cached -- tables are treated as immutable
        once their error model is fitted (mutating one afterwards is a
        bug, exactly as for cache entries).
        """
        cached = self.__dict__.get("_key_cache")
        if cached is None:
            blob = json.dumps(self.payload(), sort_keys=True,
                              separators=(",", ":"))
            cached = hashlib.sha256(blob.encode("utf-8")).hexdigest()
            self.__dict__["_key_cache"] = cached
        return cached

    def to_dict(self) -> Dict[str, Any]:
        data = self.payload()
        data["key"] = self.key
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CalibrationTable":
        table = cls(
            config_name=str(data["config_name"]),
            config_key=str(data["config_key"]),
            sim_version=str(data["sim_version"]),
            surrogate_version=str(data["surrogate_version"]),
            feature_names=[str(v) for v in data["feature_names"]],
            counter_names=[str(v) for v in data["counter_names"]],
            entries=[CalibrationEntry.from_dict(e)
                     for e in data["entries"]],
            mu=[float(v) for v in data["mu"]],
            sd=[float(v) for v in data["sd"]],
            loo_mean=float(data["loo_mean"]),
            loo_max=float(data["loo_max"]),
            ref_distance=float(data["ref_distance"]),
        )
        stored = data.get("key")
        if stored is not None and stored != table.key:
            raise ValueError(
                f"calibration table content hash mismatch: "
                f"stored {stored[:12]}..., computed {table.key[:12]}...")
        return table

    # -- prediction -----------------------------------------------------------

    def _knn_state(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized prediction state ``(mu, sd, z_matrix)``, built
        once per table (derived, never serialized)."""
        state = self.__dict__.get("_knn_cache")
        if state is None:
            mu = np.asarray(self.mu, dtype=np.float64)
            sd = np.asarray(self.sd, dtype=np.float64)
            matrix = np.stack([np.asarray(e.features, dtype=np.float64)
                               for e in self.entries])
            state = (mu, sd, (matrix - mu) / sd)
            self.__dict__["_knn_cache"] = state
        return state

    def _zscore(self, vector: np.ndarray) -> np.ndarray:
        mu, sd, _ = self._knn_state()
        return (vector - mu) / sd

    def neighbours(self, vector: np.ndarray,
                   k: int = K_NEIGHBOURS
                   ) -> List[Tuple[float, CalibrationEntry]]:
        """The ``k`` nearest calibration kernels (distance ascending,
        name-tie-broken for determinism)."""
        _, _, z_matrix = self._knn_state()
        query = self._zscore(np.asarray(vector, dtype=np.float64))
        distances = np.sqrt(((z_matrix - query) ** 2).sum(axis=1))
        order = sorted(range(len(self.entries)),
                       key=lambda i: (distances[i], self.entries[i].name))
        return [(float(distances[i]), self.entries[i])
                for i in order[:max(1, k)]]

    def predict(self, feats: Dict[str, float]
                ) -> Tuple[np.ndarray, float, float]:
        """``(rates, cycles, nearest_distance)`` for one feature dict.

        Rates are the inverse-distance-weighted blend of the nearest
        neighbours' per-cycle counter rates; cycles scale the blended
        log cycles-per-work-unit by the query's own work units.
        """
        vector = feature_vector(feats)
        near = self.neighbours(vector)
        weights = np.array([1.0 / (d + 1e-6) for d, _ in near])
        weights /= weights.sum()
        rates = np.zeros(len(self.counter_names))
        log_cpw = 0.0
        for weight, (_, entry) in zip(weights, near):
            rates += weight * np.asarray(entry.rates)
            log_cpw += weight * entry.log_cycles_per_work
        cycles = math.exp(log_cpw) * work_units(feats)
        return rates, cycles, near[0][0]

    def promised_error(self, feats: Dict[str, float]) -> float:
        """The honest per-query error bound (see the module docstring).

        LOO mean inside coverage, inflating linearly toward the LOO max
        with nearest-neighbour distance, pessimistic
        (:data:`OUT_OF_COVERAGE_ERROR` floor) beyond
        :data:`COVERAGE_RADIUS` reference distances.
        """
        _, _, nearest = self.predict(feats)
        reach = COVERAGE_RADIUS * max(self.ref_distance, 1e-9)
        t = min(1.0, nearest / reach)
        promised = self.loo_mean + (self.loo_max - self.loo_mean) * t
        if t >= 1.0:
            promised = max(promised, OUT_OF_COVERAGE_ERROR)
        return promised


# ---------------------------------------------------------------------------
# Activity reconstruction (shared by prediction and LOO scoring)
# ---------------------------------------------------------------------------


def activity_from_rates(config: GPUConfig, launch: KernelLaunch,
                        names: Sequence[str], rates: np.ndarray,
                        cycles: float) -> ActivityReport:
    """Build a full, invariant-respecting report from per-cycle rates.

    Geometry counters are set exactly from the launch; the DRAM refresh
    counter is a pure function of runtime and is recomputed rather than
    predicted; the hierarchical clamps keep
    :meth:`ActivityReport.validate` happy near the rails.
    """
    activity = ActivityReport()
    set_launch_envelope(activity, config, launch.block.count,
                        launch.grid.count)
    activity.active_cores = min(config.n_cores, launch.grid.count)
    activity.active_clusters = min(config.n_clusters, launch.grid.count)
    for name, rate in zip(names, rates):
        setattr(activity, name, max(0.0, float(rate) * cycles))
    activity.l1_misses = min(activity.l1_misses,
                             activity.l1_reads + activity.l1_writes)
    activity.const_misses = min(activity.const_misses,
                                activity.const_reads)
    activity.icache_misses = min(activity.icache_misses,
                                 activity.icache_reads)
    # After the rate loop: the envelope overrides the predicted refreshes.
    set_cycle_envelope(activity, config, cycles)
    return activity


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------


def calibrate_surrogate(config: GPUConfig,
                        kernels: Optional[Sequence[str]] = None, *,
                        jobs: Optional[int] = None,
                        cache: Any = "auto",
                        progress=None) -> CalibrationTable:
    """Fit a :class:`CalibrationTable` against cycle-backend traces.

    Runs the exact ``cycle`` backend over ``kernels`` (default: all 19
    Table I workloads) through the pooled, cached runner -- warm caches
    make re-calibration free -- then derives features, per-cycle rates,
    work scalings, and the leave-one-out error model.
    """
    from ..power.chip import Chip
    from ..request import SimRequest
    from ..runner.engine import run_jobs
    from ..workloads import all_kernel_launches
    from .. import SIM_VERSION

    launches = all_kernel_launches()
    names = sorted(launches) if kernels is None else list(kernels)
    unknown = [n for n in names if n not in launches]
    if unknown:
        raise KeyError(f"unknown workload kernel(s) {unknown}")
    if len(names) <= 1:
        raise ValueError("calibration needs at least two kernels")

    job_list = [SimRequest(config=config, kernel=name) for name in names]
    results = run_jobs(job_list, n_jobs=jobs, cache=cache, progress=progress)

    chip = Chip(config)
    counters = counter_names()
    entries: List[CalibrationEntry] = []
    feat_dicts: List[Dict[str, float]] = []
    for name, result in zip(names, results):
        feats = kernel_features(launches[name], config)
        feat_dicts.append(feats)
        rates = [getattr(result.activity, counter) / result.cycles
                 for counter in counters]
        entries.append(CalibrationEntry(
            name=name,
            features=[float(v) for v in feature_vector(feats)],
            rates=rates,
            log_cycles_per_work=math.log(
                result.cycles / work_units(feats)),
            cycles=result.cycles,
            power_w=chip.evaluate(result.activity).chip_total_w,
        ))

    matrix = np.stack([np.asarray(e.features) for e in entries])
    mu, sd = _scale(matrix)
    table = CalibrationTable(
        config_name=config.name,
        config_key=config_key(config),
        sim_version=SIM_VERSION,
        surrogate_version=SURROGATE_VERSION,
        feature_names=list(FEATURE_NAMES),
        counter_names=counters,
        entries=entries,
        mu=[float(v) for v in mu],
        sd=[float(v) for v in sd],
    )

    # Leave-one-out error model: hold each kernel out, re-fit the
    # scaling on the rest, predict, and score the chip-power error.
    nn_distances = []
    for index, entry in enumerate(entries):
        rest = entries[:index] + entries[index + 1:]
        fold = CalibrationTable(
            config_name=table.config_name, config_key=table.config_key,
            sim_version=table.sim_version,
            surrogate_version=table.surrogate_version,
            feature_names=table.feature_names,
            counter_names=counters, entries=rest)
        fold_mu, fold_sd = _scale(
            np.stack([np.asarray(e.features) for e in rest]))
        fold.mu = [float(v) for v in fold_mu]
        fold.sd = [float(v) for v in fold_sd]
        rates, cycles, nearest = fold.predict(feat_dicts[index])
        predicted = activity_from_rates(
            config, launches[entry.name], counters, rates, cycles)
        power = chip.evaluate(predicted).chip_total_w
        entry.loo_error = abs(power - entry.power_w) / entry.power_w
        nn_distances.append(nearest)

    table.loo_mean = float(np.mean([e.loo_error for e in entries]))
    table.loo_max = float(np.max([e.loo_error for e in entries]))
    table.ref_distance = float(np.median(nn_distances))
    return table


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

#: Packaged default tables for the hardware presets.
_PACKAGED_DIR = Path(__file__).resolve().parent / "calibdata"

#: In-process table memo: (store root, config key) -> table.
_TABLE_MEMO: Dict[Tuple[str, str], CalibrationTable] = {}


class CalibrationStore:
    """Content-addressed on-disk store for calibration tables.

    Mirrors the result cache's layout (two-character shards, atomic
    ``mkstemp`` + ``os.replace`` writes) in its own root --
    ``$REPRO_CALIB_DIR`` or ``~/.cache/gpusimpow-calib`` -- so clearing
    the *result* cache never discards calibrations.  Lookups fall back
    to the tables packaged with the code (``calibdata/``); stale tables
    (simulator or surrogate version mismatch, corrupt JSON, content
    hash mismatch) load as misses, never as errors.
    """

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        if root is None:
            root = os.environ.get(CALIB_DIR_ENV) or \
                os.path.join("~", ".cache", "gpusimpow-calib")
        self.root = Path(root).expanduser()

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _load_file(self, path: Path) -> Optional[CalibrationTable]:
        from .. import SIM_VERSION
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
            table = CalibrationTable.from_dict(data)
        except (OSError, ValueError, KeyError, TypeError):
            return None
        if table.sim_version != SIM_VERSION \
                or table.surrogate_version != SURROGATE_VERSION:
            return None
        if table.feature_names != list(FEATURE_NAMES) \
                or table.counter_names != counter_names():
            return None
        return table

    def load(self, config: GPUConfig) -> Optional[CalibrationTable]:
        """The stored (or packaged) table for ``config``, or None."""
        key = config_key(config)
        memo_key = (str(self.root), key)
        if memo_key in _TABLE_MEMO:
            return _TABLE_MEMO[memo_key]
        table = self._load_file(self.path_for(key))
        if table is None:
            table = self._load_file(
                _PACKAGED_DIR / key[:2] / f"{key}.json")
        if table is not None and table.config_key != key:
            table = None
        if table is not None:
            _TABLE_MEMO[memo_key] = table
        return table

    def save(self, table: CalibrationTable) -> Path:
        """Persist one table (atomic write); returns its path."""
        path = self.path_for(table.config_key)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_json_atomic(path, table.to_dict())
        _TABLE_MEMO[(str(self.root), table.config_key)] = table
        return path


def clear_table_memo() -> None:
    """Drop the in-process table memo (tests that swap stores)."""
    _TABLE_MEMO.clear()


# ---------------------------------------------------------------------------
# The backend
# ---------------------------------------------------------------------------

#: Feature memo: :func:`_memo_key` -> feature dict.  Static analysis
#: costs ~1-30 ms per kernel -- slower than an analytical query -- so
#: warm queries must skip it to hit the surrogate's sub-millisecond
#: budget.
_FEATURE_MEMO: Dict[Tuple, Dict[str, float]] = {}
_FEATURE_MEMO_LIMIT = 4096

#: Prediction memo: (table content key, *:func:`_memo_key`) -> (rates,
#: cycles, nearest distance).  The table key in the memo key makes a
#: re-calibration an automatic invalidation.
_PREDICTION_MEMO: Dict[Tuple, Tuple[np.ndarray, float, float]] = {}


def _memo_key(config: GPUConfig, launch: KernelLaunch) -> Tuple:
    """Everything :func:`kernel_features` reads: the config, the kernel
    (by :func:`~repro.isa.serialize.kernel_digest`) and the launch's
    grid, block and repeat.  Memory images, params and ``gmem_words``
    never enter a feature, so launches differing only there share."""
    return (config_key(config), kernel_digest(launch.kernel),
            launch.grid, launch.block, launch.repeat)


class SurrogateBackend(SimulationBackend):
    """Calibrated static estimator: zero execution, microsecond queries."""

    name = "surrogate"
    version = SURROGATE_VERSION
    info = BackendInfo(
        tier=0, expected_error=0.08, relative_cost=1e-4,
        capabilities=BackendCapabilities(supports_tracing=False,
                                         exact=False),
        auto=True,
        description="calibrated kNN over static-analyzer features "
                    "(zero execution)")

    def __init__(self, store: Optional[CalibrationStore] = None) -> None:
        self._store = store

    @property
    def store(self) -> CalibrationStore:
        # Resolved lazily so a monkeypatched $REPRO_CALIB_DIR (tests)
        # takes effect per lookup, not at registration import time.
        return self._store if self._store is not None \
            else CalibrationStore()

    def table_for(self, config: GPUConfig) -> CalibrationTable:
        table = self.store.load(config)
        if table is None:
            raise BackendError(
                f"no calibration table for config {config.name!r}; "
                f"run repro.backends.surrogate.calibrate_surrogate() "
                f"and CalibrationStore().save() first")
        return table

    def features_for(self, config: GPUConfig,
                     launch: KernelLaunch) -> Dict[str, float]:
        memo_key = _memo_key(config, launch)
        feats = _FEATURE_MEMO.get(memo_key)
        if feats is None:
            feats = kernel_features(launch, config)
            if len(_FEATURE_MEMO) >= _FEATURE_MEMO_LIMIT:
                _FEATURE_MEMO.clear()
            _FEATURE_MEMO[memo_key] = feats
        return feats

    def _predict(self, table: CalibrationTable, config: GPUConfig,
                 launch: KernelLaunch) -> Tuple[np.ndarray, float, float]:
        """Memoized ``table.predict`` for one (config, launch) pair.

        The memo is what holds the surrogate's per-query cost to
        microseconds on warm paths -- static analysis alone costs more
        than a whole analytical query.
        """
        memo_key = (table.key, *_memo_key(config, launch))
        hit = _PREDICTION_MEMO.get(memo_key)
        if hit is None:
            hit = table.predict(self.features_for(config, launch))
            if len(_PREDICTION_MEMO) >= _FEATURE_MEMO_LIMIT:
                _PREDICTION_MEMO.clear()
            _PREDICTION_MEMO[memo_key] = hit
        return hit

    # -- ladder hooks ---------------------------------------------------------

    def promised_error(self, request) -> float:
        """Calibrated per-request promise; ``inf`` without a table."""
        config = getattr(request, "config", None)
        if config is None:
            return self.info.expected_error
        table = self.store.load(config)
        if table is None:
            return float("inf")
        try:
            launch = request.resolve_launch()
        except KeyError:
            # The request names something that is not a single Table I
            # kernel (e.g. a benchmark chain): out of scope, escalate.
            return float("inf")
        _, _, nearest = self._predict(table, config, launch)
        reach = COVERAGE_RADIUS * max(table.ref_distance, 1e-9)
        t = min(1.0, nearest / reach)
        promised = table.loo_mean + (table.loo_max - table.loo_mean) * t
        if t >= 1.0:
            promised = max(promised, OUT_OF_COVERAGE_ERROR)
        return promised

    def cache_signature(self, job) -> Dict[str, str]:
        """Name + version + the calibration table's content hash, so
        results predicted from different calibrations never collide."""
        signature = super().cache_signature(job)
        signature["calibration"] = self.table_for(job.config).key
        return signature

    # -- simulation -----------------------------------------------------------

    def simulate(self, config: GPUConfig, launch: KernelLaunch, *,
                 max_cycles: float = 5e8,
                 gmem: Optional[np.ndarray] = None,
                 tracer=None) -> SimulationOutput:
        # ``gmem`` (dependent kernel chains) is accepted and ignored:
        # the estimate is data-independent by construction.
        self.check_tracer(tracer)
        table = self.table_for(config)
        rates, cycles, _ = self._predict(table, config, launch)
        if cycles > max_cycles:
            raise BackendError(
                f"surrogate estimate of {cycles:.3g} cycles exceeds "
                f"max_cycles={max_cycles:.3g}")
        activity = activity_from_rates(config, launch,
                                       table.counter_names, rates,
                                       cycles)
        activity.validate()
        return SimulationOutput(config=config, launch=launch,
                                activity=activity, gmem=None,
                                cycles=cycles, windows=None)
