"""Content-addressed on-disk cache for simulation results.

Every artifact in the reproduction fans out over (GPU config x kernel)
pairs, and the same pairs recur across experiments -- Fig. 6, Tables
IV/V, the statistical-model fit and the ablations all simulate
BlackScholes on the GT240.  The cycle-level simulator is deterministic,
so a simulation is a pure function of its inputs; this module addresses
results by a stable hash of *all* of them:

* the simulator version tag (:data:`repro.SIM_VERSION` -- bumped on any
  semantics change, which invalidates every prior entry),
* every :class:`GPUConfig` field,
* the kernel, by :func:`~repro.isa.serialize.kernel_digest` (its full
  encoding: every instruction field, register/predicate/smem counts),
* the launch geometry (grid, block, gmem size, repeat policy, params),
* a digest of the initial memory image (globals_init + const_init),
* the simulation watchdog (``max_cycles``),
* for non-default backends: the backend name and model version.

Anything that could change the resulting :class:`ActivityReport` is in
the key, so a hit is always safe to reuse; anything else (cache
location, process count) is deliberately not.

Entries are single JSON files, written atomically, holding the activity
counters and the cycle count.  JSON float round-trips are exact in
Python (repr-based), so a cache hit is bit-identical to a fresh run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..isa.launch import KernelLaunch
from ..isa.serialize import kernel_digest
from ..request import SimRequest
from ..serialize import write_json_atomic
from ..sim.activity import ActivityReport
from ..sim.config import GPUConfig, config_memo
from .job import JobResult

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Age (seconds) past which an orphaned ``*.tmp`` write is swept on
#: cache construction: old enough that no live writer can still own it.
ORPHAN_MAX_AGE_S = 3600.0


def _version_tag() -> str:
    from .. import SIM_VERSION
    return SIM_VERSION


def _array_digest(arr) -> str:
    """Stable digest of a numpy array's float64 contents."""
    data = np.ascontiguousarray(arr, dtype=np.float64)
    return hashlib.sha256(data.tobytes()).hexdigest()


def _config_signature(config: GPUConfig) -> Dict[str, Any]:
    raw = dataclasses.asdict(config)
    return {name: repr(raw[name]) for name in sorted(raw)}


def config_signature(config: GPUConfig) -> Dict[str, Any]:
    """Every config field, in stable (sorted) order.

    Built once per configuration content (:func:`config_memo`); each
    call returns its own copy.
    """
    return dict(config_memo(config, "signature", _config_signature))


def launch_signature(launch: KernelLaunch) -> Dict[str, Any]:
    """Kernel digest + geometry + initial-memory digest for one launch.

    Cached on a launch whose memory-image arrays all refuse writes --
    the shared, read-only launches workload labels resolve to (see
    :mod:`repro.workloads.common`) -- the way
    :func:`~repro.isa.serialize.kernel_digest` caches on its kernel.
    Any other launch is hashed on every call.  Each call returns its
    own copy.
    """
    signature = launch.__dict__.get("_signature")
    if signature is None:
        signature = _launch_signature(launch)
        arrays = list(launch.globals_init.values())
        if launch.const_init is not None:
            arrays.append(launch.const_init)
        if arrays and not any(arr.flags.writeable for arr in arrays):
            launch.__dict__["_signature"] = signature
    return dict(signature)


def _launch_signature(launch: KernelLaunch) -> Dict[str, Any]:
    return {
        "kernel_digest": kernel_digest(launch.kernel),
        "grid": (launch.grid.x, launch.grid.y, launch.grid.z),
        "block": (launch.block.x, launch.block.y, launch.block.z),
        "gmem_words": launch.gmem_words,
        "params": {k: repr(v) for k, v in sorted(launch.params.items())},
        "repeat": launch.repeat,
        "repeatable": launch.repeatable,
        "globals_init": {
            str(off): _array_digest(arr)
            for off, arr in sorted(launch.globals_init.items())
        },
        "const_init": (None if launch.const_init is None
                       else _array_digest(launch.const_init)),
    }


def request_signature(request) -> Dict[str, Any]:
    """The full content-addressed payload of one simulation request.

    ``request`` is a :class:`~repro.request.SimRequest`.
    ``trace_interval`` enters the payload only when set, so untraced
    requests keep the exact keys (and cache entries) they had before
    telemetry existed; a traced request is a distinct artifact because
    its entry also stores the per-window deltas.  Likewise ``backend``
    enters only for non-default backends (or when backend options are
    set) -- default (``cycle``) requests keep their pre-backend-era
    keys, and each other backend's results are keyed by its
    ``cache_signature``: at least its name *and* model version (so
    bumping a backend version invalidates exactly that backend's
    entries), plus any resolved result-changing options (e.g.
    ``parallel_cycle``'s epoch length and shard count).  Execution
    policy (``timeout_s``), selection policy (``error_budget``) and
    presentation (``tag``/``tags``) never enter.

    Only concrete backend names ever reach a payload: an ``auto``
    request and the concrete request it resolves to are one cached
    artifact, and ``auto`` with a zero (or absent) ``error_budget``
    keys byte-identically to a plain ``cycle`` request.  Entry points
    hand over the concrete request they resolved; an ``"auto"`` one
    (``SimRequest.digest()`` on it, say) resolves here.
    """
    if request.backend == "auto":  # AUTO_BACKEND (import kept lazy)
        request = request.resolve()[0]
    payload: Dict[str, Any] = {
        "sim_version": _version_tag(),
        "config": config_signature(request.config),
        "launch": launch_signature(request.resolve_launch()),
        "max_cycles": repr(request.max_cycles),
    }
    if request.trace_interval is not None:
        payload["trace_interval"] = repr(float(request.trace_interval))
    if request.backend != "cycle" or request.backend_options:
        from ..backends.base import get_backend
        payload["backend"] = \
            get_backend(request.backend).cache_signature(request)
    return payload


def request_key(request) -> str:
    """Content-addressed identity (hex SHA-256) of one request.

    The digest of :func:`request_signature`; exposed on requests as
    :meth:`repro.request.SimRequest.digest`.
    """
    return _digest(request_signature(request))


def base_request_key(request) -> str:
    """The request's key with the backend section stripped.

    Two requests with the same base key name the *same simulation* run
    at different fidelities: an estimator entry stores its base key so
    that when an exact (``cycle``) result later lands under it, the
    estimator's ``achieved_error`` can be measured and backfilled.  For
    a plain untraced ``cycle`` request the base key *is* the key.
    """
    payload = request_signature(request)
    payload.pop("backend", None)
    return _digest(payload)


def _digest(payload: Dict[str, Any]) -> str:
    """Hex SHA-256 of ``payload``'s canonical JSON."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _backend_is_exact(name: str) -> bool:
    from ..backends.base import all_backends
    backend = all_backends().get(name)
    return bool(backend is not None and backend.capabilities.exact)


class ResultCache:
    """On-disk result store keyed by :func:`request_key`.

    The default location is ``$REPRO_CACHE_DIR`` or
    ``~/.cache/gpusimpow``; entries shard into two-character
    subdirectories.  Invalidation rules:

    * a :data:`repro.SIM_VERSION` bump changes every key (and entries
      written under an older tag refuse to load even on a key
      collision);
    * :meth:`invalidate` drops one entry, :meth:`clear` drops all;
    * corrupt or unreadable entries degrade to misses, never to errors
      -- :meth:`lookup` additionally reports the corruption so the
      engine can log it, and the broken file is dropped so the fresh
      result is re-stored cleanly.

    Writes go through ``mkstemp`` + ``os.replace``; a process killed in
    between leaves an orphaned ``*.tmp`` file.  Construction sweeps
    orphans older than :data:`ORPHAN_MAX_AGE_S`, :meth:`clear` removes
    them all, and :meth:`stats`/:meth:`orphans` account for them.
    """

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        if root is None:
            root = os.environ.get(CACHE_DIR_ENV) or \
                os.path.join("~", ".cache", "gpusimpow")
        self.root = Path(root).expanduser()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0
        self.sweep_orphans(ORPHAN_MAX_AGE_S)

    def __repr__(self) -> str:
        return (f"ResultCache({str(self.root)!r}, hits={self.hits}, "
                f"misses={self.misses}, stores={self.stores}, "
                f"corrupt={self.corrupt})")

    def path_for(self, key: str) -> Path:
        return Path(self._entry_file(key))

    def _entry_file(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.json")

    def stamp(self, key: str) -> Optional[Tuple[int, int, int]]:
        """``(inode, mtime_ns, size)`` of the entry at ``key``, or None
        when there is none.

        Every write replaces the entry file (:func:`write_json_atomic`),
        so an unchanged stamp means unchanged contents: what was built
        from the entry may be reused without reading it again.
        """
        # A plain string path, not a Path: pathlib interns every
        # component it parses, and a Path per stamp (one per service
        # cache probe) grew the daemon's interned-string table by
        # ~0.5 MB of peak RSS over an e2e service-mix run.
        try:
            st = os.stat(self._entry_file(key))
        except OSError:
            return None
        return st.st_ino, st.st_mtime_ns, st.st_size

    # -- lookup/store --------------------------------------------------------

    def get(self, job: SimRequest,
            key: Optional[str] = None) -> Optional[JobResult]:
        """Cached result for ``job``, or None on a miss."""
        return self.lookup(job, key=key)[0]

    def lookup(self, job: SimRequest, key: Optional[str] = None,
               ) -> Tuple[Optional[JobResult], bool]:
        """Like :meth:`get`, but also reports corruption.

        Returns ``(result, corrupt)``: ``corrupt`` is True when an
        entry existed but failed to load (truncated file, bad JSON,
        missing/unknown counters) -- as opposed to a plain miss or an
        expected invalidation (stale simulator version, different
        backend).  A corrupt entry is unlinked so the re-simulated
        result is re-stored cleanly.  The entry must have been written
        by ``job``'s backend; an ``"auto"`` job resolves first.
        """
        concrete = job.resolve()[0] if job.backend == "auto" else job
        if key is None:
            key = request_key(concrete)
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                raw = handle.read()
        except OSError:
            self.misses += 1
            return None, False
        try:
            entry = json.loads(raw)
            if not isinstance(entry, dict):
                raise ValueError("entry is not a JSON object")
            # Entries written before backends existed carry no backend
            # field; they are all cycle-backend results, so only a
            # mismatch with an explicit different (resolved) backend is
            # stale.
            if (entry.get("sim_version") != _version_tag()
                    or entry.get("backend", "cycle") != concrete.backend):
                self.misses += 1
                return None, False
            activity = ActivityReport.from_dict(entry["activity"])
            cycles = float(entry["cycles"])
            windows = None
            if job.trace_interval is not None:
                # A traced job must come back with its windows; an entry
                # without them (shouldn't exist, given the key includes
                # the interval) degrades to a miss.
                from ..telemetry.window import windows_from_dicts
                windows = windows_from_dicts(entry["windows"])
            promised = entry.get("promised_error")
            achieved = entry.get("achieved_error")
        except (ValueError, KeyError, TypeError):
            self.misses += 1
            self.corrupt += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None, True
        self.hits += 1
        if promised is None and _backend_is_exact(concrete.backend):
            promised = 0.0
        return JobResult(job=job, activity=activity, cycles=cycles,
                         cached=True, windows=windows,
                         backend_used=concrete.backend,
                         promised_error=(None if promised is None
                                         else float(promised)),
                         achieved_error=(None if achieved is None
                                         else float(achieved))), False

    def put(self, result: JobResult, key: Optional[str] = None) -> str:
        """Store one finished result; returns its key.  Writes are atomic.

        Backend, promise, activity, cycles and windows all come from
        ``result``.  Estimator entries (inexact backends) additionally
        carry their ``promised_error`` and ``base_key``, and register
        under ``links/<base_key>.link`` so a later exact run of the same
        simulation backfills their measured ``achieved_error`` in place;
        symmetrically, a plain ``cycle`` store immediately grades any
        estimator entries already linked to it, and an estimator store
        grades itself against an exact entry that already exists.
        Plain ``cycle`` entries keep their exact pre-ladder shape.
        """
        job = result.job
        if job.backend != result.backend:
            job = dataclasses.replace(job, backend=result.backend)
        if key is None:
            key = request_key(job)
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "sim_version": _version_tag(),
            "kernel": job.label,
            "gpu": job.config.name,
            "backend": job.backend,
            "cycles": float(result.cycles),
            "activity": result.activity.to_dict(),
        }
        if result.windows is not None:
            from ..telemetry.window import windows_to_dicts
            entry["windows"] = windows_to_dicts(result.windows)
        base = None
        if not _backend_is_exact(job.backend):
            base = base_request_key(job)
            if result.promised_error is not None:
                entry["promised_error"] = float(result.promised_error)
            entry["base_key"] = base
            achieved = self._grade_against_exact(job.config,
                                                 result.activity, base)
            if achieved is not None:
                entry["achieved_error"] = achieved
        write_json_atomic(path, entry)
        self.stores += 1
        if base is not None and "achieved_error" not in entry:
            self._register_link(base, key)
        # A plain cycle job's key is its own base key.
        if job.backend == "cycle" and not job.backend_options:
            self._backfill_links(key, job.config, result.activity)
        return key

    # -- achieved-error bookkeeping -------------------------------------------

    def _link_path(self, base: str) -> Path:
        # ``.link`` (not ``.json``) so link bookkeeping never shows up
        # in entry counts, sizes or ``clear()`` globs.
        return self.root / "links" / f"{base}.link"

    @staticmethod
    def _power_of(config, activity: ActivityReport) -> float:
        from ..power.chip import Chip
        return Chip(config).evaluate(activity).chip_total_w

    def _grade_against_exact(self, config, activity: ActivityReport,
                             base: str) -> Optional[float]:
        """|power error| of ``activity`` vs the exact entry at ``base``
        (None when no usable exact entry exists yet)."""
        try:
            with open(self.path_for(base), "r", encoding="utf-8") as f:
                exact_entry = json.load(f)
            if not isinstance(exact_entry, dict) \
                    or exact_entry.get("sim_version") != _version_tag() \
                    or exact_entry.get("backend", "cycle") != "cycle":
                return None
            exact_activity = ActivityReport.from_dict(exact_entry["activity"])
        except (OSError, ValueError, KeyError, TypeError):
            return None
        exact_power = self._power_of(config, exact_activity)
        if exact_power <= 0:
            return None
        estimate = self._power_of(config, activity)
        return abs(estimate - exact_power) / exact_power

    def _register_link(self, base: str, key: str) -> None:
        """Record that estimator entry ``key`` awaits grading against a
        future exact result at ``base``.  Best-effort: a lost link only
        costs a backfill, never correctness."""
        path = self._link_path(base)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            keys: List[str] = []
            if path.exists():
                with open(path, "r", encoding="utf-8") as handle:
                    keys = [str(k) for k in json.load(handle)]
            if key in keys:
                return
            keys.append(key)
            write_json_atomic(path, keys)
        except (OSError, ValueError, TypeError):
            pass

    def _backfill_links(self, base: str, config,
                        exact_activity: ActivityReport) -> None:
        """Grade every estimator entry linked to ``base`` in place."""
        path = self._link_path(base)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                keys = [str(k) for k in json.load(handle)]
        except (OSError, ValueError, TypeError):
            return
        exact_power = self._power_of(config, exact_activity)
        for est_key in keys:
            est_path = self.path_for(est_key)
            try:
                with open(est_path, "r", encoding="utf-8") as handle:
                    entry = json.load(handle)
                if not isinstance(entry, dict) \
                        or "achieved_error" in entry \
                        or exact_power <= 0:
                    continue
                estimate = self._power_of(
                    config, ActivityReport.from_dict(entry["activity"]))
                entry["achieved_error"] = \
                    abs(estimate - exact_power) / exact_power
                write_json_atomic(est_path, entry)
            except (OSError, ValueError, KeyError, TypeError):
                continue
        try:
            path.unlink()
        except OSError:
            pass

    # -- invalidation ---------------------------------------------------------

    def invalidate(self, key: str) -> bool:
        """Drop one entry; returns whether it existed."""
        path = self.path_for(key)
        try:
            path.unlink()
            return True
        except OSError:
            return False

    def clear(self) -> int:
        """Drop every entry (and orphaned temp files); returns how many
        entries were removed."""
        removed = 0
        if not self.root.exists():
            return removed
        for path in self.root.glob("*/*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        # Achieved-error link bookkeeping is meaningless without the
        # entries it points at; drop it too (not counted as entries).
        for path in self.root.glob("links/*.link"):
            try:
                path.unlink()
            except OSError:
                pass
        self.sweep_orphans(max_age_s=0.0)
        return removed

    def entries(self) -> int:
        """Number of stored results."""
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def orphans(self) -> List[Path]:
        """Orphaned ``*.tmp`` files left by interrupted writes."""
        if not self.root.exists():
            return []
        return sorted(self.root.glob("*/*.tmp"))

    def sweep_orphans(self, max_age_s: float = ORPHAN_MAX_AGE_S) -> int:
        """Remove orphaned temp files older than ``max_age_s`` seconds.

        The age guard keeps a sweep from racing a concurrent writer's
        in-flight temp file; ``max_age_s=0`` removes them all.
        """
        removed = 0
        cutoff = time.time() - max(0.0, float(max_age_s))
        for path in self.orphans():
            try:
                if path.stat().st_mtime <= cutoff:
                    path.unlink()
                    removed += 1
            except OSError:
                pass
        return removed

    def stats(self) -> Dict[str, Any]:
        """Entry count, on-disk bytes, orphaned temp files, location
        and per-backend entry counts (for ``cache stats``).

        ``backends`` maps each backend name to how many entries it
        produced -- entries predating the backend field count as
        ``cycle``, and unreadable entries count under ``"?"`` (they
        still occupy a file, so they stay in ``entries`` too).
        """
        entries = 0
        size = 0
        orphan_files = 0
        orphan_bytes = 0
        backends: Dict[str, int] = {}
        if self.root.exists():
            for path in self.root.glob("*/*.json"):
                entries += 1
                try:
                    size += path.stat().st_size
                except OSError:
                    pass
                try:
                    with open(path, "r", encoding="utf-8") as handle:
                        name = json.load(handle).get("backend", "cycle")
                except (OSError, ValueError, AttributeError):
                    name = "?"
                backends[str(name)] = backends.get(str(name), 0) + 1
            for path in self.orphans():
                orphan_files += 1
                try:
                    orphan_bytes += path.stat().st_size
                except OSError:
                    pass
        return {"location": str(self.root), "entries": entries,
                "bytes": size, "orphans": orphan_files,
                "orphan_bytes": orphan_bytes,
                "backends": dict(sorted(backends.items()))}
