"""Parallel simulation runner with content-addressed result caching.

Every paper artifact fans out over (GPU config x kernel) pairs; this
package executes those fan-outs on a process pool and memoises the
deterministic results on disk:

* :mod:`repro.runner.job` -- :class:`JobResult`\\ s and the
  :class:`JobFailure` taxonomy (a job is a picklable
  :class:`~repro.request.SimRequest`; ``SimJob`` is an alias);
* :mod:`repro.runner.engine` -- :func:`run_jobs`, a supervised pool
  with per-job timeouts, bounded retries with exponential backoff,
  worker-crash detection, graceful serial degradation, deterministic
  result ordering and error/progress surfacing;
* :mod:`repro.runner.cache` -- :class:`ResultCache`, an on-disk store
  keyed by a stable hash of (config, kernel IR, launch geometry,
  initial-memory digest, :data:`repro.SIM_VERSION`), with corrupt
  entries degrading to misses and orphaned temp files swept.

Quickstart::

    from repro import SimRequest, run_jobs, gt240, gtx580

    jobs = [SimRequest(config=cfg, kernel=k)
            for cfg in (gt240(), gtx580())
            for k in ("BlackScholes", "matrixMul")]
    results = run_jobs(jobs, n_jobs=4, cache=None)
    for r in results:
        print(r.label, r.cycles, r.activity.issued_instructions)
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".cache": ("ResultCache", "config_signature", "launch_signature",
               "request_key", "request_signature"),
    ".engine": ("AUTO", "FAULT_PLAN_ENV", "MELTDOWN_AFTER", "TIMEOUT_ENV",
                "RunnerError", "resolve_cache", "resolve_jobs",
                "resolve_timeout", "run_jobs", "set_default_cache",
                "set_default_jobs", "set_default_timeout",
                "set_fault_plan"),
    ".job": ("JobFailure", "JobResult", "SimJob"),
})
