"""The fault-tolerant parallel simulation job engine.

:func:`run_jobs` executes a list of :class:`~repro.request.SimRequest`
jobs and returns their :class:`JobResult`\\ s *in job order*,
regardless of how many worker processes ran them or which finished
first.  Cache hits are resolved in the calling process; only misses fan
out to the pool.  Pool or in-process follows the *requested* worker
count: ``jobs=1`` skips the pool entirely (the serial fallback -- no
multiprocessing machinery in the way of debugging or profiling), while
any larger request runs even a single miss on a pool worker, where a
timeout can preempt it and the caller's interpreter stays free.  The
number of workers used is capped by the number of misses.

Each job resolves once, in the calling process
(:meth:`~repro.request.SimRequest.resolve`).  Workers receive only the
picklable concrete request, whose
:meth:`~repro.request.SimRequest.execute` constructs the ``GPU`` there;
they ship back plain counter dicts.  Both transports (pickle for the
pipe, repr-JSON for the cache) round-trip float64 exactly, so serial,
pooled, cached -- and fault-retried -- execution are bit-identical.

Fault tolerance.  Each pooled attempt runs on a supervised warm worker
process (:mod:`repro.runner.pool`), so the engine observes every way an
attempt can end:

* a clean result (or a worker-side exception, shipped back as a
  traceback -- deterministic, never retried);
* a **worker crash** (OOM kill, segfault, signal): the worker dies
  without reporting and the supervisor sees EOF on its pipe;
* a **timeout**: the attempt outlives its wall-clock budget
  (``SimRequest.timeout_s``, ``run_jobs(timeout_s=...)`` or
  ``$REPRO_JOB_TIMEOUT``) and the supervisor kills it.

Crashes and timeouts are *transient*: the job is retried with
exponential backoff, up to ``retries`` extra attempts.  Exhaustion (or a
worker-side exception) becomes a :class:`JobFailure` aggregated on
:class:`RunnerError`.  When the pool itself stops making progress --
process creation fails, or :data:`MELTDOWN_AFTER` consecutive worker
crashes land without a single success -- the engine degrades gracefully:
surviving workers are stopped and the remaining misses finish serially
in the calling process instead of aborting the sweep.

Deterministic fault injection for tests: :func:`set_fault_plan` (or a
JSON ``$REPRO_FAULT_PLAN``) maps job labels to per-attempt actions
(``kill``, ``exc``, ``delay:<seconds>``, ``corrupt``, ``ok``).

Defaults can be configured process-wide (used by the CLI and by
``python -m repro.experiments``) or via environment variables:

* ``REPRO_JOBS`` -- default worker count when a call passes ``None``;
* ``REPRO_CACHE`` -- ``1``/``on`` enables the default on-disk cache,
  ``0``/``off`` disables it, any other value is a cache directory;
* ``REPRO_JOB_TIMEOUT`` -- default per-job wall-clock budget (seconds).
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
import signal
import time
import traceback
import warnings
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection
from typing import (Callable, Deque, Dict, List, Optional, Sequence, Tuple,
                    Union)

from ..request import SimRequest
from ..sim.activity import ActivityReport
from .cache import ResultCache, request_key
from .job import JobFailure, JobResult
from .pool import PoolWorker, shared_pool

#: Sentinel: "resolve the cache from configured/environment defaults".
AUTO = "auto"

#: Environment variable: default per-job wall-clock timeout in seconds.
TIMEOUT_ENV = "REPRO_JOB_TIMEOUT"

#: Environment variable: JSON fault plan for deterministic fault
#: injection (``{"label": ["kill", "delay:2", "ok"], ...}``).
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Consecutive worker crashes (with no success in between) after which
#: the engine stops trusting the pool and finishes serially.
MELTDOWN_AFTER = 4

#: Failure kinds the engine retries.
TRANSIENT_KINDS = ("timeout", "worker-crash")

ProgressFn = Callable[[int, int, Union[JobResult, JobFailure]], None]

_default_jobs: Optional[int] = None
_default_cache: Union[ResultCache, None, str] = AUTO
_default_timeout: Optional[float] = None
_fault_plan: Optional[Dict[str, List[str]]] = None
_warned_env: set = set()


class RunnerError(RuntimeError):
    """One or more jobs failed; carries every failure, not just the first.

    ``failures`` is a list of :class:`JobFailure` records (legacy
    ``(label, traceback)`` tuples are normalised on construction).
    """

    def __init__(self, failures: Sequence) -> None:
        self.failures: List[JobFailure] = [
            f if isinstance(f, JobFailure)
            else JobFailure(label=f[0], kind="exception",
                            traceback=f[1] or "")
            for f in failures]
        if not self.failures:
            # Guarded: an empty failure list is a caller bug, but the
            # constructor must not blow up while reporting it.
            super().__init__("RunnerError raised with no recorded failures")
            return
        lines = [f"{len(self.failures)} simulation job(s) failed:"]
        for f in self.failures:
            lines.append(f"  {f.label}: [{f.kind}, "
                         f"{f.attempts} attempt(s)] {f.summary}")
        first = self.failures[0]
        if first.traceback:
            lines.append("(first traceback)")
            lines.append(first.traceback)
        super().__init__("\n".join(lines))

    def to_dict(self) -> Dict:
        """Structured error payload: every failure's taxonomy.

        What the service returns in error responses -- clients get
        kind/attempts/durations per failure rather than one formatted
        string.
        """
        return {
            "error": "RunnerError",
            "message": str(self),
            "failures": [f.to_dict() for f in self.failures],
        }


# -- process-wide defaults ----------------------------------------------------


def set_default_jobs(n: Optional[int]) -> None:
    """Set the worker count used when ``run_jobs(jobs=None)``."""
    global _default_jobs
    _default_jobs = None if n is None else max(1, int(n))


def set_default_cache(cache: Union[ResultCache, None, str]) -> None:
    """Set the cache used when ``run_jobs(cache=AUTO)``.

    Pass a :class:`ResultCache`, ``None`` to disable caching, or
    :data:`AUTO` to fall back to the environment.
    """
    global _default_cache
    _default_cache = cache


def set_default_timeout(timeout_s: Optional[float]) -> None:
    """Set the per-job timeout used when ``run_jobs(timeout_s=None)``.

    ``None`` clears the configured default (the environment's
    ``$REPRO_JOB_TIMEOUT`` then applies again).
    """
    global _default_timeout
    if timeout_s is not None and not float(timeout_s) > 0:
        raise ValueError(f"timeout must be positive, got {timeout_s!r}")
    _default_timeout = None if timeout_s is None else float(timeout_s)


def set_fault_plan(plan: Optional[Dict[str, List[str]]]) -> None:
    """Install a deterministic fault plan (``None`` clears it).

    The plan maps job labels to a list of per-attempt actions: attempt
    ``n`` of a job looks up ``plan[label][n - 1]``; attempts beyond the
    list run normally.  Actions: ``"kill"`` (SIGKILL the pool worker
    mid-job; ignored for in-process execution, where there is no worker
    to die), ``"exc"`` (raise inside the attempt), ``"delay:<seconds>"``
    (sleep before simulating -- pair with a timeout), ``"corrupt"``
    (truncate the job's cache entry before lookup), ``"ok"``/``None``
    (run normally).  A configured plan takes precedence over
    ``$REPRO_FAULT_PLAN``.
    """
    global _fault_plan
    _fault_plan = dict(plan) if plan else None


def _warn_env_once(var: str, value: str, fallback: str) -> None:
    """One warning per process per misconfigured environment variable."""
    if var in _warned_env:
        return
    _warned_env.add(var)
    warnings.warn(f"ignoring invalid {var}={value!r}; using {fallback}",
                  RuntimeWarning, stacklevel=3)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Effective worker count: explicit arg > configured > env > 1."""
    if jobs is not None:
        return max(1, int(jobs))
    if _default_jobs is not None:
        return _default_jobs
    env = os.environ.get("REPRO_JOBS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            _warn_env_once("REPRO_JOBS", env, "1 worker")
    return 1


def resolve_timeout(timeout_s: Optional[float] = None) -> Optional[float]:
    """Effective per-job timeout: explicit arg > configured > env > none."""
    if timeout_s is not None:
        timeout_s = float(timeout_s)
        if not timeout_s > 0:
            raise ValueError(f"timeout must be positive, got {timeout_s!r}")
        return timeout_s
    if _default_timeout is not None:
        return _default_timeout
    env = os.environ.get(TIMEOUT_ENV, "").strip()
    if env:
        try:
            value = float(env)
            if value > 0:
                return value
        except ValueError:
            pass
        _warn_env_once(TIMEOUT_ENV, env, "no timeout")
    return None


def resolve_cache(
        cache: Union[ResultCache, None, str]) -> Optional[ResultCache]:
    """Effective cache: explicit arg > configured > env > disabled."""
    if isinstance(cache, ResultCache) or cache is None:
        return cache
    if cache != AUTO:
        return ResultCache(cache)  # a directory path
    if _default_cache is not AUTO:
        return resolve_cache(_default_cache)
    env = os.environ.get("REPRO_CACHE", "").strip()
    if not env or env.lower() in ("0", "off", "false", "no"):
        return None
    if env.lower() in ("1", "on", "true", "yes"):
        return ResultCache()
    return ResultCache(env)


# -- fault injection ----------------------------------------------------------


class _InjectedFault(RuntimeError):
    """Raised by the ``exc`` fault action (deterministic test failures)."""


def _resolve_fault_plan() -> Dict[str, List[str]]:
    if _fault_plan is not None:
        return _fault_plan
    env = os.environ.get(FAULT_PLAN_ENV, "").strip()
    if not env:
        return {}
    try:
        plan = json.loads(env)
        if not isinstance(plan, dict):
            raise ValueError("fault plan must be a JSON object")
        return plan
    except ValueError:
        _warn_env_once(FAULT_PLAN_ENV, env, "no fault plan")
        return {}


def _fault_for(plan: Dict[str, List[str]], label: str,
               attempt: int) -> Optional[str]:
    """The action for ``label``'s ``attempt`` (1-based), or None."""
    actions = plan.get(label)
    if not actions or attempt > len(actions):
        return None
    action = actions[attempt - 1]
    return None if action in (None, "", "ok") else str(action)


def _apply_fault(fault: Optional[str], in_process: bool) -> None:
    """Execute one fault action at the start of an attempt."""
    if fault is None or fault == "corrupt":
        return  # "corrupt" is applied parent-side, at cache lookup
    if fault == "kill":
        if not in_process:
            os.kill(os.getpid(), signal.SIGKILL)
        return  # a worker-death fault is meaningless without a worker
    if fault.startswith("delay:"):
        time.sleep(float(fault.split(":", 1)[1]))
        return
    if fault == "exc":
        raise _InjectedFault("injected failure (fault plan)")
    raise ValueError(f"unknown fault action {fault!r}")


# -- worker side --------------------------------------------------------------


def _execute_job(payload):
    """Run one job attempt, ship back plain data (never raises).

    ``payload`` is ``(index, job, fault, in_process)``; the transport
    tuple is ``(index, activity_dict, windows_dicts, diagnostics,
    cycles, duration, pid, error)`` -- ``windows_dicts`` is None for
    untraced jobs and the :func:`~repro.telemetry.windows_to_dicts`
    form for traced ones; ``diagnostics`` is None for unsanitized jobs
    and the sanitizer's :class:`~repro.analysis.Diagnostic` list (plain
    picklable dataclasses) for sanitized ones.
    """
    index, job, fault, in_process = payload
    start = time.perf_counter()
    try:
        _apply_fault(fault, in_process)
        out = job.execute()
        windows = None
        if out.windows is not None:
            from ..telemetry.window import windows_to_dicts
            windows = windows_to_dicts(out.windows)
        return (index, out.activity.to_dict(), windows,
                getattr(out, "diagnostics", None), float(out.cycles),
                time.perf_counter() - start, os.getpid(), None)
    except Exception:  # noqa: BLE001 -- surfaced via RunnerError
        return (index, None, None, None, 0.0,
                time.perf_counter() - start,
                os.getpid(), traceback.format_exc())


def _pool_context():
    """Fork where available (cheap, Linux); spawn otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


@dataclass
class _Running:
    """Supervisor bookkeeping for one in-flight attempt."""

    index: int
    attempt: int
    #: The warm :class:`~repro.runner.pool.PoolWorker` serving it.
    worker: PoolWorker
    started: float
    deadline: Optional[float]


# -- the engine ---------------------------------------------------------------


def run_jobs(jobs: Sequence[SimRequest],
             n_jobs: Optional[int] = None,
             cache: Union[ResultCache, None, str] = AUTO,
             progress: Optional[ProgressFn] = None,
             timeout_s: Optional[float] = None,
             retries: int = 2,
             backoff_s: float = 0.25) -> List[JobResult]:
    """Execute ``jobs``; results come back in job order.

    Args:
        jobs: The simulations to run.
        n_jobs: Worker processes.  ``None`` resolves through
            :func:`resolve_jobs`; ``1`` runs serially in-process.  Any
            larger count runs every miss on the warm pool -- a single
            one included -- on at most as many workers as there are
            misses.
        cache: A :class:`ResultCache`, a cache directory path, ``None``
            (disabled), or :data:`AUTO` (configured/environment
            default).  Hits skip simulation; misses are stored after.
        progress: Optional callback ``(done, total, outcome)`` invoked
            as each job reaches a terminal state (completion order, not
            job order).  ``outcome`` is the :class:`JobResult` for
            successes and the terminal :class:`JobFailure` for failed
            jobs -- every job reports exactly once, so ``done`` always
            reaches ``total``.
        timeout_s: Default per-job wall-clock budget in seconds;
            ``None`` resolves through :func:`resolve_timeout`
            (``$REPRO_JOB_TIMEOUT``).  A job's own ``timeout_s`` takes
            precedence.  Pooled attempts (``n_jobs > 1``) are killed at
            the deadline; serial ones (``n_jobs=1``) are checked after
            the fact (an in-process simulation cannot be preempted).
        retries: Extra attempts granted on *transient* failures (worker
            crash, timeout).  Worker-side exceptions are deterministic
            and never retried.
        backoff_s: Base of the exponential retry backoff; attempt ``n``
            waits ``backoff_s * 2**(n - 1)`` seconds before retrying.

    Raises:
        RunnerError: aggregating a :class:`JobFailure` per failed job.
    """
    jobs = list(jobs)
    if not jobs:
        return []
    workers = resolve_jobs(n_jobs)
    store = resolve_cache(cache)
    default_timeout = resolve_timeout(timeout_s)
    retries = max(0, int(retries))
    backoff_s = max(0.0, float(backoff_s))
    plan = _resolve_fault_plan()

    total = len(jobs)
    done = 0
    # Each job's resolution: what runs, and the promise it carries.
    concrete: List[SimRequest] = list(jobs)
    promised: List[Optional[float]] = [None] * total
    results: List[Optional[JobResult]] = [None] * total
    keys: List[Optional[str]] = [None] * total
    misses: List[int] = []
    failures: List[JobFailure] = []
    fault_log: Dict[int, List[JobFailure]] = {i: [] for i in range(total)}
    durations: Dict[int, List[float]] = {i: [] for i in range(total)}

    def job_timeout(index: int) -> Optional[float]:
        limit = jobs[index].timeout_s
        return limit if limit is not None else default_timeout

    def backoff(attempt: int) -> float:
        return backoff_s * (2 ** (attempt - 1))

    def notify(outcome: Union[JobResult, JobFailure]) -> None:
        nonlocal done
        done += 1
        if progress is not None:
            progress(done, total, outcome)

    def add_event(index: int, kind: str, message: str = "",
                  tb: str = "",
                  duration: Optional[float] = None) -> JobFailure:
        """Record one failure event; returns it (with attempt history)."""
        if duration is not None:
            durations[index].append(duration)
        event = JobFailure(label=jobs[index].label, kind=kind,
                           message=message, traceback=tb,
                           attempts=len(durations[index]),
                           attempt_durations=list(durations[index]))
        fault_log[index].append(event)
        return event

    def record_success(index: int, act_dict, windows_dicts, diagnostics,
                       cycles: float, duration: float, pid: int) -> None:
        windows = None
        if windows_dicts is not None:
            from ..telemetry.window import windows_from_dicts
            windows = windows_from_dicts(windows_dicts)
        result = JobResult(job=jobs[index],
                           activity=ActivityReport.from_dict(act_dict),
                           cycles=cycles, cached=False,
                           duration_s=duration, worker=pid,
                           windows=windows,
                           attempts=len(durations[index]) + 1,
                           faults=list(fault_log[index]),
                           backend_used=concrete[index].backend,
                           promised_error=promised[index],
                           diagnostics=diagnostics)
        if store is not None and keys[index] is not None:
            store.put(result, key=keys[index])
        results[index] = result
        notify(result)

    def record_failure(failure: JobFailure) -> None:
        failures.append(failure)
        notify(failure)

    # Resolve each job once, and cache hits up front, in the calling
    # process.  A job that fails to resolve (or to key) runs as it is:
    # its attempt reports the error with a clean traceback.  A corrupt
    # entry degrades to a miss (the simulation re-runs and re-stores),
    # recorded as a cache-corrupt fault on the eventual result.
    # Sanitized jobs never hit: findings are not part of the cached
    # artifact, so they always run fresh -- the (byte-identical) result
    # is still stored under the shared key afterwards.
    for i, job in enumerate(jobs):
        try:
            concrete[i], promised[i] = job.resolve()
            if store is not None:
                keys[i] = request_key(concrete[i])
        except Exception:  # noqa: BLE001 -- the attempt reports it
            pass
        if store is not None and keys[i] is not None \
                and not job.sanitize:
            if _fault_for(plan, job.label, 1) == "corrupt":
                path = store.path_for(keys[i])
                if path.exists():
                    path.write_text("{corrupt", encoding="utf-8")
            hit, corrupt = store.lookup(concrete[i], key=keys[i])
            if corrupt:
                add_event(i, "cache-corrupt",
                          message="corrupt cache entry dropped; "
                                  "re-simulating")
            if hit is not None:
                hit.job = job
                hit.faults = list(fault_log[i])
                results[i] = hit
                notify(hit)
                continue
        misses.append(i)

    def run_serial(queue: Deque[Tuple[int, int]], fail_fast: bool) -> None:
        """In-process executor (serial mode and pool degradation).

        Timeouts cannot preempt an in-process simulation, so they are
        enforced after the fact: an over-budget attempt is discarded and
        retried exactly like a pooled timeout.  ``kill`` faults are
        skipped (there is no worker process to die).
        """
        while queue:
            index, attempt = queue.popleft()
            fault = _fault_for(plan, jobs[index].label, attempt)
            out = _execute_job((index, concrete[index], fault, True))
            _, act, win, diags, cycles, duration, _, error = out
            limit = job_timeout(index)
            if error is not None:
                record_failure(add_event(index, "exception", tb=error,
                                         duration=duration))
                if fail_fast:
                    # Serial semantics: fail fast, like a plain loop.
                    raise RunnerError(failures)
            elif limit is not None and duration > limit:
                event = add_event(
                    index, "timeout",
                    message=f"attempt {attempt} took {duration:.3g}s "
                            f"(budget {limit:.3g}s)",
                    duration=duration)
                if attempt > retries:
                    record_failure(event)
                    if fail_fast:
                        raise RunnerError(failures)
                else:
                    time.sleep(backoff(attempt))
                    queue.appendleft((index, attempt + 1))
            else:
                record_success(index, act, win, diags, cycles,
                               duration, -1)

    def run_pool(queue: Deque[Tuple[int, int]]) -> bool:
        """Supervised pool executor; False means "degrade to serial".

        Attempts run on the process-wide *warm pool*
        (:mod:`repro.runner.pool`): workers persist across jobs and
        across ``run_jobs`` calls, so small jobs don't pay a fork each.
        The supervisor watches each worker's pipe + process sentinel,
        so a SIGKILL (an injected ``kill`` fault included) surfaces as
        EOF/sentinel instead of hanging the sweep, and a timeout is
        enforced by killing exactly that worker.  A worker that
        crashed, timed out or was abandoned is discarded, never
        recycled.  On return ``False``, ``queue`` holds every
        unfinished (index, attempt).
        """
        nonlocal_state = {"consecutive_crashes": 0}
        ctx = _pool_context()
        warm = shared_pool()
        running: Dict[int, _Running] = {}
        hold: List[Tuple[float, int, int]] = []  # (ready_at, index, attempt)
        task_ids = itertools.count()

        def reap(task_id: int, recycle: bool = False) -> _Running:
            """Retire one attempt's worker: recycle it after a clean
            reply, kill and discard it otherwise."""
            task = running.pop(task_id)
            if recycle:
                warm.release(task.worker)
            else:
                warm.discard(task.worker)
            return task

        def abandon() -> bool:
            """Stop the pool, requeue in-flight work, signal degrade."""
            for task_id in list(running):
                task = reap(task_id)
                queue.append((task.index, task.attempt))
            for _, index, attempt in hold:
                queue.append((index, attempt))
            hold.clear()
            return False

        def transient(task: _Running, event: JobFailure) -> None:
            if task.attempt > retries:
                record_failure(event)
            else:
                hold.append((time.monotonic() + backoff(task.attempt),
                             task.index, task.attempt + 1))

        try:
            while queue or running or hold:
                now = time.monotonic()
                for item in sorted(hold):
                    if item[0] <= now:
                        hold.remove(item)
                        queue.append((item[1], item[2]))
                while queue and len(running) < workers:
                    index, attempt = queue.popleft()
                    fault = _fault_for(plan, jobs[index].label, attempt)
                    payload = (index, concrete[index], fault, False)
                    worker = None
                    try:
                        worker = warm.acquire(ctx)
                        worker.submit(payload)
                    except OSError:
                        # Pool-level failure (fork/spawn refused):
                        # degrade rather than abort the sweep.
                        if worker is not None:
                            warm.discard(worker)
                        queue.appendleft((index, attempt))
                        return abandon()
                    limit = job_timeout(index)
                    started = time.monotonic()
                    running[next(task_ids)] = _Running(
                        index=index, attempt=attempt, worker=worker,
                        started=started,
                        deadline=None if limit is None else started + limit)
                if not running:
                    if hold:
                        time.sleep(max(0.0, min(h[0] for h in hold) - now))
                    continue
                tick = 0.05
                deadlines = [t.deadline for t in running.values()
                             if t.deadline is not None]
                if deadlines:
                    tick = min(tick, max(0.0, min(deadlines) - now))
                if hold:
                    tick = min(tick, max(0.0, min(h[0] for h in hold) - now))
                waitables = []
                for task in running.values():
                    waitables.append(task.worker.conn)
                    waitables.append(task.worker.proc.sentinel)
                connection.wait(waitables, tick)
                now = time.monotonic()
                for task_id, task in list(running.items()):
                    out = None
                    try:
                        if task.worker.conn.poll():
                            out = task.worker.conn.recv()
                    except (EOFError, OSError):
                        out = None
                    if out is not None:
                        reap(task_id, recycle=True)
                        (_, act, win, diags, cycles, duration, pid,
                         error) = out
                        if error is not None:
                            record_failure(add_event(
                                task.index, "exception", tb=error,
                                duration=duration))
                        else:
                            record_success(task.index, act, win, diags,
                                           cycles, duration, pid)
                        nonlocal_state["consecutive_crashes"] = 0
                    elif not task.worker.alive:
                        exitcode = task.worker.proc.exitcode
                        reap(task_id)
                        transient(task, add_event(
                            task.index, "worker-crash",
                            message=f"worker died with exit code {exitcode} "
                                    f"on attempt {task.attempt}",
                            duration=now - task.started))
                        nonlocal_state["consecutive_crashes"] += 1
                        if nonlocal_state["consecutive_crashes"] >= \
                                MELTDOWN_AFTER:
                            return abandon()
                    elif task.deadline is not None and now >= task.deadline:
                        reap(task_id)
                        transient(task, add_event(
                            task.index, "timeout",
                            message=f"attempt {task.attempt} exceeded "
                                    f"{job_timeout(task.index):.3g}s; "
                                    f"worker killed",
                            duration=now - task.started))
            return True
        except BaseException:
            # Never leak workers, whatever interrupts the supervisor.
            for task_id in list(running):
                reap(task_id)
            raise

    queue: Deque[Tuple[int, int]] = deque((i, 1) for i in misses)
    if workers <= 1 or not misses:
        run_serial(queue, fail_fast=True)
    else:
        workers = min(workers, len(misses))
        if not run_pool(queue):
            # Graceful degradation: the pool melted down (repeated
            # worker crashes or unspawnable workers); finish the
            # remaining misses serially instead of aborting the sweep.
            run_serial(queue, fail_fast=False)
    if failures:
        raise RunnerError(failures)

    assert all(r is not None for r in results)
    return results  # type: ignore[return-value]
