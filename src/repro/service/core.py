"""The service scheduler: admission, queueing, dedup, dispatch.

:class:`PowerService` owns all daemon state and runs on one asyncio
event loop; simulations execute off-loop in executor threads (and,
below them, on the runner's fault-tolerant process pool).  A
submission's life:

1. **Parse** -- the HTTP body's ``request`` field must decode into a
   :class:`~repro.request.SimRequest`; anything else is a 400.
2. **Admission lint** -- the static analyzer (``gpusimpow lint``'s
   engine) runs over the launch; any ``ERROR``-severity diagnostic
   rejects the submission with a 422 and the full diagnostic payload,
   *before* any simulation resource is spent.  Verdicts are memoised
   per kernel IR and launch shape (:func:`repro.analysis.analyze_launch`).
3. **Cache probe** -- the content-addressed result cache is consulted
   under the request's digest (computed once per submission); a hit
   answers instantly (200, result inline) without touching quotas or
   queues.  The probe stays *after* lint: ``gpusimpow run`` may have
   cached a result for a kernel with lint errors, and that must not
   turn the 422 into a 200.  An untraced hit's answer is memoised,
   keyed by the digest and the request fields the answer echoes that
   the digest does not cover (the ``auto`` echo and its
   ``error_budget``), and stamped with the entry file's
   :meth:`~repro.runner.ResultCache.stamp`.  A repeat whose entry
   still has that stamp gets the same answer object back: no read, no
   power evaluation, no serialization.  Every cache write replaces the
   file, so a store, an ``achieved_error`` backfill or a ``cache
   clear`` sends the next hit down the full path again.
4. **Quota** -- each tenant may hold a bounded number of live
   (queued or running) submissions -- those attached to in-flight
   tasks; beyond that, 429.
5. **Dedup** -- an in-flight task with the same digest absorbs the
   submission: one simulation, every subscriber fanned the identical
   result.
6. **Queue** -- new work enters a priority heap (higher ``priority``
   first, FIFO within a level), bounded by ``queue_limit`` (503 when
   full), journaled for crash recovery, and dispatched onto the
   runner as capacity frees up.

Untraced tasks dispatch in batches through one
:func:`repro.runner.run_jobs` call that requests ``max_parallel``
workers, so every batch -- a one-task batch included -- simulates on
the runner's warm pool, inheriting its preemptive per-job timeouts,
retries and crash supervision, while the daemon's own interpreter stays
free for HTTP, lint and cache probes.  Per-task completion fans out
from the progress callback.  With ``max_parallel=1`` the runner
simulates in-process instead, as ``gpusimpow run --jobs 1`` does, and a
timeout is then only checked after the fact.  Traced tasks
(``trace_interval`` set) run in-process in their own executor thread
so a forwarding :class:`~repro.telemetry.TraceSink` can stream each
:class:`~repro.telemetry.ActivityWindow` to subscribers the moment it
is cut (windows cannot stream across the pool's process boundary).
"""

from __future__ import annotations

import asyncio
import heapq
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from ..analysis import analyze_launch
from ..analysis.diagnostics import Severity
from ..backends.base import BackendError
from ..core.gpusimpow import GPUSimPow
from ..request import SimRequest
from ..runner.cache import ResultCache, request_key
from ..runner.engine import AUTO, RunnerError, resolve_cache, run_jobs
from ..runner.job import JobResult
from ..telemetry.sink import TraceSink
from ..telemetry.window import windows_to_dicts
from .journal import Journal

#: Default per-tenant cap on live (queued + running) submissions.
DEFAULT_TENANT_QUOTA = 8

#: Default bound on queued tasks across all tenants.
DEFAULT_QUEUE_LIMIT = 64

#: Default concurrent-simulation slots.
DEFAULT_MAX_PARALLEL = 2

#: Bound on memoised cache-hit answers per service; the memo is
#: cleared when full.
ANSWER_MEMO_SIZE = 256


@dataclass
class ServiceStats:
    """Monotonic counters surfaced by ``GET /v1/status``."""

    submissions: int = 0
    simulations: int = 0
    cache_hits: int = 0
    dedup_hits: int = 0
    lint_rejections: int = 0
    quota_rejections: int = 0
    queue_rejections: int = 0
    failures: int = 0
    replayed: int = 0
    #: Fresh untraced simulations that ran on a pool worker process
    #: (``JobResult.worker != -1``) rather than in the daemon.
    pooled_simulations: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "submissions": self.submissions,
            "simulations": self.simulations,
            "cache_hits": self.cache_hits,
            "dedup_hits": self.dedup_hits,
            "lint_rejections": self.lint_rejections,
            "quota_rejections": self.quota_rejections,
            "queue_rejections": self.queue_rejections,
            "failures": self.failures,
            "replayed": self.replayed,
            "pooled_simulations": self.pooled_simulations,
        }


@dataclass
class Submission:
    """One client submission (possibly sharing a task with others)."""

    sub_id: str
    tenant: str
    digest: str
    state: str  # queued | running | done | failed
    task: Optional["SimTask"] = None
    payload: Optional[Dict[str, Any]] = None
    failure: Optional[Dict[str, Any]] = None
    cached: bool = False
    deduped: bool = False
    finished: asyncio.Event = field(default_factory=asyncio.Event)

    def describe(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "submission": self.sub_id,
            "tenant": self.tenant,
            "digest": self.digest,
            "state": self.state,
            "cached": self.cached,
            "deduped": self.deduped,
        }
        if self.failure is not None:
            out["failure"] = self.failure
        return out


@dataclass
class SimTask:
    """One in-flight simulation, shared by all same-key submissions.

    ``digest`` is the request's content digest (the cache key);
    ``key`` is the dedup/scheduling identity -- the digest plus the
    sanitize flag, because a sanitized run produces a payload
    (diagnostics) an unsanitized task of the same digest cannot
    provide, so the two must never share a task.  ``concrete`` and
    ``promised`` are admission's resolution of ``request``.
    """

    digest: str
    key: str
    request: SimRequest
    concrete: SimRequest
    promised: float
    priority: int
    seq: int
    state: str = "queued"  # queued | running | done | failed
    submissions: List[Submission] = field(default_factory=list)
    windows: List[Dict[str, Any]] = field(default_factory=list)
    subscribers: List[asyncio.Queue] = field(default_factory=list)
    payload: Optional[Dict[str, Any]] = None
    failure: Optional[Dict[str, Any]] = None


class _ForwardingSink(TraceSink):
    """Bridges worker-thread window cuts onto the event loop."""

    def __init__(self, loop: asyncio.AbstractEventLoop,
                 callback, task: SimTask) -> None:
        self._loop = loop
        self._callback = callback
        self._task = task

    def on_window(self, window) -> None:
        self._loop.call_soon_threadsafe(self._callback, self._task,
                                        window)


class PowerService:
    """Event-loop scheduler behind the daemon (and the test harness).

    All public methods must be called from the owning event loop.
    ``lint`` disables admission analysis when False (the analyzer is
    cheap, so it is on by default).  ``cache`` follows the runner
    convention: a :class:`~repro.runner.ResultCache`, a directory path,
    ``None`` (disabled) or :data:`~repro.runner.AUTO`.
    """

    def __init__(self, cache=AUTO,
                 max_parallel: int = DEFAULT_MAX_PARALLEL,
                 tenant_quota: int = DEFAULT_TENANT_QUOTA,
                 queue_limit: int = DEFAULT_QUEUE_LIMIT,
                 journal_path=None,
                 timeout_s: Optional[float] = None,
                 lint: bool = True) -> None:
        # Content-addressed cache hits are the service's cheapest
        # answers, so unlike batch runs the daemon defaults to a live
        # cache (honouring $REPRO_CACHE/$REPRO_CACHE_DIR) even when
        # nothing is configured; pass ``cache=None`` to disable.
        resolved = resolve_cache(cache)
        if resolved is None and cache is AUTO:
            resolved = ResultCache()
        self.cache = resolved
        self.max_parallel = max(1, int(max_parallel))
        self.tenant_quota = max(1, int(tenant_quota))
        self.queue_limit = max(1, int(queue_limit))
        self.timeout_s = timeout_s
        self.lint = lint
        self.stats = ServiceStats()
        # Wall clock for display; monotonic for uptime arithmetic (an
        # NTP step or suspend would make wall-clock uptime jump or go
        # negative).
        self.started_at = time.time()
        self._started_monotonic = time.monotonic()
        self._journal_path = journal_path
        self._journal: Optional[Journal] = None
        self._submissions: Dict[str, Submission] = {}
        self._inflight: Dict[str, SimTask] = {}
        # (digest, auto, repr(error_budget)) -> (entry stamp, answer).
        self._answers: Dict[Tuple[str, bool, str],
                            Tuple[Tuple[int, int, int],
                                  Dict[str, Any]]] = {}
        self._heap: List = []  # (-priority, seq, digest)
        self._seq = 0
        self._serial = 0
        self._running = 0
        self._paused = False
        self._closed = False

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> int:
        """Open the journal and re-admit pending submissions.

        Returns how many journaled submissions were replayed.  Must be
        called from the event loop (replayed cache hits resolve
        immediately).  A record resolves as a fresh submission does;
        one that no longer parses or resolves is closed as failed.
        """
        if self._journal_path is None:
            return 0
        pending = Journal.pending(self._journal_path)
        self._serial = Journal.highest_serial(self._journal_path)
        self._journal = Journal(self._journal_path)
        replayed = 0
        for record in pending:
            try:
                request = SimRequest.from_dict(record["request"])
                request.resolve_launch()
                concrete, promised = request.resolve()
            except (KeyError, ValueError, TypeError, BackendError):
                # Say, its backend or kernel is gone: close it instead
                # of leaving it pending (and replayed) forever.
                self._journal.record_done(str(record["sub"]), "failed")
                continue
            self._admit(request, concrete, promised,
                        tenant=str(record.get("tenant", "default")),
                        priority=int(record.get("priority", 0)),
                        sub_id=str(record["sub"]), journal=False)
            replayed += 1
        self.stats.replayed += replayed
        return replayed

    def close(self) -> None:
        """Stop the service: no new dispatches, end every open event
        stream (the ``None`` sentinel closes subscriber loops), and
        seal the journal with a final flush + fsync."""
        if self._closed:
            return
        self._closed = True
        for task in self._inflight.values():
            for queue in task.subscribers:
                queue.put_nowait(None)
            task.subscribers.clear()
        if self._journal is not None:
            self._journal.close()

    def pause(self) -> None:
        """Stop dispatching (queued work stays queued)."""
        self._paused = True

    def resume(self) -> None:
        self._paused = False
        self._schedule()

    @property
    def paused(self) -> bool:
        return self._paused

    # -- submission -----------------------------------------------------------

    def submit(self, body: Dict[str, Any],
               tenant: str = "default") -> tuple:
        """Admit one submission; returns ``(http_status, payload)``."""
        self.stats.submissions += 1
        if not isinstance(body, dict):
            return 400, {"error": "bad-request",
                         "message": "body must be a JSON object"}
        raw = body.get("request")
        if not isinstance(raw, dict):
            return 400, {"error": "bad-request",
                         "message": "body needs a 'request' object"}
        try:
            request = SimRequest.from_dict(raw)
            launch = request.resolve_launch()
            # The one ladder walk: an unknown backend, or one that
            # cannot sanitize or trace as asked, is rejected here.
            concrete, promised = request.resolve()
        except (ValueError, KeyError, TypeError, BackendError) as exc:
            return 400, {"error": "bad-request", "message": str(exc)}
        try:
            priority = int(body.get("priority", 0))
        except (ValueError, TypeError):
            return 400, {"error": "bad-request",
                         "message": "priority must be an integer"}

        if self.lint:
            analysis = analyze_launch(launch, request.config)
            errors = [d for d in analysis.diagnostics
                      if d.severity >= Severity.ERROR]
            if errors:
                self.stats.lint_rejections += 1
                return 422, {
                    "error": "lint-rejected",
                    "message": f"{len(errors)} verifier error(s); "
                               f"no simulation was scheduled",
                    "kernel": launch.kernel.name,
                    "diagnostics": [d.to_dict()
                                    for d in analysis.diagnostics],
                }

        return self._admit(request, concrete, promised, tenant=tenant,
                           priority=priority)

    def _admit(self, request: SimRequest, concrete: SimRequest,
               promised: float, tenant: str, priority: int,
               sub_id: Optional[str] = None, journal: bool = True,
               ) -> tuple:
        digest = request_key(concrete)
        task_key = digest + ("+sanitize" if request.sanitize else "")
        if sub_id is None:
            self._serial += 1
            sub_id = f"s{self._serial:06d}"
        sub = Submission(sub_id=sub_id, tenant=tenant, digest=digest,
                         state="queued")
        # Cache probe: instant answer, no quota or queue spent.
        # Sanitized submissions always execute -- the cache stores only
        # the (byte-identical) unsanitized result, not the diagnostics.
        if self.cache is not None and task_key not in self._inflight \
                and not request.sanitize:
            payload = self._cached_answer(request, concrete, digest)
            if payload is not None:
                sub.state = "done"
                sub.cached = True
                sub.payload = payload
                sub.finished.set()
                self.stats.cache_hits += 1
                self._submissions[sub_id] = sub
                if self._journal is not None:
                    if journal:
                        self._journal.record_submit(
                            sub_id, tenant, digest, priority,
                            request.to_dict())
                    # Always close the loop in the log -- a replayed
                    # submission that resolves from cache must not stay
                    # pending forever.
                    self._journal.record_done(sub_id, "done")
                out = sub.describe()
                out["result"] = payload
                return 200, out

        # Live submissions are those attached to in-flight tasks:
        # bounded by the queue and the slots, however many answered
        # submissions ``_submissions`` keeps.
        live = sum(1 for task in self._inflight.values()
                   for s in task.submissions if s.tenant == tenant)
        if live >= self.tenant_quota:
            self.stats.quota_rejections += 1
            return 429, {
                "error": "quota-exhausted",
                "message": f"tenant {tenant!r} already has {live} live "
                           f"submission(s) (quota {self.tenant_quota})",
                "tenant": tenant,
                "quota": self.tenant_quota,
            }

        task = self._inflight.get(task_key)
        if task is not None:
            sub.deduped = True
            sub.state = task.state
            task.submissions.append(sub)
            sub.task = task
            self.stats.dedup_hits += 1
        else:
            if len(self._heap) >= self.queue_limit:
                self.stats.queue_rejections += 1
                return 503, {
                    "error": "queue-full",
                    "message": f"{len(self._heap)} task(s) queued "
                               f"(limit {self.queue_limit})",
                }
            self._seq += 1
            task = SimTask(digest=digest, key=task_key, request=request,
                           concrete=concrete, promised=promised,
                           priority=priority, seq=self._seq)
            task.submissions.append(sub)
            sub.task = task
            self._inflight[task_key] = task
            heapq.heappush(self._heap, (-priority, self._seq, task_key))
        self._submissions[sub_id] = sub
        if journal and self._journal is not None:
            self._journal.record_submit(sub_id, tenant, digest,
                                        priority, request.to_dict())
        self._schedule()
        return 202, sub.describe()

    def _cached_answer(self, request: SimRequest, concrete: SimRequest,
                       digest: str) -> Optional[Dict[str, Any]]:
        """The answer to ``request`` from the cache entry at ``digest``,
        or None on a miss.

        An untraced answer comes from the memo while the entry keeps
        the stamp it had when the answer was built (stamped before the
        read, so a write racing the read only costs a rebuild).
        """
        if request.trace_interval is not None:
            hit = self.cache.get(concrete, key=digest)
            return None if hit is None \
                else self._build_payload(request, digest, hit)
        # repr keeps budgets 0.0 and -0.0 apart, as their echoes are.
        key = (digest, request.backend == "auto",
               repr(request.error_budget))
        stamp = self.cache.stamp(digest)
        memo = self._answers.get(key)
        if memo is not None and memo[0] == stamp:
            return memo[1]
        hit = self.cache.get(concrete, key=digest)
        if hit is None:
            return None
        payload = self._build_payload(request, digest, hit)
        if stamp is not None:
            if len(self._answers) >= ANSWER_MEMO_SIZE:
                self._answers.clear()
            self._answers[key] = (stamp, payload)
        return payload

    # -- queries --------------------------------------------------------------

    def submission(self, sub_id: str) -> Optional[Submission]:
        return self._submissions.get(sub_id)

    def describe(self, sub_id: str) -> tuple:
        sub = self._submissions.get(sub_id)
        if sub is None:
            return 404, {"error": "not-found",
                         "message": f"unknown submission {sub_id!r}"}
        return 200, sub.describe()

    def result(self, sub_id: str) -> tuple:
        sub = self._submissions.get(sub_id)
        if sub is None:
            return 404, {"error": "not-found",
                         "message": f"unknown submission {sub_id!r}"}
        if sub.state == "failed":
            return 500, {"error": "simulation-failed",
                         "submission": sub.sub_id,
                         "failure": sub.failure}
        if sub.state != "done" or sub.payload is None:
            return 409, {"error": "not-ready", "state": sub.state,
                         "submission": sub.sub_id}
        out = sub.describe()
        out["result"] = sub.payload
        return 200, out

    async def wait(self, sub_id: str,
                   timeout: Optional[float] = None) -> bool:
        """Block until ``sub_id`` reaches a terminal state."""
        sub = self._submissions.get(sub_id)
        if sub is None:
            return False
        try:
            await asyncio.wait_for(sub.finished.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False

    def status(self) -> Dict[str, Any]:
        queued = sum(1 for t in self._inflight.values()
                     if t.state == "queued")
        return {
            "ok": True,
            "paused": self._paused,
            "uptime_s": time.monotonic() - self._started_monotonic,
            "started_at": self.started_at,
            "queued_tasks": queued,
            "running_tasks": self._running,
            "inflight_tasks": len(self._inflight),
            "submissions": len(self._submissions),
            "max_parallel": self.max_parallel,
            "tenant_quota": self.tenant_quota,
            "queue_limit": self.queue_limit,
            "journal": (None if self._journal_path is None
                        else str(self._journal_path)),
            "cache": (None if self.cache is None
                      else str(self.cache.root)),
            "stats": self.stats.to_dict(),
        }

    # -- streaming ------------------------------------------------------------

    def subscribe(self, sub_id: str) -> Optional[asyncio.Queue]:
        """Queue of stream events for one submission, or None.

        Already-cut windows are replayed first; terminal events carry
        ``event: result`` / ``event: error`` followed by a ``None``
        sentinel.
        """
        sub = self._submissions.get(sub_id)
        if sub is None:
            return None
        queue: asyncio.Queue = asyncio.Queue()
        task = sub.task
        if task is not None:
            for window in task.windows:
                queue.put_nowait({"event": "window", "data": window})
        if sub.state in ("done", "failed"):
            queue.put_nowait(self._terminal_event(sub))
            queue.put_nowait(None)
        elif task is not None:
            task.subscribers.append(queue)
        return queue

    @staticmethod
    def _terminal_event(sub: Submission) -> Dict[str, Any]:
        if sub.state == "failed":
            return {"event": "error", "data": sub.failure or {}}
        return {"event": "result", "data": sub.payload or {}}

    # -- scheduling -----------------------------------------------------------

    def _schedule(self) -> None:
        if self._paused or self._closed:
            return
        free = self.max_parallel - self._running
        traced: List[SimTask] = []
        batch: List[SimTask] = []
        while free > 0 and self._heap:
            _, _, key = heapq.heappop(self._heap)
            task = self._inflight.get(key)
            if task is None or task.state != "queued":
                continue
            task.state = "running"
            for sub in task.submissions:
                sub.state = "running"
            if task.request.trace_interval is not None:
                traced.append(task)
            else:
                batch.append(task)
            free -= 1
        if not traced and not batch:
            return
        loop = asyncio.get_running_loop()
        for task in traced:
            self._running += 1
            loop.create_task(self._dispatch(self._execute_traced, [task]))
        if batch:
            self._running += len(batch)
            loop.create_task(self._dispatch(self._execute_batch, batch))

    async def _dispatch(self, execute, tasks: List[SimTask]) -> None:
        """Run ``execute(tasks, loop)`` on an executor thread.

        ``execute`` fans each task's answer out itself; a task it leaves
        unanswered fails with the exception it raised.
        """
        loop = asyncio.get_running_loop()
        try:
            await loop.run_in_executor(None, execute, tasks, loop)
        except Exception as exc:
            failure = {"error": type(exc).__name__, "message": str(exc)}
            for task in tasks:
                self._finish_task(task, None, failure, False)
        finally:
            self._running -= len(tasks)
            self._schedule()

    def _execute_batch(self, tasks: List[SimTask],
                       loop: asyncio.AbstractEventLoop) -> None:
        """Worker thread: run one ``run_jobs`` batch, fan out per-task.

        Jobs are tagged with their task digest so completions (and the
        runner's :class:`JobFailure` records, which only carry a label)
        map back unambiguously even when two requests share a kernel.
        """
        by_key = {t.key: t for t in tasks}
        jobs = [replace(task.concrete, tag=task.key) for task in tasks]

        def on_outcome(done: int, total: int, outcome) -> None:
            if isinstance(outcome, JobResult):
                task = by_key.get(outcome.job.tag)
                if task is None:
                    return
                payload = self._build_payload(task.request, task.digest,
                                              outcome)
                pooled = outcome.worker != -1
                loop.call_soon_threadsafe(self._finish_task, task,
                                          payload, None,
                                          outcome.cached, pooled)
            else:
                task = by_key.get(outcome.label)
                if task is None:
                    return
                failure = {"error": "simulation-failed",
                           "kernel": task.request.label}
                failure.update(outcome.to_dict())
                loop.call_soon_threadsafe(self._finish_task, task,
                                          None, failure, False)

        try:
            run_jobs(jobs, n_jobs=self.max_parallel,
                     cache=self.cache, progress=on_outcome,
                     timeout_s=self.timeout_s)
        except RunnerError:
            pass  # per-task failures already fanned out via progress

    def _execute_traced(self, tasks: List[SimTask],
                        loop: asyncio.AbstractEventLoop) -> None:
        """Worker thread: simulate one task in-process, streaming each
        window to subscribers through a forwarding sink."""
        task, = tasks
        job = None
        if self.cache is not None and not task.request.sanitize:
            job = self.cache.get(task.concrete, key=task.digest)
        if job is not None:
            for window in job.windows or []:
                loop.call_soon_threadsafe(self._push_window, task, window)
        else:
            sink = _ForwardingSink(loop, self._push_window, task)
            output = task.concrete.execute(sink=sink)
            job = JobResult(job=task.request, activity=output.activity,
                            cycles=output.cycles, windows=output.windows,
                            backend_used=task.concrete.backend,
                            promised_error=task.promised,
                            diagnostics=output.diagnostics)
            if self.cache is not None:
                self.cache.put(job, key=task.digest)
        payload = self._build_payload(task.request, task.digest, job)
        loop.call_soon_threadsafe(self._finish_task, task, payload, None,
                                  job.cached)

    # -- completion -----------------------------------------------------------

    def _push_window(self, task: SimTask, window) -> None:
        data = windows_to_dicts([window])[0]
        task.windows.append(data)
        for queue in task.subscribers:
            queue.put_nowait({"event": "window", "data": data})

    def _finish_task(self, task: SimTask,
                     payload: Optional[Dict[str, Any]],
                     failure: Optional[Dict[str, Any]],
                     cached: bool, pooled: bool = False) -> None:
        """Fan one task's terminal state out to every submission.

        The same ``payload`` object reaches every subscriber, so fanned
        results are bit-identical by construction.  ``pooled`` marks a
        result a pool worker simulated.  Callers manage the
        running-slot count themselves.
        """
        if task.state in ("done", "failed"):
            return
        ok = failure is None
        task.state = "done" if ok else "failed"
        task.payload = payload
        task.failure = failure
        if ok and not cached:
            self.stats.simulations += 1
            self.stats.pooled_simulations += int(pooled)
        if ok and cached:
            self.stats.cache_hits += 1
        if not ok:
            self.stats.failures += 1
        self._inflight.pop(task.key, None)
        for sub in task.submissions:
            sub.state = task.state
            sub.payload = payload
            sub.failure = failure
            sub.cached = cached
            sub.finished.set()
            if self._journal is not None:
                self._journal.record_done(sub.sub_id, task.state)
        for queue in task.subscribers:
            queue.put_nowait(self._terminal_event(task.submissions[0]))
            queue.put_nowait(None)
        task.subscribers.clear()

    # -- result payloads ------------------------------------------------------

    def _build_payload(self, request: SimRequest, digest: str,
                       job: JobResult) -> Dict[str, Any]:
        """Power-evaluate one finished simulation into a response body.

        ``request`` is the submitted request and ``digest`` its digest,
        computed once at admission.  ``job`` is the finished
        :class:`~repro.runner.JobResult` -- a cache hit, a batch
        outcome, or a traced run's output -- replayed through
        :meth:`GPUSimPow.run`, so the ``simulation`` record carries the
        same provenance as a fresh run.  The job also supplies the rest
        of the answer: whether it was ``cached``, the fidelity ladder's
        provenance (the resolution of ``"auto"``, the error the chosen
        tier promised, and -- once an exact run of the same digest
        exists -- the error it actually achieved) and the runtime
        sanitizer's findings.  A sanitized request always carries a
        ``sanitizer`` object so clients can distinguish "clean" from
        "not sanitized".
        """
        result = GPUSimPow(request.config).run(job)
        backend_used = result.backend
        from ..backends.base import all_backends
        info = getattr(all_backends().get(backend_used), "info", None)
        payload = {
            "kernel": result.kernel_name,
            "gpu": request.config.name,
            "digest": digest,
            "backend": backend_used,
            "cached": job.cached,
            "summary": result.summary(),
            "simulation": result.to_dict(),
        }
        if info is not None:
            payload["tier"] = info.tier
        if request.backend == "auto":
            payload["error_budget"] = (0.0 if request.error_budget
                                       is None
                                       else request.error_budget)
        if job.promised_error is not None:
            payload["promised_error"] = float(job.promised_error)
        if job.achieved_error is not None:
            payload["achieved_error"] = float(job.achieved_error)
        if request.sanitize:
            found = list(job.diagnostics or [])
            payload["sanitizer"] = {
                "clean": not found,
                "diagnostics": [d.to_dict() for d in found],
            }
        return payload
