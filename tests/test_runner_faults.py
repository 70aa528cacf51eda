"""Fault-path tests for the runner engine (ISSUE 4).

Every fault here is injected deterministically through the engine's
fault plan (:func:`repro.runner.set_fault_plan` / ``$REPRO_FAULT_PLAN``):
kill a pool worker mid-job, delay an attempt past its timeout, raise
inside an attempt, or corrupt a cache entry before lookup.  The
invariants under test:

* a SIGKILL'd worker never hangs ``run_jobs`` -- the job retries and
  the sweep completes, or fails fast with kind=``worker-crash``;
* timeouts kill exactly the over-budget attempt and retry it;
* retry exhaustion surfaces a :class:`JobFailure` with the full
  per-attempt history;
* repeated pool meltdown degrades to serial execution instead of
  aborting the sweep;
* corrupt cache entries degrade to misses and are re-stored;
* results are bit-identical with and without injected faults.
"""

import os
import time
import warnings

import pytest

from repro.runner import (AUTO, JobFailure, ResultCache, RunnerError, SimJob,
                          request_key, resolve_jobs, resolve_timeout,
                          run_jobs, set_default_cache, set_default_jobs,
                          set_default_timeout, set_fault_plan)
from repro.runner.engine import _fault_for, _resolve_fault_plan, _warned_env
from repro.sim import gt240
from tests.conftest import build_vecadd_launch


def tiny_jobs(n=2, **kw):
    """``n`` tiny vector-add jobs with distinct labels j0..j{n-1}."""
    launch, _, _ = build_vecadd_launch(n=64, block=64, grid=1)
    return [SimJob(config=gt240(), launch=launch, tag=f"j{i}", **kw)
            for i in range(n)]


@pytest.fixture(autouse=True)
def clean_engine_state():
    """Isolate fault plans, runner defaults and one-time warnings."""
    yield
    set_fault_plan(None)
    set_default_jobs(None)
    set_default_cache(AUTO)
    set_default_timeout(None)
    _warned_env.clear()


@pytest.fixture(scope="module")
def clean_result():
    """One fault-free reference run of a tiny job (for bit-identity)."""
    job, = tiny_jobs(1)
    result, = run_jobs([job], n_jobs=1, cache=None)
    return result


def assert_bit_identical(result, reference):
    assert result.activity.to_dict() == reference.activity.to_dict()
    assert result.cycles == reference.cycles


class TestFaultPlan:
    def test_per_attempt_resolution(self):
        plan = {"a": ["kill", "ok", "delay:2"]}
        assert _fault_for(plan, "a", 1) == "kill"
        assert _fault_for(plan, "a", 2) is None
        assert _fault_for(plan, "a", 3) == "delay:2"
        assert _fault_for(plan, "a", 4) is None  # beyond the list
        assert _fault_for(plan, "b", 1) is None  # unlisted job

    def test_env_plan(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", '{"x": ["exc"]}')
        assert _resolve_fault_plan() == {"x": ["exc"]}

    def test_set_fault_plan_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", '{"x": ["exc"]}')
        set_fault_plan({"y": ["kill"]})
        assert _resolve_fault_plan() == {"y": ["kill"]}

    def test_invalid_env_plan_warns_once(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "{not json")
        with pytest.warns(RuntimeWarning, match="REPRO_FAULT_PLAN"):
            assert _resolve_fault_plan() == {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _resolve_fault_plan() == {}

    def test_unknown_action_fails_the_attempt(self):
        jobs = tiny_jobs(1)
        set_fault_plan({"j0": ["frobnicate"]})
        with pytest.raises(RunnerError) as exc:
            run_jobs(jobs, n_jobs=1, cache=None)
        assert "frobnicate" in str(exc.value)


class TestKilledWorkerRecovery:
    def test_sigkilled_worker_is_retried(self, clean_result):
        """The acceptance scenario: SIGKILL mid-job, no hang, retry,
        bit-identical completion -- under a 2-worker pool."""
        jobs = tiny_jobs(2)
        set_fault_plan({"j0": ["kill"]})
        results = run_jobs(jobs, n_jobs=2, cache=None, backoff_s=0.0)
        assert results[0].attempts == 2
        assert [f.kind for f in results[0].faults] == ["worker-crash"]
        assert results[1].attempts == 1 and results[1].faults == []
        for r in results:
            assert_bit_identical(r, clean_result)

    def test_crash_failure_carries_exit_code(self):
        jobs = tiny_jobs(2)
        set_fault_plan({"j0": ["kill", "kill", "kill"]})
        with pytest.raises(RunnerError) as exc:
            run_jobs(jobs, n_jobs=2, cache=None, retries=2, backoff_s=0.0)
        failure, = exc.value.failures
        assert failure.kind == "worker-crash"
        assert "-9" in failure.message  # SIGKILL exit code

    def test_progress_reports_failed_jobs(self):
        """Satellite: (done, total) watchers must converge even when
        jobs fail -- every job reports exactly once."""
        jobs = tiny_jobs(2)
        jobs[0] = SimJob(config=gt240(), kernel="noSuchKernel", tag="j0")
        seen = []
        with pytest.raises(RunnerError):
            run_jobs(jobs, n_jobs=2, cache=None,
                     progress=lambda d, t, o: seen.append((d, t, o)))
        assert [(d, t) for d, t, _ in seen] == [(1, 2), (2, 2)]
        kinds = {type(o).__name__ for _, _, o in seen}
        assert "JobFailure" in kinds  # the failed job reported too


class TestTimeouts:
    def test_pooled_timeout_kills_and_retries(self, clean_result):
        jobs = tiny_jobs(2)
        set_fault_plan({"j0": ["delay:30"]})
        start = time.monotonic()
        results = run_jobs(jobs, n_jobs=2, cache=None, timeout_s=2.0,
                           backoff_s=0.0)
        assert time.monotonic() - start < 20  # nowhere near the 30s sleep
        assert results[0].attempts == 2
        assert [f.kind for f in results[0].faults] == ["timeout"]
        assert_bit_identical(results[0], clean_result)

    def test_serial_timeout_is_posthoc(self, clean_result):
        """Serial attempts cannot be preempted; over-budget attempts
        are discarded after the fact and retried the same way."""
        jobs = tiny_jobs(1)
        set_fault_plan({"j0": ["delay:1.5"]})
        results = run_jobs(jobs, n_jobs=1, cache=None, timeout_s=1.0,
                           backoff_s=0.0)
        assert results[0].attempts == 2
        fault, = results[0].faults
        assert fault.kind == "timeout"
        assert fault.attempt_durations[0] > 1.0
        assert_bit_identical(results[0], clean_result)

    def test_single_pooled_miss_is_preempted(self):
        """Pool or in-process follows the requested workers, not the
        miss count: a lone miss under ``n_jobs=2`` runs on a worker,
        so every attempt is cut at the budget instead of running its
        full course."""
        jobs = tiny_jobs(1)
        set_fault_plan({"j0": ["delay:5"] * 3})
        budget, slack = 0.3, 0.5
        start = time.monotonic()
        with pytest.raises(RunnerError) as exc:
            run_jobs(jobs, n_jobs=2, cache=None, timeout_s=budget,
                     backoff_s=0.0)
        assert time.monotonic() - start < 5  # one delay would take 5s
        failure, = exc.value.failures
        assert failure.kind == "timeout"
        assert failure.attempts == 3
        assert len(failure.attempt_durations) == 3
        assert all(budget <= d < budget + slack
                   for d in failure.attempt_durations)

    def test_job_level_timeout_overrides_default(self):
        jobs = tiny_jobs(1, timeout_s=1.0)
        set_fault_plan({"j0": ["delay:1.5"]})
        # The run-level budget (1h) would never fire; the job's does.
        results = run_jobs(jobs, n_jobs=1, cache=None, timeout_s=3600.0,
                           backoff_s=0.0)
        assert results[0].attempts == 2

    def test_timeout_exhaustion(self):
        jobs = tiny_jobs(1)
        set_fault_plan({"j0": ["delay:1.5", "delay:1.5"]})
        with pytest.raises(RunnerError) as exc:
            run_jobs(jobs, n_jobs=1, cache=None, timeout_s=1.0,
                     retries=1, backoff_s=0.0)
        failure, = exc.value.failures
        assert failure.kind == "timeout"
        assert failure.attempts == 2
        assert len(failure.attempt_durations) == 2

    def test_timeout_not_in_cache_key(self):
        plain, = tiny_jobs(1)
        budgeted, = tiny_jobs(1, timeout_s=5.0)
        assert request_key(plain) == request_key(budgeted)

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError):
            tiny_jobs(1, timeout_s=0.0)
        with pytest.raises(ValueError):
            resolve_timeout(-1.0)


class TestPlacement:
    def test_single_miss_with_two_workers_is_pooled(self, clean_result):
        result, = run_jobs(tiny_jobs(1), n_jobs=2, cache=None)
        assert result.worker not in (-1, os.getpid())
        assert_bit_identical(result, clean_result)

    def test_one_worker_runs_in_process(self, clean_result):
        result, = run_jobs(tiny_jobs(1), n_jobs=1, cache=None)
        assert result.worker == -1
        assert_bit_identical(result, clean_result)

    def test_single_kill_fault_fires_with_two_workers(self, clean_result):
        """``kill`` needs a worker to die; a lone miss now has one."""
        set_fault_plan({"j0": ["kill"]})
        result, = run_jobs(tiny_jobs(1), n_jobs=2, cache=None,
                           backoff_s=0.0)
        assert result.attempts == 2
        assert [f.kind for f in result.faults] == ["worker-crash"]
        assert_bit_identical(result, clean_result)


class TestRetryExhaustion:
    def test_failure_carries_full_attempt_history(self):
        jobs = tiny_jobs(2)
        set_fault_plan({"j0": ["kill"] * 4})
        with pytest.raises(RunnerError) as exc:
            run_jobs(jobs, n_jobs=2, cache=None, retries=1, backoff_s=0.0)
        failure, = exc.value.failures
        assert failure.kind == "worker-crash"
        assert failure.attempts == 2  # 1 + retries
        assert len(failure.attempt_durations) == 2
        assert failure.label == "j0"

    def test_exceptions_are_not_retried(self):
        jobs = tiny_jobs(2)
        set_fault_plan({"j0": ["exc", "ok"]})  # attempt 2 would succeed
        with pytest.raises(RunnerError) as exc:
            run_jobs(jobs, n_jobs=2, cache=None, retries=3, backoff_s=0.0)
        failure, = exc.value.failures
        assert failure.kind == "exception"
        assert failure.attempts == 1
        assert "injected failure" in failure.traceback

    def test_exponential_backoff_spacing(self):
        jobs = tiny_jobs(1)
        set_fault_plan({"j0": ["exc"]})
        # Serial fail-fast still raises (plain-loop semantics).
        with pytest.raises(RunnerError):
            run_jobs(jobs, n_jobs=1, cache=None, backoff_s=0.0)


class TestSerialDegradation:
    def test_pool_meltdown_finishes_serially(self, clean_result):
        """Every pooled attempt of both jobs crashes; after the crash
        budget the engine must finish the sweep in-process instead of
        aborting (kill faults only apply to pool workers)."""
        jobs = tiny_jobs(2)
        set_fault_plan({"j0": ["kill"] * 8, "j1": ["kill"] * 8})
        results = run_jobs(jobs, n_jobs=2, cache=None, retries=6,
                           backoff_s=0.0)
        assert all(r.worker == -1 for r in results)  # finished in-process
        assert all(r.attempts > 1 for r in results)
        assert all(any(f.kind == "worker-crash" for f in r.faults)
                   for r in results)
        for r in results:
            assert_bit_identical(r, clean_result)

    def test_degraded_results_are_stored(self, tmp_path):
        jobs = tiny_jobs(2)
        cache = ResultCache(tmp_path)
        set_fault_plan({"j0": ["kill"] * 8, "j1": ["kill"] * 8})
        run_jobs(jobs, n_jobs=2, cache=cache, retries=6, backoff_s=0.0)
        assert cache.stores == 2
        set_fault_plan(None)
        warm = run_jobs(jobs, n_jobs=1, cache=cache)
        assert all(r.cached for r in warm)


class TestCacheCorruption:
    def test_truncated_entry_degrades_and_restores(self, tmp_path):
        jobs = tiny_jobs(1)
        cache = ResultCache(tmp_path)
        cold, = run_jobs(jobs, n_jobs=1, cache=cache)
        key = request_key(jobs[0])
        cache.path_for(key).write_text("{trunca", encoding="utf-8")
        fresh, = run_jobs(jobs, n_jobs=1, cache=cache)
        assert not fresh.cached
        assert [f.kind for f in fresh.faults] == ["cache-corrupt"]
        assert fresh.faults[0].attempts == 0  # before any attempt
        assert cache.corrupt == 1
        assert_bit_identical(fresh, cold)
        warm, = run_jobs(jobs, n_jobs=1, cache=cache)  # re-stored
        assert warm.cached
        assert_bit_identical(warm, cold)

    def test_corrupt_fault_action(self, tmp_path):
        jobs = tiny_jobs(1)
        cache = ResultCache(tmp_path)
        run_jobs(jobs, n_jobs=1, cache=cache)
        set_fault_plan({"j0": ["corrupt"]})
        fresh, = run_jobs(jobs, n_jobs=1, cache=cache)
        assert not fresh.cached
        assert [f.kind for f in fresh.faults] == ["cache-corrupt"]

    def test_lookup_distinguishes_miss_from_corrupt(self, tmp_path):
        jobs = tiny_jobs(1)
        cache = ResultCache(tmp_path)
        assert cache.lookup(jobs[0]) == (None, False)  # plain miss
        key = request_key(jobs[0])
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("not json at all", encoding="utf-8")
        hit, corrupt = cache.lookup(jobs[0], key=key)
        assert hit is None and corrupt
        assert not path.exists()  # broken file dropped


class TestOrphanedTempFiles:
    def plant(self, root, shard="ab", name="tmpdead123.tmp", age_s=0.0):
        shard_dir = root / shard
        shard_dir.mkdir(parents=True, exist_ok=True)
        orphan = shard_dir / name
        orphan.write_text("half-written entry", encoding="utf-8")
        if age_s:
            old = time.time() - age_s
            os.utime(orphan, (old, old))
        return orphan

    def test_stats_account_for_orphans(self, tmp_path):
        cache = ResultCache(tmp_path)
        self.plant(cache.root)
        stats = cache.stats()
        assert stats["orphans"] == 1
        assert stats["orphan_bytes"] > 0
        assert stats["entries"] == 0  # orphans are not entries

    def test_clear_sweeps_orphans(self, tmp_path):
        jobs = tiny_jobs(1)
        cache = ResultCache(tmp_path)
        run_jobs(jobs, n_jobs=1, cache=cache)
        orphan = self.plant(cache.root)
        assert cache.clear() == 1  # one real entry
        assert not orphan.exists()
        assert cache.stats()["orphans"] == 0

    def test_construction_sweeps_only_old_orphans(self, tmp_path):
        fresh = self.plant(tmp_path, name="tmpfresh.tmp")
        stale = self.plant(tmp_path, name="tmpstale.tmp", age_s=7200.0)
        ResultCache(tmp_path)  # age-based sweep runs in the constructor
        assert fresh.exists()  # a live writer may still own this one
        assert not stale.exists()


class TestRunnerErrorGuard:
    def test_empty_failures_does_not_raise_indexerror(self):
        err = RunnerError([])
        assert err.failures == []
        assert "no recorded failures" in str(err)

    def test_legacy_tuple_failures_normalised(self):
        err = RunnerError([("lbl", "Traceback ...\nValueError: boom")])
        failure, = err.failures
        assert isinstance(failure, JobFailure)
        assert failure.kind == "exception"
        assert "ValueError: boom" in str(err)


class TestEnvResolution:
    def test_invalid_repro_jobs_warns_once(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "banana")
        with pytest.warns(RuntimeWarning, match="REPRO_JOBS.*banana"):
            assert resolve_jobs(None) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # second call stays silent
            assert resolve_jobs(None) == 1

    def test_invalid_repro_job_timeout_warns(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "soon")
        with pytest.warns(RuntimeWarning, match="REPRO_JOB_TIMEOUT"):
            assert resolve_timeout(None) is None

    def test_nonpositive_env_timeout_warns(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "-5")
        with pytest.warns(RuntimeWarning, match="REPRO_JOB_TIMEOUT"):
            assert resolve_timeout(None) is None

    def test_valid_env_timeout(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "12.5")
        assert resolve_timeout(None) == 12.5

    def test_configured_timeout_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "12.5")
        set_default_timeout(3.0)
        assert resolve_timeout(None) == 3.0
        assert resolve_timeout(7.0) == 7.0  # explicit arg wins


class TestFaultDeterminism:
    def test_bit_identical_with_and_without_faults(self, clean_result):
        """The acceptance invariant: cached, pooled, serial and
        fault-retried executions all produce identical numbers."""
        jobs = tiny_jobs(2)
        set_fault_plan({"j0": ["kill"], "j1": ["delay:30"]})
        faulted = run_jobs(jobs, n_jobs=2, cache=None, timeout_s=2.0,
                           backoff_s=0.0)
        set_fault_plan(None)
        plain = run_jobs(jobs, n_jobs=2, cache=None)
        for f, p in zip(faulted, plain):
            assert_bit_identical(f, p)
            assert_bit_identical(f, clean_result)

    def test_traced_job_survives_retry(self, tmp_path):
        """Windows must ship intact from a retried attempt and round-trip
        through the cache."""
        launch, _, _ = build_vecadd_launch(n=64, block=64, grid=1)
        jobs = [SimJob(config=gt240(), launch=launch, tag=f"j{i}",
                       trace_interval=100.0) for i in range(2)]
        cache = ResultCache(tmp_path)
        set_fault_plan({"j0": ["kill"]})
        traced = run_jobs(jobs, n_jobs=2, cache=cache, backoff_s=0.0)
        assert traced[0].attempts == 2
        assert traced[0].windows
        set_fault_plan(None)
        warm = run_jobs(jobs, n_jobs=1, cache=cache)
        assert warm[0].cached
        assert len(warm[0].windows) == len(traced[0].windows)
