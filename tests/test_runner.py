"""Unit tests for repro.runner: jobs, cache keys, cache, and the engine."""


import numpy as np
import pytest

import repro
from repro.isa import Dim3, KernelBuilder, KernelLaunch, Sreg
from repro.runner import (AUTO, JobResult, ResultCache, RunnerError, SimJob,
                          request_key, resolve_cache, resolve_jobs, run_jobs,
                          set_default_cache, set_default_jobs)
from repro.sim import gt240, gtx580
from tests.conftest import build_vecadd_launch


@pytest.fixture()
def tiny_job():
    launch, _, _ = build_vecadd_launch(n=64, block=64, grid=1)
    return SimJob(config=gt240(), kernel="tiny_vecadd", launch=launch)


@pytest.fixture(autouse=True)
def clean_runner_defaults():
    """Keep the process-wide runner defaults out of other tests."""
    yield
    set_default_jobs(None)
    set_default_cache(AUTO)


class TestSimJob:
    def test_needs_kernel_or_launch(self):
        with pytest.raises(ValueError):
            SimJob(config=gt240())

    def test_label(self, tiny_job):
        assert tiny_job.label == "tiny_vecadd@GT240"
        assert SimJob(config=gt240(), kernel="x", launch=tiny_job.launch,
                      tag="probe").label == "probe"

    def test_resolve_launch_prefers_explicit(self, tiny_job):
        assert tiny_job.resolve_launch() is tiny_job.launch

    def test_resolve_launch_by_workload_label(self, launches):
        job = SimJob(config=gt240(), kernel="vectorAdd")
        resolved = job.resolve_launch()
        assert resolved.kernel.name == launches["vectorAdd"].kernel.name

    def test_resolve_launch_unknown_label(self):
        with pytest.raises(KeyError):
            SimJob(config=gt240(), kernel="noSuchKernel").resolve_launch()


class TestJobKey:
    def test_stable_across_calls(self, tiny_job):
        assert request_key(tiny_job) == request_key(tiny_job)

    def test_workload_label_matches_explicit_launch(self, launches):
        by_label = SimJob(config=gt240(), kernel="vectorAdd")
        explicit = SimJob(config=gt240(), kernel="vectorAdd",
                          launch=launches["vectorAdd"])
        assert request_key(by_label) == request_key(explicit)

    def test_sensitive_to_config(self, tiny_job):
        other = SimJob(config=gtx580(), kernel=tiny_job.kernel,
                       launch=tiny_job.launch)
        assert request_key(other) != request_key(tiny_job)

    def test_sensitive_to_single_config_field(self, tiny_job):
        tweaked = SimJob(config=gt240().scaled(warp_size=16),
                         kernel=tiny_job.kernel, launch=tiny_job.launch)
        assert request_key(tweaked) != request_key(tiny_job)

    def test_sensitive_to_launch_dims(self, tiny_job):
        launch = tiny_job.launch
        wider = KernelLaunch(kernel=launch.kernel, grid=Dim3(2),
                             block=launch.block,
                             globals_init=launch.globals_init,
                             gmem_words=launch.gmem_words)
        job = SimJob(config=gt240(), launch=wider)
        assert request_key(job) != request_key(tiny_job)

    def test_sensitive_to_initial_memory(self, tiny_job):
        launch = tiny_job.launch
        init = {off: np.asarray(arr).copy()
                for off, arr in launch.globals_init.items()}
        first = sorted(init)[0]
        init[first] = init[first] + 1.0
        changed = KernelLaunch(kernel=launch.kernel, grid=launch.grid,
                               block=launch.block, globals_init=init,
                               gmem_words=launch.gmem_words)
        job = SimJob(config=gt240(), launch=changed)
        assert request_key(job) != request_key(tiny_job)

    def test_sensitive_to_sim_version(self, tiny_job, monkeypatch):
        before = request_key(tiny_job)
        monkeypatch.setattr(repro, "SIM_VERSION", "9999.test")
        assert request_key(tiny_job) != before


class TestResultCache:
    def test_roundtrip_bit_identical(self, tiny_job, tmp_path):
        cache = ResultCache(tmp_path)
        out = tiny_job.execute()
        cache.put(JobResult(job=tiny_job, activity=out.activity,
                            cycles=out.cycles))
        hit = cache.get(tiny_job)
        assert hit is not None and hit.cached
        assert hit.cycles == out.cycles
        assert hit.activity.to_dict() == out.activity.to_dict()

    def test_miss_on_empty(self, tiny_job, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(tiny_job) is None
        assert cache.misses == 1

    def test_corrupt_entry_degrades_to_miss(self, tiny_job, tmp_path):
        cache = ResultCache(tmp_path)
        out = tiny_job.execute()
        key = cache.put(JobResult(job=tiny_job, activity=out.activity,
                                  cycles=out.cycles))
        cache.path_for(key).write_text("{not json", encoding="utf-8")
        assert cache.get(tiny_job) is None

    def test_version_bump_invalidates(self, tiny_job, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        out = tiny_job.execute()
        cache.put(JobResult(job=tiny_job, activity=out.activity,
                            cycles=out.cycles))
        monkeypatch.setattr(repro, "SIM_VERSION", "9999.test")
        # New tag -> new key -> miss; and even a forced lookup of the old
        # entry refuses to load it.
        assert cache.get(tiny_job) is None

    def test_invalidate_and_clear(self, tiny_job, tmp_path):
        cache = ResultCache(tmp_path)
        out = tiny_job.execute()
        key = cache.put(JobResult(job=tiny_job, activity=out.activity,
                                  cycles=out.cycles))
        assert cache.entries() == 1
        assert cache.invalidate(key)
        assert not cache.invalidate(key)
        cache.put(JobResult(job=tiny_job, activity=out.activity,
                            cycles=out.cycles))
        assert cache.clear() == 1
        assert cache.entries() == 0

    def test_env_var_location(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env_cache"))
        assert ResultCache().root == tmp_path / "env_cache"

    def test_failed_writes_leave_no_temp_file(self, tiny_job, tmp_path,
                                              monkeypatch):
        """Entry and link writes share one atomic writer: a dump that
        raises leaves neither a partial file nor an orphaned temp."""
        cache = ResultCache(tmp_path)
        out = tiny_job.execute()

        def failing_dump(*args, **kwargs):
            raise TypeError("unserialisable")

        monkeypatch.setattr("repro.runner.cache.json.dump", failing_dump)
        with pytest.raises(TypeError):
            cache.put(JobResult(job=tiny_job, activity=out.activity,
                                cycles=out.cycles))
        cache._register_link("ab" * 32, "cd" * 32)  # best-effort: silent
        assert not list(tmp_path.rglob("*.tmp"))
        assert cache.entries() == 0
        assert not list(tmp_path.rglob("*.link"))


class TestResolvers:
    def test_jobs_precedence(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(None) == 3
        set_default_jobs(2)
        assert resolve_jobs(None) == 2
        assert resolve_jobs(5) == 5

    def test_cache_env_values(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert resolve_cache(AUTO) is None
        monkeypatch.setenv("REPRO_CACHE", "off")
        assert resolve_cache(AUTO) is None
        monkeypatch.setenv("REPRO_CACHE", "1")
        assert resolve_cache(AUTO).root == tmp_path
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "explicit"))
        assert resolve_cache(AUTO).root == tmp_path / "explicit"

    def test_cache_passthrough_and_default(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert resolve_cache(cache) is cache
        assert resolve_cache(None) is None
        set_default_cache(cache)
        assert resolve_cache(AUTO) is cache


class TestRunJobs:
    def test_empty(self):
        assert run_jobs([]) == []

    def test_serial_matches_direct_execution(self, tiny_job):
        direct = tiny_job.execute()
        result, = run_jobs([tiny_job], n_jobs=1, cache=None)
        assert isinstance(result, JobResult)
        assert not result.cached and result.worker == -1
        assert result.cycles == direct.cycles
        assert result.activity.to_dict() == direct.activity.to_dict()

    def test_cache_hit_skips_simulation(self, tiny_job, tmp_path):
        cache = ResultCache(tmp_path)
        cold, = run_jobs([tiny_job], n_jobs=1, cache=cache)
        warm, = run_jobs([tiny_job], n_jobs=1, cache=cache)
        assert not cold.cached and warm.cached
        assert cache.stores == 1 and cache.hits == 1
        assert warm.activity.to_dict() == cold.activity.to_dict()

    def test_sel_pred_twin_is_a_miss(self, tmp_path):
        """Two kernels whose instruction listings agree but whose SELP
        selects on different predicates are different cache entries."""
        def selp_job(select_high):
            kb = KernelBuilder("selp_twin")
            t, addr = kb.regs(2)
            low, high = kb.pred(), kb.pred()
            kb.mov(t, Sreg("gtid"))
            kb.setp("lt", low, t, 8)
            kb.setp("lt", high, t, 24)
            kb.imul(addr, t, 32)  # one coalescing segment per lane
            kb.selp(addr, addr, 0, high if select_high else low)
            kb.stg(t, addr)
            kb.exit()
            launch = KernelLaunch(kernel=kb.build(), grid=Dim3(1),
                                  block=Dim3(32), gmem_words=1024)
            return SimJob(config=gt240(), launch=launch)

        original, twin = selp_job(False), selp_job(True)
        cache = ResultCache(tmp_path)
        first, = run_jobs([original], n_jobs=1, cache=cache)
        got, = run_jobs([twin], n_jobs=1, cache=cache)
        fresh, = run_jobs([twin], n_jobs=1, cache=None)
        assert got.cached is False
        assert got.activity.to_dict() == fresh.activity.to_dict()
        assert got.activity.to_dict() != first.activity.to_dict()

    def test_results_in_job_order(self, launches):
        names = ["scalarProd", "vectorAdd", "bfs2"]
        jobs = [SimJob(config=gt240(), kernel=n, launch=launches[n])
                for n in names]
        results = run_jobs(jobs, n_jobs=2, cache=None)
        assert [r.job.kernel for r in results] == names

    def test_progress_callback(self, tiny_job, tmp_path):
        seen = []
        run_jobs([tiny_job], n_jobs=1, cache=ResultCache(tmp_path),
                 progress=lambda done, total, r: seen.append((done, total,
                                                              r.cached)))
        assert seen == [(1, 1, False)]

    def test_serial_failure_fails_fast(self):
        bad = SimJob(config=gt240(), kernel="noSuchKernel")
        with pytest.raises(RunnerError) as exc:
            run_jobs([bad], n_jobs=1, cache=None)
        assert "noSuchKernel" in str(exc.value)

    def test_pool_aggregates_all_failures(self, tiny_job):
        bad1 = SimJob(config=gt240(), kernel="noSuchKernelA")
        bad2 = SimJob(config=gt240(), kernel="noSuchKernelB")
        with pytest.raises(RunnerError) as exc:
            run_jobs([bad1, tiny_job, bad2], n_jobs=2, cache=None)
        assert len(exc.value.failures) == 2
