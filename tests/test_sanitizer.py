"""Tests for the runtime sanitizer (repro.sim.sanitizer).

Golden findings per rule (S001-S004), the pure-observer contract
(sanitizing changes no result byte and no cache key), and determinism
across execution engines (serial, 1-shard and 4-shard parallel, runner
pool, cached replay).
"""

import numpy as np
import pytest

from repro.backends import BackendError, get_backend
from repro.core.gpusimpow import GPUSimPow
from repro.isa import KernelBuilder, Sreg
from repro.isa.launch import Dim3, KernelLaunch
from repro.request import SimRequest
from repro.runner import ResultCache, SimJob, run_jobs
from repro.runner.cache import request_key, request_signature
from repro.sim import SimulationDeadlock, gt240
from repro.workloads import all_kernel_launches


def _launch(kb, threads, grid=1, gmem_words=256):
    return KernelLaunch(kernel=kb.build(), grid=Dim3(grid, 1, 1),
                        block=Dim3(threads, 1, 1),
                        gmem_words=gmem_words)


def race_ww_launch(grid=1):
    """Every thread stores to shared word 0: write-write race."""
    kb = KernelBuilder("san_ww", smem_words=4)
    z, v, g = kb.regs(3)
    kb.mov(z, 0)
    kb.mov(v, Sreg("tid"))
    kb.sts(v, z)
    kb.mov(g, Sreg("gtid"))
    kb.stg(v, g)
    kb.exit()
    return _launch(kb, 32, grid=grid)


def race_rw_launch():
    """Store s[tid], read s[tid+1 mod 32], no barrier: rw race."""
    kb = KernelBuilder("san_rw", smem_words=32)
    t, u, v, g = kb.regs(4)
    kb.mov(t, Sreg("tid"))
    kb.sts(t, t)
    kb.iadd(u, t, 1)
    kb.and_(u, u, 31)
    kb.lds(v, u)
    kb.mov(g, Sreg("gtid"))
    kb.stg(v, g)
    kb.exit()
    return _launch(kb, 32)


def barrier_fixed_launch():
    """The rw pattern with a barrier between store and load: clean."""
    kb = KernelBuilder("san_fixed", smem_words=32)
    t, u, v, g = kb.regs(4)
    kb.mov(t, Sreg("tid"))
    kb.sts(t, t)
    kb.bar()
    kb.iadd(u, t, 1)
    kb.and_(u, u, 31)
    kb.lds(v, u)
    kb.mov(g, Sreg("gtid"))
    kb.stg(v, g)
    kb.exit()
    return _launch(kb, 32)


def uninit_launch():
    """Loads shared words no store in the kernel ever writes."""
    kb = KernelBuilder("san_uninit", smem_words=16)
    t, v, g = kb.regs(3)
    kb.mov(t, Sreg("tid"))
    kb.lds(v, t)
    kb.mov(g, Sreg("gtid"))
    kb.stg(v, g)
    kb.exit()
    return _launch(kb, 16)


def oob_launch():
    """32 threads store through tid into 8 shared words: 24 lanes OOB."""
    kb = KernelBuilder("san_oob", smem_words=8)
    t = kb.reg()
    kb.mov(t, Sreg("tid"))
    kb.sts(t, t)
    kb.exit()
    return _launch(kb, 32)


def _sanitize(launch, backend="cycle", **kw):
    return get_backend(backend).simulate(gt240(), launch, sanitize=True,
                                         **kw)


def _rules(diagnostics):
    return {d.rule for d in diagnostics}


class TestGoldenFindings:
    def test_write_write_race_s003(self):
        out = _sanitize(race_ww_launch())
        races = [d for d in out.diagnostics if d.rule == "S003"]
        assert races, out.diagnostics
        assert any("write-write" in d.message for d in races)
        assert all(d.severity.name == "ERROR" for d in races)

    def test_read_write_race_s003(self):
        out = _sanitize(race_rw_launch())
        races = [d for d in out.diagnostics if d.rule == "S003"]
        assert races
        assert any("read-write" in d.message for d in races)

    def test_barrier_separation_is_clean(self):
        out = _sanitize(barrier_fixed_launch())
        assert out.diagnostics == []

    def test_uninitialized_read_s001(self):
        out = _sanitize(uninit_launch())
        assert "S001" in _rules(out.diagnostics)
        finding = next(d for d in out.diagnostics if d.rule == "S001")
        assert finding.data["n_words"] == 16

    def test_out_of_bounds_s002_rides_the_abort(self):
        with pytest.raises(IndexError) as excinfo:
            _sanitize(oob_launch())
        diags = excinfo.value.sanitizer_diagnostics
        assert "S002" in _rules(diags)
        oob = next(d for d in diags if d.rule == "S002")
        assert "out of bounds" in oob.message

    def test_deadlock_watchdog_s004(self, monkeypatch):
        from repro.sim.shard import ShardEngine

        def stuck(self, horizon, max_cycles, kernel_name):
            raise SimulationDeadlock("all live warps stuck at a barrier")

        monkeypatch.setattr(ShardEngine, "step_epoch", stuck)
        with pytest.raises(SimulationDeadlock) as excinfo:
            _sanitize(barrier_fixed_launch())
        diags = excinfo.value.sanitizer_diagnostics
        assert "S004" in _rules(diags)

    def test_racy_data_still_executes(self):
        # The sanitizer observes; it never changes what the kernel
        # computed (races in a single warp are deterministic).
        plain = get_backend("cycle").simulate(gt240(), race_ww_launch())
        sanitized = _sanitize(race_ww_launch())
        assert np.array_equal(plain.gmem, sanitized.gmem)

    def test_unsupported_backend_refuses(self):
        job = SimJob(config=gt240(), kernel="san_uninit",
                     launch=uninit_launch(), backend="analytical",
                     sanitize=True)
        with pytest.raises(BackendError):
            job.execute()


class TestPureObserver:
    """sanitize=True changes no result byte on a clean workload."""

    @pytest.fixture(scope="class")
    def pair(self):
        launch = all_kernel_launches()["vectorAdd"]
        plain = get_backend("cycle").simulate(gt240(), launch)
        sanitized = get_backend("cycle").simulate(gt240(), launch,
                                                  sanitize=True)
        return plain, sanitized

    def test_clean_workload_no_findings(self, pair):
        plain, sanitized = pair
        assert plain.diagnostics is None
        assert sanitized.diagnostics == []

    def test_cycles_identical(self, pair):
        plain, sanitized = pair
        assert plain.cycles == sanitized.cycles

    def test_activity_identical(self, pair):
        plain, sanitized = pair
        assert plain.activity.to_dict() == sanitized.activity.to_dict()

    def test_memory_image_identical(self, pair):
        plain, sanitized = pair
        assert np.array_equal(plain.gmem, sanitized.gmem)


class TestEngineDeterminism:
    """Same kernel, same findings: serial, sharded, pooled, replayed."""

    def _dicts(self, diagnostics):
        return [d.to_dict() for d in diagnostics]

    @pytest.mark.parametrize("launch_fn", [race_ww_launch, race_rw_launch,
                                           uninit_launch])
    def test_parallel_cycle_matches_serial(self, launch_fn):
        serial = self._dicts(_sanitize(launch_fn()).diagnostics)
        for shards in (1, 4):
            out = get_backend("parallel_cycle").simulate(
                gt240(), launch_fn(), sanitize=True, n_shards=shards)
            assert self._dicts(out.diagnostics) == serial, shards

    def test_multi_block_races_merge_across_shards(self):
        launch = race_ww_launch(grid=4)
        serial = self._dicts(_sanitize(launch).diagnostics)
        out = get_backend("parallel_cycle").simulate(
            gt240(), race_ww_launch(grid=4), sanitize=True, n_shards=4)
        assert self._dicts(out.diagnostics) == serial

    def test_runner_pool_and_replay(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = gt240()

        def job():
            return SimJob(config=config, kernel="san_rw",
                          launch=race_rw_launch(), sanitize=True)

        first, = run_jobs([job()], n_jobs=2, cache=cache)
        again, = run_jobs([job()], n_jobs=1, cache=cache)
        assert first.diagnostics and again.diagnostics
        assert self._dicts(first.diagnostics) == \
            self._dicts(again.diagnostics)
        # A sanitized job never answers from cache (the cached entry
        # has no diagnostics to give)...
        assert not again.cached
        # ...but it still populates the cache for unsanitized repeats.
        plain, = run_jobs([SimJob(config=config, kernel="san_rw",
                                  launch=race_rw_launch())], cache=cache)
        assert plain.cached
        assert plain.activity.to_dict() == first.activity.to_dict()

    def test_replayed_job_carries_diagnostics(self):
        job, = run_jobs([SimJob(config=gt240(), kernel="san_rw",
                                launch=race_rw_launch(), sanitize=True)],
                        n_jobs=1, cache=None)
        assert job.diagnostics
        result = GPUSimPow(gt240()).run(job)
        assert result.performance.diagnostics is job.diagnostics


class TestCacheKeyInvariance:
    """`sanitize` is an observer flag: excluded from every digest."""

    def _request(self, sanitize):
        return SimRequest(config=gt240(), kernel="vectorAdd",
                          sanitize=sanitize)

    def test_request_signature_unchanged(self):
        assert request_signature(self._request(True)) == \
            request_signature(self._request(False))

    def test_request_key_unchanged(self):
        assert request_key(self._request(True)) == \
            request_key(self._request(False))

    def test_job_key_unchanged(self):
        launch = all_kernel_launches()["vectorAdd"]
        plain = SimJob(config=gt240(), kernel="vectorAdd", launch=launch)
        sanitized = SimJob(config=gt240(), kernel="vectorAdd",
                           launch=launch, sanitize=True)
        assert request_key(plain) == request_key(sanitized)

    def test_wire_roundtrip_preserves_sanitize(self):
        request = self._request(True)
        clone = SimRequest.from_dict(request.to_dict())
        assert clone.sanitize is True
        assert clone.digest() == self._request(False).digest()

    def test_to_dict_omits_default(self):
        assert "sanitize" not in self._request(False).to_dict()
        assert self._request(True).to_dict()["sanitize"] is True

    def test_job_carries_flag_from_request(self):
        assert self._request(True).to_job().sanitize is True
        assert self._request(False).to_job().sanitize is False
