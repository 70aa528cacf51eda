"""Tests for the pluggable simulation backends (repro.backends).

Covers the registry, the exactness contract of the ``cycle`` and
``functional_ref`` backends, the sanity envelope of the ``analytical``
estimator, backend identity in the runner cache keys, and serialization
round trips that preserve which backend produced a result.
"""

import json

import pytest

from repro.backends import (AnalyticalBackend, BackendError, CycleBackend,
                            all_backends, compare_backends, get_backend,
                            list_backends, register_backend)
from repro.core.gpusimpow import GPUSimPow, SimulationResult
from repro.request import SimRequest
from repro.runner import JobResult, ResultCache, SimJob, run_jobs
from repro.runner.cache import request_key
from repro.sim import simulate
from repro.telemetry import ActivityTracer
from tests.conftest import build_vecadd_launch


class TestRegistry:
    def test_builtins_registered(self):
        assert {"cycle", "functional_ref", "analytical"} <= \
            set(list_backends())

    def test_get_unknown_raises_with_choices(self):
        with pytest.raises(KeyError, match="registered.*cycle"):
            get_backend("quantum")

    def test_register_requires_name(self):
        class Nameless(CycleBackend):
            name = "?"
        with pytest.raises(ValueError, match="non-empty name"):
            register_backend(Nameless())

    def test_reregistration_replaces(self):
        original = get_backend("cycle")
        try:
            replacement = register_backend(CycleBackend())
            assert get_backend("cycle") is replacement
        finally:
            register_backend(original)

    def test_all_backends_is_a_copy(self):
        snapshot = all_backends()
        snapshot["bogus"] = snapshot["cycle"]
        assert "bogus" not in list_backends()


class TestCycleBackend:
    def test_bit_identical_untraced(self, gt240_config):
        launch, _, _ = build_vecadd_launch()
        direct = simulate(gt240_config, launch)
        via = get_backend("cycle").simulate(gt240_config, launch)
        assert via.cycles == direct.cycles
        assert via.activity.to_dict() == direct.activity.to_dict()

    def test_bit_identical_traced(self, gt240_config):
        launch, _, _ = build_vecadd_launch()
        direct = simulate(gt240_config, launch,
                          tracer=ActivityTracer(200.0))
        via = get_backend("cycle").simulate(gt240_config, launch,
                                            tracer=ActivityTracer(200.0))
        assert via.activity.to_dict() == direct.activity.to_dict()
        assert len(via.windows) == len(direct.windows)
        for wa, wb in zip(via.windows, direct.windows):
            assert wa.activity.to_dict() == wb.activity.to_dict()


class TestFunctionalRefBackend:
    def test_matches_cycle_backend_exactly(self, gt240_config):
        launch, _, _ = build_vecadd_launch()
        cyc = get_backend("cycle").simulate(gt240_config, launch)
        ref = get_backend("functional_ref").simulate(gt240_config, launch)
        assert ref.cycles == cyc.cycles
        assert ref.activity.to_dict() == cyc.activity.to_dict()

    def test_compare_backends_reports_exact(self, gt240_config):
        report = compare_backends(gt240_config, ["vectorAdd"],
                                  backend_a="cycle",
                                  backend_b="functional_ref",
                                  jobs=1, cache=None)
        assert report.exact_match
        assert report.mean_abs_power_error == 0.0


class TestAnalyticalBackend:
    def test_produces_plausible_result(self, gt240_config, launches):
        out = get_backend("analytical").simulate(gt240_config,
                                                 launches["vectorAdd"])
        assert out.cycles > 0
        act = out.activity
        assert act.issued_instructions > 0
        power = GPUSimPow(gt240_config).chip.evaluate(act)
        assert 0 < power.chip_total_w < 400

    def test_rejects_tracer(self, gt240_config, launches):
        with pytest.raises(BackendError, match="tracing"):
            get_backend("analytical").simulate(
                gt240_config, launches["vectorAdd"],
                tracer=ActivityTracer(100.0))

    def test_capabilities(self):
        caps = get_backend("analytical").capabilities
        assert not caps.exact
        assert not caps.supports_tracing

    def test_respects_max_cycles(self, gt240_config, launches):
        with pytest.raises(BackendError, match="max_cycles"):
            get_backend("analytical").simulate(
                gt240_config, launches["matrixMul"], max_cycles=1.0)

    def test_within_model_error_of_cycle(self, gt240_config, launches):
        """The estimator must land in the same power regime (not exact)."""
        chip = GPUSimPow(gt240_config).chip
        cyc = simulate(gt240_config, launches["pathfinder"])
        ana = get_backend("analytical").simulate(gt240_config,
                                                 launches["pathfinder"])
        w_cyc = chip.evaluate(cyc.activity).chip_total_w
        w_ana = chip.evaluate(ana.activity).chip_total_w
        assert w_ana == pytest.approx(w_cyc, rel=0.35)


class TestCacheKeys:
    def _job(self, config, backend="cycle"):
        launch, _, _ = build_vecadd_launch()
        return SimJob(config=config, kernel="tiny_vecadd", launch=launch,
                      backend=backend)

    def test_default_backend_key_unchanged(self, gt240_config):
        """`backend="cycle"` must not perturb pre-backend-era keys."""
        explicit = self._job(gt240_config, backend="cycle")
        implicit = self._job(gt240_config)
        assert request_key(explicit) == request_key(implicit)

    def test_backends_key_separately(self, gt240_config):
        assert request_key(self._job(gt240_config, "analytical")) != \
            request_key(self._job(gt240_config, "cycle"))
        assert request_key(self._job(gt240_config, "functional_ref")) != \
            request_key(self._job(gt240_config, "cycle"))

    def test_backend_version_enters_key(self, gt240_config):
        job = self._job(gt240_config, "analytical")
        original = get_backend("analytical")
        before = request_key(job)
        try:
            bumped = AnalyticalBackend()
            bumped.version = original.version + ".test"
            register_backend(bumped)
            assert request_key(job) != before
        finally:
            register_backend(original)

    def test_entry_records_backend_and_rejects_mismatch(self, tmp_path,
                                                        gt240_config):
        cache = ResultCache(tmp_path / "cache")
        cyc_job = self._job(gt240_config, "cycle")
        out = cyc_job.execute()
        key = cache.put(JobResult(job=cyc_job, activity=out.activity,
                                  cycles=out.cycles))
        assert cache.get(cyc_job, key=key) is not None
        # Same entry offered to an analytical job: backend mismatch.
        ana_job = self._job(gt240_config, "analytical")
        assert cache.get(ana_job, key=key) is None

    def test_legacy_entry_without_backend_field_hits(self, tmp_path,
                                                     gt240_config):
        cache = ResultCache(tmp_path / "cache")
        job = self._job(gt240_config, "cycle")
        out = job.execute()
        key = cache.put(JobResult(job=job, activity=out.activity,
                                  cycles=out.cycles))
        path = cache.path_for(key)
        entry = json.loads(path.read_text())
        del entry["backend"]  # pre-backend-era entry
        path.write_text(json.dumps(entry))
        hit = cache.get(job, key=key)
        assert hit is not None and hit.cached

    def test_cache_hit_survives_reregistration(self, tmp_path,
                                               gt240_config):
        """Keys embed name+version, not instance identity."""
        cache = ResultCache(tmp_path / "cache")
        launch, _, _ = build_vecadd_launch()
        job = SimJob(config=gt240_config, kernel="tiny_vecadd",
                     launch=launch, backend="analytical")
        first, = run_jobs([job], n_jobs=1, cache=cache)
        assert not first.cached
        original = get_backend("analytical")
        try:
            register_backend(AnalyticalBackend())
            second, = run_jobs([job], n_jobs=1, cache=cache)
        finally:
            register_backend(original)
        assert second.cached
        assert second.backend == "analytical"
        assert second.activity.to_dict() == first.activity.to_dict()
        assert second.cycles == first.cycles


class TestJobBackend:
    def test_job_result_reports_backend(self, gt240_config):
        launch, _, _ = build_vecadd_launch()
        job = SimJob(config=gt240_config, launch=launch,
                     backend="analytical")
        result, = run_jobs([job], n_jobs=1, cache=None)
        assert result.backend == "analytical"

    def test_unknown_backend_fails_fast(self, gt240_config):
        launch, _, _ = build_vecadd_launch()
        job = SimJob(config=gt240_config, launch=launch, backend="nope")
        with pytest.raises(Exception, match="unknown simulation backend"):
            job.execute()

    def test_empty_backend_rejected(self, gt240_config):
        launch, _, _ = build_vecadd_launch()
        with pytest.raises(ValueError, match="backend"):
            SimJob(config=gt240_config, launch=launch, backend="")


class TestSerializationRoundTrip:
    def test_simulation_result_keeps_backend(self, gt240_config, launches):
        sim = GPUSimPow(gt240_config)
        result = sim.run(SimRequest(config=gt240_config,
                                    launch=launches["vectorAdd"],
                                    backend="analytical"))
        assert result.backend == "analytical"
        restored = SimulationResult.from_dict(result.to_dict())
        assert restored.backend == "analytical"
        assert restored.activity.to_dict() == result.activity.to_dict()
        assert restored.power.chip_total_w == result.power.chip_total_w

    def test_from_dict_defaults_to_cycle(self, gt240_config, launches):
        sim = GPUSimPow(gt240_config)
        result = sim.run(launches["vectorAdd"])
        data = result.to_dict()
        del data["backend"]  # pre-backend-era serialization
        assert SimulationResult.from_dict(data).backend == "cycle"

    def test_facade_replay_records_backend(self, gt240_config, launches):
        sim = GPUSimPow(gt240_config)
        request = SimRequest(config=gt240_config,
                             launch=launches["vectorAdd"],
                             backend="analytical")
        fresh = sim.run(request)
        replay = sim.run(JobResult(job=request, activity=fresh.activity,
                                   cycles=fresh.performance.cycles))
        assert replay.backend == "analytical"
        assert replay.power.chip_total_w == fresh.power.chip_total_w

    def test_facade_rejects_unknown_backend(self, gt240_config, launches):
        sim = GPUSimPow(gt240_config)
        with pytest.raises(KeyError, match="unknown simulation backend"):
            sim.run(SimRequest(config=gt240_config,
                               launch=launches["vectorAdd"],
                               backend="nope"))


class TestValidationHarness:
    def test_analytical_comparison_report(self, gt240_config):
        report = compare_backends(gt240_config, ["vectorAdd", "bfs2"],
                                  backend_a="cycle",
                                  backend_b="analytical",
                                  jobs=1, cache=None)
        assert not report.exact_match
        assert report.mean_abs_power_error < 0.35
        data = report.to_dict()
        assert data["backend_a"] == "cycle"
        assert data["backend_b"] == "analytical"
        assert len(data["kernels"]) == 2
        for row in data["kernels"]:
            assert set(row) >= {"kernel", "cycles", "chip_total_w",
                                "power_rel_error", "exact_match"}
