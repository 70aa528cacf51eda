"""The fidelity ladder: surrogate backend, auto selection, provenance.

Covers the accuracy-ladder contract end to end: the surrogate's
determinism and calibration round-trip, ``backend="auto"`` resolving
by error budget (including escalation when the surrogate cannot
promise), digest invariance (budgets select, they never key), cache
provenance (per-backend stats, achieved-error backfill) and the
service/CLI surfaces.
"""

from __future__ import annotations

import json

import pytest

from repro.backends import (AUTO_BACKEND, CalibrationStore, escalation_path,
                            get_backend, ladder, resolve_backend)
from repro.backends.base import BackendError
from repro.backends.surrogate import (calibrate_surrogate, clear_table_memo,
                                      config_key)
from repro.cli import main
from repro.core import GPUSimPow
from repro.request import SimRequest
from repro.runner import run_jobs
from repro.runner.cache import (ResultCache, base_request_key,
                                request_key, request_signature)
from repro.runner.job import JobResult, SimJob
from tests.conftest import (AUTO_REQUESTS, build_vecadd_launch,
                            ladder_counts, one_walk)

#: Small kernel set for calibration-from-scratch tests (cheap on GT240).
CALIB_KERNELS = ["vectorAdd", "matrixMul", "bfs1", "scalarProd",
                 "backprop1"]


@pytest.fixture()
def _fresh_memo():
    """Tests that swap calibration stores must not see memoized tables."""
    clear_table_memo()
    yield
    clear_table_memo()


# -- ladder shape -------------------------------------------------------------


class TestLadderShape:
    def test_rungs_ordered_by_tier_then_cost(self):
        rungs = ladder()
        keys = [(b.info.tier, b.info.relative_cost) for b in rungs]
        assert keys == sorted(keys)
        assert [b.name for b in rungs] == ["surrogate", "analytical",
                                           "parallel_cycle", "cycle",
                                           "functional_ref"]

    def test_escalation_path_is_auto_only_cheap_to_exact(self):
        names = [b.name for b in escalation_path()]
        assert names == ["surrogate", "analytical", "cycle"]
        assert names[-1] == "cycle"  # always ends exact

    def test_exact_rungs_promise_zero(self):
        for backend in ladder():
            if backend.info.capabilities.exact:
                assert backend.info.expected_error == 0.0


# -- auto resolution ----------------------------------------------------------


class TestAutoResolution:
    def test_budget_none_and_zero_resolve_to_cycle(self, gtx580_config,
                                                   launches):
        for budget in (None, 0.0):
            req = SimRequest(config=gtx580_config, kernel="BlackScholes",
                             launch=launches["BlackScholes"],
                             backend=AUTO_BACKEND, error_budget=budget)
            name, promised = resolve_backend(req)
            assert name == "cycle" and promised == 0.0

    def test_generous_budget_picks_surrogate(self, gtx580_config, launches):
        req = SimRequest(config=gtx580_config, kernel="BlackScholes",
                         launch=launches["BlackScholes"],
                         backend=AUTO_BACKEND, error_budget=0.10)
        name, promised = resolve_backend(req)
        assert name == "surrogate"
        assert 0.0 < promised <= 0.10

    def test_escalates_past_uncalibrated_surrogate(self, monkeypatch,
                                                   _fresh_memo,
                                                   gtx580_config, launches,
                                                   tmp_path):
        # No user table, no packaged table: the surrogate cannot
        # promise, so auto climbs to the analytical rung.
        import repro.backends.surrogate as surrogate
        monkeypatch.setattr(surrogate, "_PACKAGED_DIR",
                            tmp_path / "no_packaged_tables")
        req = SimRequest(config=gtx580_config, kernel="BlackScholes",
                         launch=launches["BlackScholes"],
                         backend=AUTO_BACKEND, error_budget=0.10)
        name, promised = resolve_backend(req)
        assert name == "analytical"
        assert promised == get_backend("analytical").info.expected_error

    def test_tight_budget_escalates_to_cycle(self, gtx580_config, launches):
        # 1% is below both estimators' promises on this suite.
        req = SimRequest(config=gtx580_config, kernel="BlackScholes",
                         launch=launches["BlackScholes"],
                         backend=AUTO_BACKEND, error_budget=0.01)
        name, promised = resolve_backend(req)
        assert name == "cycle" and promised == 0.0

    def test_explicit_backend_ignores_resolution(self, gtx580_config,
                                                 launches):
        req = SimRequest(config=gtx580_config, kernel="BlackScholes",
                         launch=launches["BlackScholes"],
                         backend="analytical")
        assert resolve_backend(req)[0] == "analytical"

    def test_error_budget_validation(self, gt240_config):
        launch, _, _ = build_vecadd_launch(n=64, block=64, grid=1)
        with pytest.raises(ValueError):
            SimRequest(config=gt240_config, kernel="t", launch=launch,
                       backend=AUTO_BACKEND, error_budget=1.5)
        with pytest.raises(ValueError):
            SimRequest(config=gt240_config, kernel="t", launch=launch,
                       backend=AUTO_BACKEND, error_budget=-0.1)


# -- surrogate backend --------------------------------------------------------


class TestSurrogate:
    def test_deterministic(self, gtx580_config, launches):
        surrogate = get_backend("surrogate")
        launch = launches["BlackScholes"]
        a = surrogate.simulate(gtx580_config, launch)
        b = surrogate.simulate(gtx580_config, launch)
        assert a.cycles == b.cycles
        assert a.activity.to_dict() == b.activity.to_dict()

    def test_zero_execution(self, monkeypatch, gtx580_config, launches):
        # The whole point of tier 0: no simulated instruction anywhere.
        from repro.sim.gpu import GPU

        def boom(self, *args, **kwargs):
            raise AssertionError("surrogate must not run the simulator")

        monkeypatch.setattr(GPU, "run", boom)
        out = get_backend("surrogate").simulate(gtx580_config,
                                                launches["BlackScholes"])
        assert out.cycles > 0
        out.activity.validate()

    def test_activity_geometry_is_exact(self, gtx580_config, launches):
        launch = launches["pathfinder"]
        activity = get_backend("surrogate").simulate(
            gtx580_config, launch).activity
        # Geometry matches the cycle backend: one run's worth (repeat
        # is a measurement-session concept, not per-run activity).
        assert activity.threads_launched == \
            launch.grid.count * launch.block.count
        assert activity.blocks_launched == launch.grid.count

    def test_uncalibrated_config_raises(self, monkeypatch, _fresh_memo,
                                        gt240_config, launches, tmp_path):
        import repro.backends.surrogate as surrogate
        monkeypatch.setattr(surrogate, "_PACKAGED_DIR",
                            tmp_path / "no_packaged_tables")
        with pytest.raises(BackendError, match="calibration"):
            get_backend("surrogate").simulate(gt240_config,
                                              launches["vectorAdd"])


# -- calibration --------------------------------------------------------------


class TestCalibration:
    def test_round_trip_through_store(self, _fresh_memo, gt240_config):
        table = calibrate_surrogate(gt240_config, CALIB_KERNELS, jobs=1)
        assert len(table.entries) == len(CALIB_KERNELS)
        assert table.config_key == config_key(gt240_config)
        store = CalibrationStore()  # $REPRO_CALIB_DIR, per-test tmp
        path = store.save(table)
        assert path.is_file()
        clear_table_memo()
        loaded = store.load(gt240_config)
        assert loaded is not None
        assert loaded.key == table.key
        feats = get_backend("surrogate").features_for(
            gt240_config, build_vecadd_launch(n=64, block=64, grid=1)[0])
        rates_a, cycles_a, dist_a = table.predict(feats)
        rates_b, cycles_b, dist_b = loaded.predict(feats)
        assert (rates_a == rates_b).all()
        assert cycles_a == cycles_b and dist_a == dist_b

    def test_member_kernel_predicts_itself(self, _fresh_memo, gt240_config,
                                           launches):
        table = calibrate_surrogate(gt240_config, CALIB_KERNELS, jobs=1)
        CalibrationStore().save(table)
        cyc = get_backend("cycle").simulate(gt240_config,
                                            launches["matrixMul"])
        est = get_backend("surrogate").simulate(gt240_config,
                                                launches["matrixMul"])
        # Nearest neighbour of a calibration member is itself.
        assert est.cycles == pytest.approx(cyc.cycles, rel=1e-6)

    def test_stale_table_is_a_miss(self, _fresh_memo, gt240_config):
        table = calibrate_surrogate(gt240_config, CALIB_KERNELS[:3], jobs=1)
        store = CalibrationStore()
        path = store.save(table)
        data = json.loads(path.read_text(encoding="utf-8"))
        data["surrogate_version"] = "0.0"
        path.write_text(json.dumps(data), encoding="utf-8")
        clear_table_memo()
        assert store._load_file(path) is None


# -- digests and cache --------------------------------------------------------


class TestDigests:
    def test_auto_budget_zero_keys_like_cycle(self, gt240_config):
        launch, _, _ = build_vecadd_launch(n=64, block=64, grid=1)
        auto = SimJob(config=gt240_config, kernel="tiny_vecadd",
                      launch=launch, backend=AUTO_BACKEND, error_budget=0.0)
        cycle = SimJob(config=gt240_config, kernel="tiny_vecadd",
                       launch=launch, backend="cycle")
        assert request_signature(auto) == request_signature(cycle)

    def test_budget_never_in_digest(self, gtx580_config, launches):
        # Two different budgets that resolve to the same rung must key
        # identically: the budget selects, it is not simulation input.
        a = SimJob(config=gtx580_config, kernel="BlackScholes",
                   launch=launches["BlackScholes"], backend=AUTO_BACKEND,
                   error_budget=0.08)
        b = SimJob(config=gtx580_config, kernel="BlackScholes",
                   launch=launches["BlackScholes"], backend=AUTO_BACKEND,
                   error_budget=0.10)
        assert resolve_backend(a)[0] == resolve_backend(b)[0] == "surrogate"
        assert request_signature(a) == request_signature(b)

    def test_base_key_strips_backend(self, gtx580_config, launches):
        est = SimJob(config=gtx580_config, kernel="BlackScholes",
                     launch=launches["BlackScholes"], backend="surrogate")
        cyc = SimJob(config=gtx580_config, kernel="BlackScholes",
                     launch=launches["BlackScholes"], backend="cycle")
        assert base_request_key(est) == base_request_key(cyc)
        # A plain cycle job IS its own base: backfill can find it.
        assert base_request_key(cyc) == request_key(cyc)


class TestCacheProvenance:
    def test_pre_existing_cycle_entry_hits_auto_zero(self, gt240_config,
                                                     tmp_path):
        launch, _, _ = build_vecadd_launch(n=64, block=64, grid=1)
        cache = ResultCache(tmp_path / "cache")
        cycle_job = SimJob(config=gt240_config, kernel="tiny_vecadd",
                           launch=launch, backend="cycle")
        out = get_backend("cycle").simulate(gt240_config, launch)
        cache.put(JobResult(job=cycle_job, activity=out.activity,
                            cycles=out.cycles))
        auto_job = SimJob(config=gt240_config, kernel="tiny_vecadd",
                          launch=launch, backend=AUTO_BACKEND,
                          error_budget=0.0)
        hit, corrupt = cache.lookup(auto_job)
        assert not corrupt and hit is not None
        assert hit.backend_used == "cycle"
        assert hit.promised_error == 0.0
        assert hit.cycles == out.cycles

    def test_backfill_achieved_error(self, gtx580_config, launches,
                                     tmp_path):
        cache = ResultCache(tmp_path / "cache")
        launch = launches["BlackScholes"]
        est_job = SimJob(config=gtx580_config, kernel="BlackScholes",
                         launch=launch, backend=AUTO_BACKEND,
                         error_budget=0.10)
        est = get_backend("surrogate").simulate(gtx580_config, launch)
        concrete, promised = est_job.resolve()
        cache.put(JobResult(job=est_job, activity=est.activity,
                            cycles=est.cycles,
                            backend_used=concrete.backend,
                            promised_error=promised))
        hit, _ = cache.lookup(est_job)
        assert hit.backend_used == "surrogate"
        assert hit.promised_error is not None
        assert hit.achieved_error is None  # no exact twin yet
        assert list((tmp_path / "cache" / "links").glob("*.link"))

        cyc_job = SimJob(config=gtx580_config, kernel="BlackScholes",
                         launch=launch, backend="cycle")
        out = get_backend("cycle").simulate(gtx580_config, launch)
        cache.put(JobResult(job=cyc_job, activity=out.activity,
                            cycles=out.cycles))

        hit, _ = cache.lookup(est_job)
        assert hit.achieved_error is not None
        assert hit.achieved_error < 0.25
        # Graded entries are unlinked: backfill is one-shot.
        assert not list((tmp_path / "cache" / "links").glob("*.link"))

    def test_stats_count_per_backend(self, gtx580_config, launches,
                                     tmp_path):
        cache = ResultCache(tmp_path / "cache")
        launch = launches["BlackScholes"]
        for backend in ("cycle", "surrogate"):
            out = get_backend(backend).simulate(gtx580_config, launch)
            job = SimJob(config=gtx580_config, kernel="BlackScholes",
                         launch=launch, backend=backend)
            cache.put(JobResult(job=job, activity=out.activity,
                                cycles=out.cycles))
        assert cache.stats()["backends"] == {"cycle": 1, "surrogate": 1}

    def test_run_jobs_records_provenance(self, gtx580_config, launches):
        job = SimJob(config=gtx580_config, kernel="BlackScholes",
                     launch=launches["BlackScholes"],
                     backend=AUTO_BACKEND, error_budget=0.10)
        result = run_jobs([job], n_jobs=1, cache=None)[0]
        assert result.backend_used == "surrogate"
        assert result.promised_error == pytest.approx(
            resolve_backend(job)[1])


# -- one resolution per request -----------------------------------------------


class TestResolveOnce:
    @AUTO_REQUESTS
    def test_run_jobs_walks_once_per_path(self, request_, tmp_path):
        concrete, walk = one_walk(request_)
        # An estimator's store also digests its backend-stripped base
        # key, the simulation an exact run later grades it against.
        base = int(not get_backend(concrete.backend).capabilities.exact)
        cache = ResultCache(tmp_path / "cache")
        with ladder_counts() as counts:
            fresh, = run_jobs([request_], n_jobs=1, cache=cache)
        assert not fresh.cached and fresh.job is request_
        assert counts == {"walks": 1, "promises": walk,
                          "signatures": 1 + base}
        with ladder_counts() as counts:
            hit, = run_jobs([request_], n_jobs=1, cache=cache)
        assert hit.cached and hit.job is request_
        assert (hit.backend, hit.promised_error) == \
            (fresh.backend, fresh.promised_error) == \
            (concrete.backend, resolve_backend(request_)[1])
        assert counts == {"walks": 1, "promises": walk, "signatures": 1}
        with ladder_counts() as counts:
            run_jobs([request_], n_jobs=1, cache=None)
        assert counts == {"walks": 1, "promises": walk, "signatures": 0}

    @AUTO_REQUESTS
    def test_facade_walks_once(self, request_):
        _, walk = one_walk(request_)
        sim = GPUSimPow(request_.config)
        with ladder_counts() as counts:
            sim.run(request_)
        assert counts == {"walks": 1, "promises": walk, "signatures": 0}
        # The benchmark of the same name, run as a chain.
        chain = SimJob(config=request_.config,
                       kernel=request_.kernel.lower(), backend="auto",
                       error_budget=request_.error_budget)
        _, walk = one_walk(chain)
        with ladder_counts() as counts:
            sim.run_benchmark(chain)
        assert counts == {"walks": 1, "promises": walk, "signatures": 0}

    @AUTO_REQUESTS
    def test_concrete_request_executes_without_a_promise(self, request_):
        concrete, _ = request_.resolve()
        with ladder_counts() as counts:
            concrete.execute()
        assert counts == {"walks": 0, "promises": 0, "signatures": 0}


# -- facade -------------------------------------------------------------------


class TestFacade:
    def test_budget_zero_is_bit_identical_to_cycle(self, gt240_config):
        launch, _, _ = build_vecadd_launch(n=64, block=64, grid=1)
        sim = GPUSimPow(gt240_config)
        exact = sim.run(launch)
        auto = sim.run(SimRequest(config=gt240_config, launch=launch,
                                  backend=AUTO_BACKEND, error_budget=0.0))
        assert auto.backend == "cycle"
        assert auto.promised_error == 0.0
        assert auto.performance.cycles == exact.performance.cycles
        assert auto.activity.to_dict() == exact.activity.to_dict()

    def test_result_records_promise(self, gtx580_config, launches):
        result = GPUSimPow(gtx580_config).run(SimRequest(
            config=gtx580_config, launch=launches["BlackScholes"],
            backend=AUTO_BACKEND, error_budget=0.10))
        assert result.backend == "surrogate"
        assert 0.0 < result.promised_error <= 0.10
        payload = result.to_dict()
        assert payload["promised_error"] == result.promised_error


# -- service ------------------------------------------------------------------


class TestService:
    def test_submit_with_budget_reports_tier(self, gtx580_config):
        from tests.test_service import DaemonHarness
        harness = DaemonHarness().start()
        try:
            req = SimRequest(config=gtx580_config, kernel="BlackScholes",
                             backend=AUTO_BACKEND, error_budget=0.10)
            res = harness.client.submit(req, wait=True)["result"]
            assert res["backend"] == "surrogate"
            assert res["tier"] == 0
            assert res["error_budget"] == 0.10
            assert 0.0 < res["promised_error"] <= 0.10
        finally:
            harness.stop()

    def test_submit_rejects_bad_budget(self, gtx580_config):
        from tests.test_service import DaemonHarness
        from repro.service import ServiceError
        harness = DaemonHarness().start()
        try:
            body = SimRequest(config=gtx580_config, kernel="BlackScholes",
                              backend=AUTO_BACKEND,
                              error_budget=0.10).to_dict()
            body["error_budget"] = 3.0
            with pytest.raises(ServiceError):
                harness.client.submit(body, wait=True)
        finally:
            harness.stop()


# -- CLI ----------------------------------------------------------------------


class TestCLI:
    def test_backends_subcommand(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in ("surrogate", "analytical", "parallel_cycle", "cycle",
                     "functional_ref"):
            assert name in out
        assert "exact" in out and "auto" in out

    def test_version_includes_ladder(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "fidelity ladder" in out and "surrogate" in out

    def test_run_auto_with_budget(self, capsys):
        assert main(["run", "BlackScholes", "--gpu", "GTX580",
                     "--backend", "auto", "--error-budget", "0.10",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "auto -> surrogate backend" in out
        assert "promised error" in out

    def test_run_auto_budget_is_zero_execution(self, monkeypatch, capsys):
        from repro.sim.gpu import GPU

        def boom(self, *args, **kwargs):
            raise AssertionError("budgeted run must not simulate")

        monkeypatch.setattr(GPU, "run", boom)
        assert main(["run", "BlackScholes", "--gpu", "GTX580",
                     "--backend", "auto", "--error-budget", "0.10",
                     "--no-cache"]) == 0

    def test_error_budget_requires_auto(self, capsys):
        assert main(["run", "BlackScholes", "--gpu", "GTX580",
                     "--error-budget", "0.10"]) == 2
        err = capsys.readouterr().err
        assert "--backend auto" in err

    def test_cache_stats_lists_backends(self, capsys):
        assert main(["run", "BlackScholes", "--gpu", "GTX580",
                     "--backend", "auto", "--error-budget", "0.10"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "backend surrogate: 1 entry" in out
