"""Tests for the canonical SimRequest: round-trips, digests, execution.

The core invariant: a request has ONE identity (its digest), shared
verbatim by the facade, the runner job, the cache key, and the
service's HTTP schema -- and ``tests/data/request_keys.json`` pins
those digests byte for byte, so no refactor silently stales a cache
entry.
"""

import json
from pathlib import Path

import pytest

from repro import SIM_VERSION, GPUSimPow, SimRequest
from repro.backends import BackendError
from repro.runner import (JobFailure, JobResult, RunnerError, SimJob,
                          request_key, run_jobs)
from repro.sim import gt240, gtx580
from tests.conftest import build_vecadd_launch

#: Golden digests: one ``request_key`` per entry of ``GOLDEN_REQUESTS``.
GOLDEN_KEYS_PATH = Path(__file__).parent / "data" / "request_keys.json"


def _tiny():
    return build_vecadd_launch(n=64, block=64, grid=1)[0]


def _vec(**kw):
    return SimRequest(config=gt240(), kernel="vectorAdd", **kw)


#: Named requests whose digests are pinned in ``GOLDEN_KEYS_PATH``.
#: Entries under ``policy/`` vary only fields that never enter the
#: digest, so they must equal ``label/vectorAdd@GT240``.
GOLDEN_REQUESTS = {
    "label/vectorAdd@GT240": lambda: _vec(),
    "label/BlackScholes@GTX580": lambda: SimRequest(
        config=gtx580(), kernel="BlackScholes"),
    "launch/tiny@GT240": lambda: SimRequest(config=gt240(),
                                            launch=_tiny()),
    "launch+label/tiny@GTX580": lambda: SimRequest(
        config=gtx580(), kernel="tiny", launch=_tiny()),
    "max_cycles/1e6": lambda: _vec(max_cycles=1e6),
    "traced/vectorAdd/500": lambda: _vec(trace_interval=500.0),
    "traced/launch/64": lambda: SimRequest(config=gt240(), launch=_tiny(),
                                           trace_interval=64.0),
    "backend/cycle": lambda: _vec(backend="cycle"),
    "backend/functional_ref": lambda: _vec(backend="functional_ref"),
    "backend/analytical": lambda: _vec(backend="analytical"),
    "backend/parallel_cycle": lambda: _vec(backend="parallel_cycle"),
    "backend/surrogate": lambda: _vec(backend="surrogate"),
    "auto/None": lambda: _vec(backend="auto"),
    "auto/0": lambda: _vec(backend="auto", error_budget=0.0),
    "auto/0.05": lambda: _vec(backend="auto", error_budget=0.05),
    "auto/0.5": lambda: _vec(backend="auto", error_budget=0.5),
    "auto/0.5/traced": lambda: _vec(backend="auto", error_budget=0.5,
                                    trace_interval=500.0),
    "parallel_cycle/epoch500/shards2": lambda: _vec(
        backend="parallel_cycle",
        backend_options={"epoch_cycles": 500.0, "n_shards": 2}),
    "parallel_cycle/epochNone/shards4": lambda: _vec(
        backend="parallel_cycle",
        backend_options={"epoch_cycles": None, "n_shards": 4}),
    "policy/sanitize": lambda: _vec(sanitize=True),
    "policy/timeout_s": lambda: _vec(timeout_s=30.0),
    "policy/tag": lambda: _vec(tag="probe"),
    "policy/tags": lambda: _vec(tags={"tenant": "ci"}),
}


def regen_golden_keys() -> None:
    """Rewrite ``GOLDEN_KEYS_PATH`` (only on a deliberate key change,
    e.g. a ``SIM_VERSION`` bump): ``python -m tests.test_request``."""
    keys = {name: request_key(build())
            for name, build in sorted(GOLDEN_REQUESTS.items())}
    GOLDEN_KEYS_PATH.write_text(
        json.dumps({"sim_version": SIM_VERSION, "keys": keys}, indent=1,
                   sort_keys=True) + "\n", encoding="utf-8")


@pytest.fixture()
def tiny_launch():
    launch, _, _ = build_vecadd_launch(n=64, block=64, grid=1)
    return launch


class TestConstruction:
    def test_needs_kernel_or_launch(self):
        with pytest.raises(ValueError):
            SimRequest(config=gt240())

    def test_rejects_bad_trace_interval(self, tiny_launch):
        with pytest.raises(ValueError):
            SimRequest(config=gt240(), launch=tiny_launch,
                       trace_interval=0.0)

    def test_rejects_bad_timeout(self, tiny_launch):
        with pytest.raises(ValueError):
            SimRequest(config=gt240(), launch=tiny_launch,
                       timeout_s=-1.0)

    def test_label(self, tiny_launch):
        req = SimRequest(config=gt240(), kernel="vectorAdd")
        assert req.label == "vectorAdd@GT240"
        assert SimRequest(config=gt240(), launch=tiny_launch,
                          tag="probe").label == "probe"

    def test_resolve_launch_by_label(self):
        req = SimRequest(config=gt240(), kernel="vectorAdd")
        launch = req.resolve_launch()
        assert launch.kernel.name == "vectorAdd"

    def test_resolve_launch_unknown_label(self):
        req = SimRequest(config=gt240(), kernel="nope")
        with pytest.raises(KeyError):
            req.resolve_launch()

    def test_explicit_launch_wins(self, tiny_launch):
        req = SimRequest(config=gt240(), kernel="vectorAdd",
                         launch=tiny_launch)
        assert req.resolve_launch() is tiny_launch


class TestSerialization:
    def test_minimal_round_trip(self):
        req = SimRequest(config=gt240(), kernel="vectorAdd")
        data = req.to_dict()
        assert set(data) == {"config", "kernel"}
        back = SimRequest.from_dict(data)
        assert back.kernel == "vectorAdd"
        assert back.digest() == req.digest()

    def test_full_round_trip(self, tiny_launch):
        req = SimRequest(config=gtx580(), launch=tiny_launch,
                         max_cycles=1e6, trace_interval=128.0,
                         backend="parallel_cycle",
                         backend_options={"n_shards": 2},
                         timeout_s=30.0, tag="probe",
                         tags={"tenant": "ci"})
        back = SimRequest.from_dict(req.to_dict())
        assert back.trace_interval == 128.0
        assert back.backend == "parallel_cycle"
        assert back.backend_options == {"n_shards": 2}
        assert back.timeout_s == 30.0
        assert back.tag == "probe"
        assert back.tags == {"tenant": "ci"}
        assert back.digest() == req.digest()

    def test_launch_round_trip_is_exact(self, tiny_launch):
        req = SimRequest(config=gt240(), launch=tiny_launch)
        back = SimRequest.from_dict(req.to_dict())
        assert back.resolve_launch().kernel.name == \
            tiny_launch.kernel.name
        assert back.digest() == req.digest()

    def test_unknown_field_rejected(self):
        data = SimRequest(config=gt240(), kernel="vectorAdd").to_dict()
        data["workers"] = 4
        with pytest.raises(ValueError, match="workers"):
            SimRequest.from_dict(data)

    def test_missing_config_rejected(self):
        with pytest.raises(ValueError, match="config"):
            SimRequest.from_dict({"kernel": "vectorAdd"})


class TestDigest:
    def test_matches_job_key(self, tiny_launch):
        """THE compatibility invariant: request digests are the
        pre-existing job_key, so the refactor invalidated no cache."""
        req = SimRequest(config=gt240(), launch=tiny_launch,
                         kernel="tiny")
        job = SimJob(config=gt240(), launch=tiny_launch, kernel="tiny")
        assert req.digest() == request_key(job)
        assert request_key(req) == request_key(job)

    def test_policy_fields_excluded(self, tiny_launch):
        base = SimRequest(config=gt240(), launch=tiny_launch)
        assert SimRequest(config=gt240(), launch=tiny_launch,
                          timeout_s=5.0).digest() == base.digest()
        assert SimRequest(config=gt240(), launch=tiny_launch,
                          tag="x", tags={"a": "b"}).digest() \
            == base.digest()

    def test_result_shaping_fields_included(self, tiny_launch):
        base = SimRequest(config=gt240(), launch=tiny_launch)
        assert SimRequest(config=gt240(), launch=tiny_launch,
                          trace_interval=64.0).digest() != base.digest()
        assert SimRequest(config=gt240(), launch=tiny_launch,
                          backend="analytical").digest() != base.digest()
        assert SimRequest(config=gtx580(),
                          launch=tiny_launch).digest() != base.digest()

    def test_stable_across_processes_shape(self):
        """Label-only requests digest identically however built."""
        a = SimRequest(config=gt240(), kernel="vectorAdd").digest()
        b = SimRequest.from_dict(
            {"config": gt240().to_dict(),
             "kernel": "vectorAdd"}).digest()
        assert a == b


class TestGoldenKeys:
    """Every ``request_key`` is pinned byte for byte: a refactor of the
    request or job types must not move a single cached artifact."""

    @pytest.fixture(scope="class")
    def golden(self):
        data = json.loads(GOLDEN_KEYS_PATH.read_text(encoding="utf-8"))
        assert data["sim_version"] == SIM_VERSION, \
            "SIM_VERSION changed: regenerate with regen_golden_keys()"
        return data["keys"]

    def test_covers_every_request(self, golden):
        assert set(golden) == set(GOLDEN_REQUESTS)

    @pytest.mark.parametrize("name", sorted(GOLDEN_REQUESTS))
    def test_key_matches_golden(self, golden, name):
        request = GOLDEN_REQUESTS[name]()
        assert request_key(request) == golden[name]
        assert request.digest() == golden[name]

    @pytest.mark.parametrize("name", sorted(
        n for n in GOLDEN_REQUESTS if n.startswith("policy/")))
    def test_policy_fields_leave_key_alone(self, golden, name):
        assert golden[name] == golden["label/vectorAdd@GT240"]


class TestJobConversion:
    def test_job_executes(self, tiny_launch):
        req = SimRequest(config=gt240(), launch=tiny_launch,
                         kernel="tiny")
        out, = run_jobs([req.to_job()], n_jobs=None, cache=None)
        assert out.activity.issued_instructions > 0


class TestFacadeRequestEntry:
    def test_run_request_matches_keywords(self, tiny_launch):
        sim = GPUSimPow(gt240())
        via_kw = sim.run(tiny_launch)
        via_req = sim.run(request=SimRequest(config=gt240(),
                                             launch=tiny_launch))
        assert via_req.chip_total_w == via_kw.chip_total_w
        assert via_req.performance.cycles == via_kw.performance.cycles

    def test_run_rejects_foreign_config(self, tiny_launch):
        sim = GPUSimPow(gt240())
        req = SimRequest(config=gtx580(), launch=tiny_launch)
        with pytest.raises(ValueError):
            sim.run(request=req)

    def test_run_honors_sanitize(self):
        """The facade attaches the runtime sanitizer, like the runner."""
        sim = GPUSimPow(gt240())
        result = sim.run(request=SimRequest(config=gt240(),
                                            kernel="vectorAdd",
                                            sanitize=True))
        assert result.performance.diagnostics == []
        job, = run_jobs([SimJob(config=gt240(), kernel="vectorAdd",
                                sanitize=True)], n_jobs=1, cache=None)
        assert job.diagnostics == []

    def test_run_rejects_sanitize_without_support(self):
        sim = GPUSimPow(gt240())
        with pytest.raises(BackendError, match="sanitizer"):
            sim.run(request=SimRequest(config=gt240(), kernel="vectorAdd",
                                       backend="analytical",
                                       sanitize=True))

    def test_replay_does_not_resolve_backend(self, tiny_launch,
                                             monkeypatch):
        """A replay trusts the request's concrete backend: no ladder
        walk per cache hit."""
        import repro.backends
        sim = GPUSimPow(gt240())
        req = SimRequest(config=gt240(), launch=tiny_launch)
        fresh = sim.run(req)

        def no_resolution(request):
            raise AssertionError("replay resolved the backend")

        monkeypatch.setattr(repro.backends, "resolve_backend",
                            no_resolution)
        replay = sim.run(JobResult(job=req, activity=fresh.activity,
                                   cycles=fresh.performance.cycles))
        assert replay.backend == "cycle"
        assert replay.chip_total_w == fresh.chip_total_w

    def test_run_benchmark_request(self):
        sim = GPUSimPow(gt240())
        req = SimRequest(config=gt240(), kernel="vectoradd")
        via_req = sim.run_benchmark(request=req)
        via_kw = sim.run_benchmark("vectoradd")
        assert via_req.benchmark == "vectoradd"
        assert via_req.total_energy_j == via_kw.total_energy_j

    def test_run_benchmark_honors_sanitize(self):
        """Every kernel of a sanitized chain reports its findings, and
        the sanitizer changes no result."""
        sim = GPUSimPow(gt240())
        plain = sim.run_benchmark("backprop")
        sanitized = sim.run_benchmark(SimRequest(
            config=gt240(), kernel="backprop", sanitize=True))
        assert [k.performance.diagnostics for k in sanitized.kernels] \
            == [[], []]
        assert sanitized.total_energy_j == plain.total_energy_j

    def test_run_benchmark_rejects_sanitize_without_support(self):
        sim = GPUSimPow(gt240())
        with pytest.raises(BackendError, match="sanitizer"):
            sim.run_benchmark(SimRequest(config=gt240(),
                                         kernel="backprop",
                                         backend="analytical",
                                         sanitize=True))

    @pytest.mark.parametrize("method", ["execute", "execute_chain"])
    def test_tracing_rejected_before_simulating(self, monkeypatch,
                                                method):
        """The shared prologue refuses a traced request on a backend
        that cannot trace before any kernel runs."""
        from repro.backends import ANALYTICAL

        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated an unsupported request")

        monkeypatch.setattr(ANALYTICAL, "simulate", no_simulation)
        kernel = "backprop" if method == "execute_chain" else "vectorAdd"
        req = SimRequest(config=gt240(), kernel=kernel,
                         backend="analytical", trace_interval=500.0)
        with pytest.raises(BackendError, match="activity tracing"):
            getattr(req, method)()


class TestFailureSerialization:
    def _failure(self):
        return JobFailure(label="k@GT240", kind="timeout",
                          message="worker died", attempts=2,
                          attempt_durations=[0.5, 0.6])

    def test_job_failure_to_dict(self):
        data = self._failure().to_dict()
        assert data["label"] == "k@GT240"
        assert data["kind"] == "timeout"
        assert data["transient"] is True
        assert data["summary"] == "worker died"
        assert data["attempts"] == 2
        assert data["attempt_durations"] == [0.5, 0.6]

    def test_runner_error_to_dict(self):
        err = RunnerError([self._failure()])
        data = err.to_dict()
        assert data["error"] == "RunnerError"
        assert len(data["failures"]) == 1
        assert data["failures"][0]["kind"] == "timeout"
        assert "1 simulation job(s) failed" in data["message"]


class TestErrorBudgetEdgeCases:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf"), -0.01, 1.01])
    def test_simrequest_rejects_non_finite_and_out_of_range(self, bad):
        with pytest.raises(ValueError, match="finite fraction"):
            SimRequest(config=gt240(), kernel="vectorAdd",
                       backend="auto", error_budget=bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf"), -0.01, 1.01])
    def test_simjob_rejects_non_finite_and_out_of_range(self, bad):
        with pytest.raises(ValueError, match="finite fraction"):
            SimJob(config=gt240(), kernel="vectorAdd",
                   backend="auto", error_budget=bad)

    @pytest.mark.parametrize("ok", [0.0, 0.5, 1.0])
    def test_boundary_budgets_accepted(self, ok):
        request = SimRequest(config=gt240(), kernel="vectorAdd",
                             backend="auto", error_budget=ok)
        assert request.error_budget == ok

    def test_from_dict_rejects_nan_budget_cleanly(self):
        base = SimRequest(config=gt240(), kernel="vectorAdd",
                          backend="auto", error_budget=0.1).to_dict()
        base["error_budget"] = float("nan")
        with pytest.raises(ValueError, match="finite fraction"):
            SimRequest.from_dict(base)


if __name__ == "__main__":
    regen_golden_keys()
