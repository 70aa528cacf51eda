"""Determinism regressions for the runner and the vectorized hot path.

Three invariants the runner's correctness rests on:

* serial, pooled and cached execution of the same jobs produce
  field-by-field identical activity reports (pickle and repr-JSON both
  round-trip float64 exactly);
* fault-retried execution (a killed worker, a timed-out attempt) lands
  on exactly the same numbers -- a retry is a clean re-run, never a
  perturbation;
* the numpy-vectorised functional execution computes exactly what a
  per-lane scalar interpreter computes -- same counters, same final
  memory image.
"""

import threading
from dataclasses import fields

import numpy as np
import pytest

from repro.backends import get_backend
from repro.runner import ResultCache, SimJob, run_jobs, set_fault_plan
from repro.sim import GPU, functional_ref, gt240
from repro.sim.activity import ActivityReport
from repro.sim.functional_ref import REFERENCE

#: Small-but-diverse suite: trivial FP, reduction loop, divergent graph.
SUITE = ["vectorAdd", "scalarProd", "bfs2"]


class TestExecutionPathEquivalence:
    @pytest.fixture(scope="class")
    def three_ways(self, launches, tmp_path_factory):
        jobs = [SimJob(config=gt240(), kernel=n, launch=launches[n])
                for n in SUITE]
        cache = ResultCache(tmp_path_factory.mktemp("det_cache"))
        serial = run_jobs(jobs, n_jobs=1, cache=None)
        pooled = run_jobs(jobs, n_jobs=3, cache=cache)
        cached = run_jobs(jobs, n_jobs=1, cache=cache)
        assert all(r.cached for r in cached)
        assert not any(r.cached for r in serial + pooled)
        return serial, pooled, cached

    def test_identical_field_by_field(self, three_ways):
        serial, pooled, cached = three_ways
        for s, p, c in zip(serial, pooled, cached):
            for f in fields(ActivityReport):
                sv = getattr(s.activity, f.name)
                assert getattr(p.activity, f.name) == sv, \
                    f"pool diverges on {f.name} for {s.label}"
                assert getattr(c.activity, f.name) == sv, \
                    f"cache diverges on {f.name} for {s.label}"
            assert s.cycles == p.cycles == c.cycles

    def test_counter_types_survive_transport(self, three_ways):
        serial, pooled, cached = three_ways
        for results in (pooled, cached):
            for s, r in zip(serial, results):
                for f in fields(ActivityReport):
                    assert type(getattr(r.activity, f.name)) is \
                        type(getattr(s.activity, f.name))

    def test_traced_execution_is_bit_identical(self, three_ways, launches):
        """Telemetry only reads counters: a traced run's aggregate must
        equal the untraced run's, field by field."""
        serial, _, _ = three_ways
        traced = run_jobs(
            [SimJob(config=gt240(), kernel=n, launch=launches[n],
                    trace_interval=500.0) for n in SUITE],
            n_jobs=1, cache=None)
        for s, t in zip(serial, traced):
            assert t.windows, t.label
            for f in fields(ActivityReport):
                assert getattr(t.activity, f.name) == \
                    getattr(s.activity, f.name), \
                    f"tracing perturbs {f.name} for {s.label}"
            assert t.cycles == s.cycles


class TestRetryPathEquivalence:
    """A fault-retried execution is a fourth path that must match the
    other three bit for bit."""

    @pytest.fixture(autouse=True)
    def clear_plan(self):
        yield
        set_fault_plan(None)

    @pytest.fixture(scope="class")
    def serial(self, launches):
        jobs = [SimJob(config=gt240(), kernel=n, launch=launches[n])
                for n in SUITE]
        return run_jobs(jobs, n_jobs=1, cache=None)

    def test_killed_and_retried_matches_serial(self, serial, launches):
        jobs = [SimJob(config=gt240(), kernel=n, launch=launches[n])
                for n in SUITE]
        # Kill the first pooled attempt of every job; the sweep must
        # recover and land on the exact same counters.
        set_fault_plan({job.label: ["kill"] for job in jobs})
        retried = run_jobs(jobs, n_jobs=3, cache=None, backoff_s=0.0)
        for s, r in zip(serial, retried):
            assert r.attempts == 2, r.label
            for f in fields(ActivityReport):
                assert getattr(r.activity, f.name) == \
                    getattr(s.activity, f.name), \
                    f"retry diverges on {f.name} for {s.label}"
                assert type(getattr(r.activity, f.name)) is \
                    type(getattr(s.activity, f.name))
            assert r.cycles == s.cycles

    def test_timed_out_and_retried_matches_serial(self, serial, launches):
        name = SUITE[0]
        job = SimJob(config=gt240(), kernel=name, launch=launches[name])
        set_fault_plan({job.label: ["delay:30"]})
        retried, = run_jobs([job, SimJob(config=gt240(), kernel=SUITE[1],
                                         launch=launches[SUITE[1]])],
                            n_jobs=2, cache=None, timeout_s=3.0,
                            backoff_s=0.0)[:1]
        assert retried.attempts == 2
        assert retried.activity.to_dict() == serial[0].activity.to_dict()
        assert retried.cycles == serial[0].cycles


class TestVectorizedVsScalarReference:
    @pytest.mark.parametrize("kernel", ["vectorAdd", "scalarProd", "bfs2"])
    def test_bit_identical_to_scalar_interpreter(self, kernel, launches):
        launch = launches[kernel]
        fast = GPU(gt240()).run(launch)
        slow = GPU(gt240(), functional=REFERENCE).run(launch)
        assert slow.activity.to_dict() == fast.activity.to_dict()
        assert slow.cycles == fast.cycles
        np.testing.assert_array_equal(slow.gmem, fast.gmem)

    def test_sfu_kernel_matches_scalar_reference(self, launches):
        """BlackScholes exercises every SFU op (EXP2/LOG2/SQRT/RCP)."""
        launch = launches["BlackScholes"]
        fast = GPU(gt240()).run(launch)
        slow = GPU(gt240(), functional=REFERENCE).run(launch)
        assert slow.activity.to_dict() == fast.activity.to_dict()
        np.testing.assert_array_equal(slow.gmem, fast.gmem)

    def test_overlapping_reference_runs_leave_cycle_vectorised(
            self, launches, monkeypatch):
        """The functional layer is bound per GPU, so ``functional_ref``
        runs on threads can neither leak the scalar interpreter into a
        concurrent ``cycle`` run nor leave it installed afterwards."""
        callers = set()
        read_lane = functional_ref._read_lane

        def spy(*args):
            callers.add(threading.current_thread().name)
            return read_lane(*args)

        # Only the scalar interpreter reads operands lane by lane.
        monkeypatch.setattr(functional_ref, "_read_lane", spy)
        start = threading.Barrier(3, timeout=60)
        outputs = {}

        def run(backend, kernel):
            start.wait()
            outputs[threading.current_thread().name] = get_backend(
                backend).simulate(gt240(), launches[kernel])

        threads = [threading.Thread(target=run, args=args, name=name)
                   for name, args in (("ref-a", ("functional_ref",
                                                 "vectorAdd")),
                                      ("ref-b", ("functional_ref", "bfs2")),
                                      ("cycle", ("cycle", "vectorAdd")))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
            assert not t.is_alive(), t.name
        assert sorted(outputs) == ["cycle", "ref-a", "ref-b"]
        assert callers == {"ref-a", "ref-b"}
        callers.clear()
        after = get_backend("cycle").simulate(gt240(), launches["bfs2"])
        assert not callers, "scalar interpreter left installed"
        assert outputs["cycle"].activity.to_dict() == \
            outputs["ref-a"].activity.to_dict()
        assert after.activity.to_dict() == outputs["ref-b"].activity.to_dict()
