"""Tests for the sharded ``parallel_cycle`` backend.

The epoch-synchronization contract has three load-bearing properties:

* **functional exactness** -- the merged memory image is bit-identical
  to the serial ``cycle`` backend for *every* epoch length (blocks run
  exactly once, at full fidelity, wherever they land);
* **timing convergence** -- cycle error against serial is monotonically
  non-increasing as the epoch shrinks on a contended workload (tighter
  barriers, less unseen cross-shard state);
* **degeneration** -- a single shard IS the serial engine, bit for bit,
  and in-process vs forked-worker shards give identical results.

Plus the integration seams: runner cache keys, job/facade wiring, and
the telemetry invariant that a traced sharded run's windows reconstruct
its aggregate exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import ShardWorkerError, get_backend
from repro.request import SimRequest
from repro.runner import SimJob, run_jobs
from repro.runner.cache import request_key
from repro.sim import GPU, gtx580
from repro.telemetry import ActivityTracer, sum_windows
from repro.workloads import build_benchmark

EPOCHS = [50.0, 250.0, 1000.0, None]


@pytest.fixture(scope="module")
def config():
    return gtx580()


@pytest.fixture(scope="module")
def backend():
    return get_backend("parallel_cycle")


def _serial(config, name):
    return GPU(config).run(build_benchmark(name)[0])


@pytest.fixture(scope="module")
def serial_hotspot(config):
    return _serial(config, "hotspot")


class TestFunctionalExactness:
    @pytest.mark.parametrize("epoch", EPOCHS,
                             ids=lambda e: "inf" if e is None else f"{e:g}")
    def test_gmem_bit_identical_for_every_epoch(self, config, backend,
                                                serial_hotspot, epoch):
        out = backend.simulate(config, build_benchmark("hotspot")[0],
                               epoch_cycles=epoch, n_shards=4,
                               processes=False)
        assert np.array_equal(out.gmem, serial_hotspot.gmem)

    def test_gmem_matches_on_low_contention_kernel(self, config, backend):
        ref = _serial(config, "pathfinder")
        out = backend.simulate(config, build_benchmark("pathfinder")[0],
                               epoch_cycles=250.0, n_shards=4,
                               processes=False)
        assert np.array_equal(out.gmem, ref.gmem)

    def test_instruction_counters_exact_at_any_epoch(self, config, backend,
                                                     serial_hotspot):
        # Execution-side counters (instructions, per-core activity) are
        # unaffected by the relaxed uncore timing; only shared-resource
        # timing may drift.
        out = backend.simulate(config, build_benchmark("hotspot")[0],
                               epoch_cycles=None, n_shards=4,
                               processes=False)
        a = serial_hotspot.activity
        assert out.activity.issued_instructions == a.issued_instructions
        assert out.activity.fetches == a.fetches
        assert out.activity.active_cores == a.active_cores
        assert out.activity.active_clusters == a.active_clusters

    def test_l2_dram_counters_exact_at_small_epoch(self, config, backend,
                                                   serial_hotspot):
        # With tight barriers the L2 fill exchange reconstructs the
        # logically-shared cache: miss and DRAM traffic counters match
        # serial exactly on the L2-sharing-heavy workload.
        out = backend.simulate(config, build_benchmark("hotspot")[0],
                               epoch_cycles=50.0, n_shards=4,
                               processes=False)
        a = serial_hotspot.activity
        assert out.activity.l2_misses == a.l2_misses
        assert out.activity.dram_reads == a.dram_reads


class TestTimingConvergence:
    def test_error_monotone_as_epoch_shrinks(self, config, backend,
                                             serial_hotspot):
        """On a contended workload, tighter epochs never increase error."""
        ladder = [None, 1000.0, 500.0, 250.0, 50.0]
        errors = []
        for epoch in ladder:
            out = backend.simulate(config, build_benchmark("hotspot")[0],
                                   epoch_cycles=epoch, n_shards=4,
                                   processes=False)
            errors.append(abs(out.cycles - serial_hotspot.cycles)
                          / serial_hotspot.cycles)
        # Tolerance: 0.05 percentage points -- rung-to-rung differences
        # below that are epoch-grid alignment noise, not relaxation.
        for looser, tighter in zip(errors, errors[1:]):
            assert tighter <= looser + 5e-4, \
                f"error rose when epoch shrank: {errors} (ladder {ladder})"

    def test_default_epoch_within_error_gates(self, config, backend):
        """The shipped default honours the <=2% cycle error target on
        the most contended Table IV workload."""
        ref = _serial(config, "hotspot")
        out = backend.simulate(config, build_benchmark("hotspot")[0],
                               n_shards=4, processes=False)
        assert abs(out.cycles - ref.cycles) / ref.cycles <= 0.02


class TestDegeneration:
    def test_single_shard_bit_identical_to_cycle(self, config, backend,
                                                 serial_hotspot):
        out = backend.simulate(config, build_benchmark("hotspot")[0],
                               n_shards=1)
        assert out.cycles == serial_hotspot.cycles
        assert out.activity.to_dict() == serial_hotspot.activity.to_dict()
        assert np.array_equal(out.gmem, serial_hotspot.gmem)

    def test_single_shard_traced_bit_identical(self, config, backend):
        ref = GPU(config).run(build_benchmark("hotspot")[0],
                              tracer=ActivityTracer(200.0))
        out = backend.simulate(config, build_benchmark("hotspot")[0],
                               n_shards=1, tracer=ActivityTracer(200.0))
        assert len(out.windows) == len(ref.windows)
        for wa, wb in zip(out.windows, ref.windows):
            assert wa.activity.to_dict() == wb.activity.to_dict()

    def test_processes_match_in_process_shards(self, config, backend):
        launch = build_benchmark("heartwall")[0]
        local = backend.simulate(config, build_benchmark("heartwall")[0],
                                 epoch_cycles=250.0, n_shards=4,
                                 processes=False)
        forked = backend.simulate(config, launch, epoch_cycles=250.0,
                                  n_shards=4, processes=True)
        assert forked.cycles == local.cycles
        assert forked.activity.to_dict() == local.activity.to_dict()
        assert np.array_equal(forked.gmem, local.gmem)


class TestTelemetryMerge:
    def test_windows_reconstruct_aggregate_exactly(self, config, backend):
        """Summing a sharded run's windows gives back its aggregate --
        the same invariant serial traced runs guarantee."""
        out = backend.simulate(config, build_benchmark("hotspot")[0],
                               epoch_cycles=250.0, n_shards=4,
                               processes=False,
                               tracer=ActivityTracer(100.0))
        total = sum_windows(out.windows, config)
        assert total.to_dict() == out.activity.to_dict()

    def test_windows_cover_full_runtime(self, config, backend):
        tracer = ActivityTracer(100.0)
        out = backend.simulate(config, build_benchmark("blackscholes")[0],
                               epoch_cycles=250.0, n_shards=4,
                               processes=False, tracer=tracer)
        assert out.windows[-1].end_cycles == out.cycles
        starts = [w.start_cycles for w in out.windows]
        ends = [w.end_cycles for w in out.windows]
        assert starts[0] == 0.0
        assert starts[1:] == ends[:-1]


class TestOptionsAndCache:
    def test_epoch_must_be_positive(self, config, backend):
        with pytest.raises(ValueError, match="epoch_cycles"):
            backend.resolve_options(config, {"epoch_cycles": -5})

    def test_inf_epoch_means_unbounded(self, config, backend):
        epoch, _, _ = backend.resolve_options(
            config, {"epoch_cycles": float("inf")})
        assert epoch is None

    def test_shards_clamped_to_clusters(self, config, backend):
        _, n_shards, _ = backend.resolve_options(config, {"n_shards": 99})
        assert n_shards == config.n_clusters

    def test_cache_key_never_collides_with_cycle(self, config):
        base = SimJob(config=config, kernel="hotspot")
        par = SimJob(config=config, kernel="hotspot",
                     backend="parallel_cycle")
        assert request_key(base) != request_key(par)

    def test_cache_key_tracks_epoch_and_shards(self, config):
        keys = {
            request_key(SimJob(config=config, kernel="hotspot",
                               backend="parallel_cycle",
                               backend_options=opts))
            for opts in (None, {"epoch_cycles": 50.0},
                         {"epoch_cycles": None}, {"n_shards": 2})
        }
        assert len(keys) == 4

    def test_cache_key_ignores_process_policy(self, config):
        a = SimJob(config=config, kernel="hotspot",
                   backend="parallel_cycle",
                   backend_options={"processes": False})
        b = SimJob(config=config, kernel="hotspot",
                   backend="parallel_cycle",
                   backend_options={"processes": True})
        assert request_key(a) == request_key(b)

    def test_runner_round_trip(self, config, tmp_path):
        from repro.runner import ResultCache
        cache = ResultCache(tmp_path / "cache")
        job = SimJob(config=config, kernel="hotspot",
                     backend="parallel_cycle",
                     backend_options={"epoch_cycles": 250.0,
                                      "n_shards": 4,
                                      "processes": False})
        fresh, = run_jobs([job], n_jobs=1, cache=cache)
        again, = run_jobs([job], n_jobs=1, cache=cache)
        assert not fresh.cached and again.cached
        assert again.cycles == fresh.cycles
        assert again.activity.to_dict() == fresh.activity.to_dict()

    def test_worker_error_type_importable(self):
        # The error surface for dead shard workers is part of the API.
        assert issubclass(ShardWorkerError, RuntimeError)


class TestFacade:
    def test_gpusimpow_run_accepts_backend_options(self, config):
        from repro.core.gpusimpow import GPUSimPow
        launch = build_benchmark("pathfinder")[0]
        result = GPUSimPow(config).run(SimRequest(
            config=config, launch=launch, backend="parallel_cycle",
            backend_options={"epoch_cycles": 250.0, "n_shards": 2,
                             "processes": False}))
        assert result.backend == "parallel_cycle"
        assert result.chip_total_w > 0
