"""Tests for the GPUSimPow facade (the Fig. 1 pipeline)."""

import pytest

from repro import GPUSimPow, JobResult, SimRequest, gt240, gtx580
from repro.runner import run_jobs
from tests.conftest import build_vecadd_launch


class TestArchitectureReport:
    def test_fields(self):
        arch = GPUSimPow(gt240()).architecture()
        assert arch.name == "GT240"
        assert arch.area_mm2 > 0
        assert arch.static_power_w > 0
        assert arch.peak_dynamic_w > arch.static_power_w

    def test_bigger_chip_bigger_numbers(self):
        small = GPUSimPow(gt240()).architecture()
        big = GPUSimPow(gtx580()).architecture()
        assert big.area_mm2 > small.area_mm2
        assert big.static_power_w > small.static_power_w


class TestRun:
    def test_end_to_end(self):
        launch, x, y = build_vecadd_launch()
        result = GPUSimPow(gt240()).run(launch)
        assert result.kernel_name == "tiny_vecadd"
        assert result.runtime_s > 0
        assert result.chip_total_w == pytest.approx(
            result.chip_static_w + result.chip_dynamic_w)
        assert result.card_total_w > result.chip_total_w
        assert result.energy_j > 0

    def test_summary_keys(self):
        launch, _, _ = build_vecadd_launch()
        summary = GPUSimPow(gt240()).run(launch).summary()
        assert set(summary) == {"runtime_s", "static_w", "dynamic_w",
                                "chip_total_w", "dram_w", "card_total_w"}

    def test_rerun_from_cached_activity(self):
        launch, _, _ = build_vecadd_launch()
        sim = GPUSimPow(gt240())
        first = sim.run(launch)
        second = sim.run(JobResult(
            job=SimRequest(config=gt240(), launch=launch),
            activity=first.activity, cycles=first.performance.cycles))
        assert second.chip_dynamic_w == pytest.approx(first.chip_dynamic_w)
        assert second.chip_static_w == pytest.approx(first.chip_static_w)

    def test_dynamic_power_below_peak(self, launches):
        sim = GPUSimPow(gt240())
        arch = sim.architecture()
        for name in ("BlackScholes", "matrixMul", "vectorAdd"):
            result = sim.run(launches[name])
            assert result.chip_dynamic_w < arch.peak_dynamic_w

    def test_compute_kernel_burns_more_than_streaming(self, launches):
        sim = GPUSimPow(gt240())
        compute = sim.run(launches["BlackScholes"])
        streaming = sim.run(launches["bfs2"])
        assert compute.chip_dynamic_w > streaming.chip_dynamic_w

    def test_power_profile_tree_shape(self, blackscholes_result_gt240):
        gpu = blackscholes_result_gt240.power.gpu
        names = {n.name for n in gpu.walk()}
        for expected in ("Cores", "NoC", "Memory Controller",
                         "PCIe Controller", "WCU", "Register File",
                         "Execution Units", "LDSTU", "Undiff. Core",
                         "Base Power"):
            assert expected in names

    def test_gtx580_has_l2_node(self, launches):
        result = GPUSimPow(gtx580()).run(launches["vectorAdd"])
        assert result.power.gpu.find("L2 Cache") is not None


class TestJobReplay:
    def test_auto_job_keeps_backend_and_promise(self):
        """A replayed ``auto`` job answers with the tier that produced
        it and that tier's promise, exactly as a fresh run does."""
        request = SimRequest(config=gt240(), kernel="vectorAdd",
                             backend="auto", error_budget=0.10)
        sim = GPUSimPow(gt240())
        fresh = sim.run(request)
        job, = run_jobs([request], n_jobs=1, cache=None)
        replay = sim.run(job)
        assert replay.backend == job.backend == fresh.backend
        assert job.promised_error is not None
        assert replay.promised_error == job.promised_error
        assert replay.to_dict() == fresh.to_dict()
        assert "promised_error" in replay.to_dict()
