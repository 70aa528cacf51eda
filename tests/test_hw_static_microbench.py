"""Tests for static-power estimation and the Section III-D microbenchmarks."""

import pytest

from repro.hw.microbench import (derive_energy_per_op, lfsr_kernel,
                                 mandelbrot_kernel, run_cluster_staircase)
from repro.hw.static_power import (gt240_static_idle_ratio,
                                   static_power_by_extrapolation,
                                   static_power_by_idle_ratio)
from repro.hw.virtual_gpu import CARDS
from repro.sim.config import gt240, gtx580
from repro.sim.gpu import GPU


@pytest.fixture(scope="module")
def probe_activity(launches):
    return GPU(gt240()).run(launches["BlackScholes"]).activity


@pytest.fixture(scope="module")
def probe_activity_580(launches):
    return GPU(gtx580()).run(launches["BlackScholes"]).activity


class TestStaticPower:
    def test_extrapolation_recovers_static(self, probe_activity):
        static, p1, p08 = static_power_by_extrapolation(gt240(),
                                                        probe_activity)
        assert static == pytest.approx(CARDS["GT240"].static_w, rel=0.05)
        assert p1 > p08 > static

    def test_idle_ratio_method(self, probe_activity_580):
        ratio = gt240_static_idle_ratio(17.6, 19.5)
        static = static_power_by_idle_ratio(gtx580(), probe_activity_580,
                                            ratio)
        assert static == pytest.approx(CARDS["GTX580"].static_w, rel=0.05)

    def test_ratio_about_90_percent(self):
        """Paper: 'About 90% of the power consumed by the card in this
        state thus seems to be static power.'"""
        assert gt240_static_idle_ratio(17.6, 19.5) == pytest.approx(0.90,
                                                                    abs=0.01)

    def test_ratio_rejects_zero_idle(self):
        with pytest.raises(ValueError):
            gt240_static_idle_ratio(17.6, 0.0)


class TestMicrobenchKernels:
    def test_lane_guard_scales_body_ops_only(self):
        """The 31-vs-1 difference is exactly the guarded body work: 30
        lanes x 96 body ops per warp (loop overhead runs in all lanes
        in both configurations and cancels)."""
        from repro.isa import Dim3, KernelLaunch
        ops = {}
        for lanes in (31, 1):
            launch = KernelLaunch(lfsr_kernel(lanes).build(), Dim3(1),
                                  Dim3(32), gmem_words=4096)
            ops[lanes] = GPU(gt240()).run(launch).activity.int_ops
        body_ops_per_lane = 3 * 8 * 4   # 3 ops x UNROLL x ITERS
        assert ops[31] - ops[1] == 30 * body_ops_per_lane

    def test_same_runtime_both_configs(self):
        """Paper: 'Both configurations have the same execution time.'"""
        from repro.isa import Dim3, KernelLaunch
        cycles = []
        for lanes in (31, 1):
            launch = KernelLaunch(mandelbrot_kernel(lanes).build(),
                                  Dim3(12), Dim3(512), gmem_words=4096)
            cycles.append(GPU(gt240()).run(launch).cycles)
        assert cycles[0] == pytest.approx(cycles[1], rel=0.01)


class TestEnergyDerivation:
    def test_int_energy_near_40pj(self):
        r = derive_energy_per_op(gt240(), "int")
        assert r.energy_per_op_j * 1e12 == pytest.approx(40.0, abs=4.0)

    def test_fp_energy_near_75pj(self):
        r = derive_energy_per_op(gt240(), "fp")
        assert r.energy_per_op_j * 1e12 == pytest.approx(75.0, abs=6.0)

    def test_fp_costs_more_than_int(self):
        r_int = derive_energy_per_op(gt240(), "int")
        r_fp = derive_energy_per_op(gt240(), "fp")
        assert r_fp.energy_per_op_j > r_int.energy_per_op_j

    def test_ops_difference_positive(self):
        r = derive_energy_per_op(gt240(), "int")
        assert r.ops_difference > 0
        assert r.energy_hi_j > r.energy_lo_j


class TestStaircase:
    @pytest.fixture(scope="class")
    def points(self):
        return run_cluster_staircase(gt240())

    def test_one_point_per_core(self, points):
        assert [b for b, _ in points] == list(range(1, 13))

    def test_monotone_increasing(self, points):
        powers = [p for _, p in points]
        assert all(b > a for a, b in zip(powers, powers[1:]))

    def test_cluster_steps_larger_than_core_steps(self, points):
        """The Fig. 4 observation: blocks 2-4 (new clusters) add more
        power than blocks 5-12 (cores in active clusters)."""
        powers = [p for _, p in points]
        steps = [b - a for a, b in zip(powers, powers[1:])]
        cluster_steps = steps[:3]
        core_steps = steps[3:]
        assert min(cluster_steps) > max(core_steps)

    def test_cluster_activation_magnitude(self, points):
        powers = [p for _, p in points]
        steps = [b - a for a, b in zip(powers, powers[1:])]
        cluster_extra = ((sum(steps[:3]) / 3)
                         - (sum(steps[3:]) / len(steps[3:])))
        assert cluster_extra == pytest.approx(0.692, rel=0.15)
