"""Integration tests for the testbed + measurement tool chain."""

import pytest

from repro.hw.measure import MeasurementTool
from repro.hw.testbed import Testbed
from repro.hw.virtual_gpu import VirtualGPU
from repro.sim.activity import ActivityReport
from repro.sim.config import gt240, gtx580


def activity(runtime_s=2e-4, **counts):
    act = ActivityReport()
    act.runtime_s = runtime_s
    for k, v in counts.items():
        setattr(act, k, v)
    return act


def busy_activity():
    return activity(fp_ops=5e5, int_ops=1e5, issued_instructions=5e4,
                    active_cores=12, active_clusters=4, blocks_launched=12,
                    mem_transactions=1e4, dram_reads=2e4)


class TestSession:
    def test_windows_cover_kernels(self):
        bed = Testbed(VirtualGPU(gt240()), seed=1)
        cap = bed.run_session([("k1", busy_activity(), 100),
                               ("k2", busy_activity(), 100)])
        assert [w.name for w in cap.windows] == ["k1", "k2"]
        assert cap.windows[0].end_s <= cap.windows[1].start_s
        assert cap.duration_s > cap.windows[1].end_s

    def test_short_kernels_repeated(self):
        bed = Testbed(VirtualGPU(gt240()), seed=1)
        cap = bed.run_session([("quick", activity(runtime_s=1e-6), 100)])
        # Extended well past the requested 100 to reach a measurable
        # window (paper: sub-500us kernels repeated 100x; our DAQ needs
        # ~20 ms of samples).
        assert cap.windows[0].repeats >= 100
        assert cap.windows[0].duration_s >= 0.019

    def test_rail_channels_match_card(self):
        for cfg, expected in ((gt240(), 2), (gtx580(), 4)):
            bed = Testbed(VirtualGPU(cfg), seed=1)
            cap = bed.run_session([("k", busy_activity(), 10)])
            assert len(cap.rails) == expected

    def test_non_repeatable_window_diluted(self):
        vg = VirtualGPU(gt240())
        bed = Testbed(vg, seed=1)
        cap_ok = bed.run_session([("k", busy_activity(), 100, True)])
        bed2 = Testbed(vg, seed=1)
        cap_art = bed2.run_session([("k", busy_activity(), 1, False)])
        p_ok = MeasurementTool(cap_ok).kernel_power("k")
        p_art = MeasurementTool(cap_art).kernel_power("k")
        assert p_art < p_ok  # artifact biases the measurement low


class TestMeasurementTool:
    def test_measured_power_close_to_truth(self):
        vg = VirtualGPU(gt240())
        truth = vg.kernel_power_w(busy_activity())
        bed = Testbed(vg, seed=3)
        cap = bed.run_session([("k", busy_activity(), 100)])
        measured = MeasurementTool(cap).kernel_power("k")
        # Paper: the chain is accurate within ~3.2% overall.
        assert measured == pytest.approx(truth, rel=0.035)

    def test_measurement_error_within_spec_many_channels(self):
        errors = []
        for seed in range(12):
            vg = VirtualGPU(gt240())
            truth = vg.kernel_power_w(busy_activity())
            bed = Testbed(vg, seed=seed)
            cap = bed.run_session([("k", busy_activity(), 100)])
            measured = MeasurementTool(cap).kernel_power("k")
            errors.append(abs(measured - truth) / truth)
        assert max(errors) < 0.032   # the paper's +/-3.2% system bound

    def test_idle_power_measured(self):
        vg = VirtualGPU(gt240())
        bed = Testbed(vg, seed=3)
        cap = bed.run_session([("a", busy_activity(), 100),
                               ("b", busy_activity(), 100)])
        idle = MeasurementTool(cap).idle_power()
        assert idle == pytest.approx(vg.active_idle_w, rel=0.05)

    def test_energy_consistent_with_power(self):
        bed = Testbed(VirtualGPU(gt240()), seed=3)
        cap = bed.run_session([("k", busy_activity(), 100)])
        m = MeasurementTool(cap).kernel_measurements()[0]
        assert m.energy_j == pytest.approx(m.avg_power_w * m.duration_s)
        assert m.energy_per_run_j == pytest.approx(m.energy_j / m.repeats)

    def test_unknown_kernel_raises(self):
        bed = Testbed(VirtualGPU(gt240()), seed=3)
        cap = bed.run_session([("k", busy_activity(), 100)])
        with pytest.raises(KeyError):
            MeasurementTool(cap).kernel_power("ghost")

    def test_waveform_has_kernel_plateau(self):
        vg = VirtualGPU(gt240())
        bed = Testbed(vg, seed=3)
        cap = bed.run_session([("k", busy_activity(), 100)])
        tool = MeasurementTool(cap)
        w = cap.windows[0]
        inside = tool.window_average(w.start_s, w.end_s)
        before = tool.window_average(0.0, w.start_s - 1e-3)
        assert inside > before
