"""Unit tests for GPU configurations and the XML interface."""

import pytest

from repro.sim.config import GPUConfig, gt240, gtx580, preset


class TestPresets:
    def test_gt240_matches_table2(self):
        cfg = gt240()
        assert cfg.n_cores == 12
        assert cfg.max_threads_per_core == 768
        assert cfg.n_fp_lanes == 8
        assert cfg.uncore_clock_hz == 550e6
        assert cfg.shader_to_uncore == 2.47
        assert cfg.max_warps_per_core == 24
        assert not cfg.has_scoreboard
        assert not cfg.has_l2
        assert cfg.process_nm == 40

    def test_gtx580_matches_table2(self):
        cfg = gtx580()
        assert cfg.n_cores == 16
        assert cfg.max_threads_per_core == 1536
        assert cfg.n_fp_lanes == 32
        assert cfg.uncore_clock_hz == 882e6
        assert cfg.shader_to_uncore == 2.0
        assert cfg.max_warps_per_core == 48
        assert cfg.has_scoreboard
        assert cfg.l2_size == 768 * 1024
        assert cfg.process_nm == 40

    def test_gt240_clusters(self):
        cfg = gt240()
        assert cfg.n_clusters == 4 and cfg.cores_per_cluster == 3

    def test_preset_lookup(self):
        assert preset("gt240").name == "GT240"
        assert preset("GTX580").name == "GTX580"
        with pytest.raises(KeyError):
            preset("GT9999")

    def test_shader_clock(self):
        assert gt240().shader_clock_hz == pytest.approx(550e6 * 2.47)

    def test_fu_cycles_per_warp(self):
        assert gt240().fu_cycles_per_warp == 4   # 32 threads over 8 lanes
        assert gtx580().fu_cycles_per_warp == 1

    def test_dram_bandwidth(self):
        # GT240: 128-bit bus at 850 MHz QDR = 54.4 GB/s
        assert gt240().dram_bandwidth_bytes_per_s == pytest.approx(54.4e9)


class TestValidation:
    def test_rejects_non_power_of_two_warp(self):
        with pytest.raises(ValueError):
            gt240().scaled(warp_size=24)

    def test_rejects_zero_clusters(self):
        with pytest.raises(ValueError):
            gt240().scaled(n_clusters=0)

    def test_rejects_l2_without_size(self):
        with pytest.raises(ValueError):
            gt240().scaled(has_l2=True, l2_size=0)

    def test_rejects_bad_segment(self):
        with pytest.raises(ValueError):
            gt240().scaled(coalesce_segment_bytes=100)

    def test_rejects_tiny_thread_capacity(self):
        with pytest.raises(ValueError):
            gt240().scaled(max_threads_per_core=16)


class TestScaling:
    def test_scaled_returns_copy(self):
        base = gt240()
        mod = base.scaled(n_clusters=8)
        assert base.n_clusters == 4 and mod.n_clusters == 8

    def test_scaled_preserves_rest(self):
        mod = gt240().scaled(n_clusters=8)
        assert mod.max_warps_per_core == 24


class TestXML:
    def test_roundtrip_preserves_everything(self):
        for cfg in (gt240(), gtx580()):
            restored = GPUConfig.from_xml(cfg.to_xml())
            assert restored == cfg

    def test_roundtrip_custom(self):
        cfg = gt240().scaled(n_clusters=6, has_scoreboard=True,
                             smem_size=32 * 1024)
        restored = GPUConfig.from_xml(cfg.to_xml())
        assert restored.n_clusters == 6
        assert restored.has_scoreboard
        assert restored.smem_size == 32 * 1024

    def test_rejects_wrong_root(self):
        with pytest.raises(ValueError):
            GPUConfig.from_xml("<not_a_config/>")

    def test_rejects_unknown_param(self):
        xml = ('<gpu_config name="x"><param name="bogus" value="1"/>'
               '</gpu_config>')
        with pytest.raises(ValueError):
            GPUConfig.from_xml(xml)
