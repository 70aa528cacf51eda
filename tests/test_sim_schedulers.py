"""Tests for the warp scheduling policies (rr / gto / two_level)."""

import numpy as np
import pytest

from repro.sim import gt240, simulate
from repro.sim.core import Core
from repro.sim.memsys import MemorySystem
from repro.workloads import matmul
from tests.conftest import build_vecadd_launch

POLICIES = ("rr", "gto", "two_level")


class TestConfig:
    def test_presets_default_rr(self):
        assert gt240().warp_scheduler == "rr"

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            gt240().scaled(warp_scheduler="lottery")

    def test_group_size_validated(self):
        with pytest.raises(ValueError):
            gt240().scaled(scheduler_group_size=0)


class TestScanOrder:
    def make_core(self, policy, n_warps=8):
        cfg = gt240().scaled(warp_scheduler=policy)
        core = Core(0, cfg, MemorySystem(cfg))
        core.warps = [object()] * n_warps  # only the length matters
        return core

    def test_rr_rotates(self):
        core = self.make_core("rr")
        core._rr = 3
        assert core._scan_order()[:3] == [3, 4, 5]
        assert sorted(core._scan_order()) == list(range(8))

    def test_gto_revisits_last_first(self):
        core = self.make_core("gto")
        core._last_issued = 5
        order = core._scan_order()
        assert order[0] == 5
        assert sorted(order) == list(range(8))

    def test_gto_clamps_stale_index(self):
        core = self.make_core("gto", n_warps=4)
        core._last_issued = 40
        assert core._scan_order()[0] == 3

    def test_two_level_prefers_active_group(self):
        cfg = gt240().scaled(warp_scheduler="two_level",
                             scheduler_group_size=4)
        core = Core(0, cfg, MemorySystem(cfg))
        core.warps = [object()] * 8
        core._active_group = 1
        order = core._scan_order()
        assert order[:4] == [4, 5, 6, 7]
        assert sorted(order) == list(range(8))


class TestFunctionalEquivalence:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_vecadd_correct_under_all_policies(self, policy):
        launch, x, y = build_vecadd_launch()
        out = simulate(gt240().scaled(warp_scheduler=policy), launch)
        assert np.allclose(out.gmem[512:768], x + y)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_matmul_correct_under_all_policies(self, policy, launches):
        l = launches["matrixMul"]
        out = simulate(gt240().scaled(warp_scheduler=policy), l)
        ref = matmul.reference(l.globals_init[matmul.A_OFF],
                               l.globals_init[matmul.B_OFF])
        assert np.allclose(out.gmem[matmul.C_OFF:
                                    matmul.C_OFF + matmul.DIM ** 2], ref)


class TestTimingDiffers:
    def test_policies_produce_different_schedules(self, launches):
        cycles = {p: simulate(gt240().scaled(warp_scheduler=p),
                              launches["matrixMul"]).cycles
                  for p in POLICIES}
        assert len(set(cycles.values())) > 1

    def test_issue_counts_identical(self, launches):
        """Scheduling changes *when*, never *what*: the same warp
        instructions issue under every policy."""
        issued = {p: simulate(gt240().scaled(warp_scheduler=p),
                              launches["matrixMul"]).activity
                  .issued_instructions
                  for p in POLICIES}
        assert len(set(issued.values())) == 1
