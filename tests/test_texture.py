"""Tests for the texture caching subsystem extension.

Section III-C4 of the paper: "In a future variant of the model, the
LDSTU will contain the texture caching subsystem, i.e. texture caches
and texture mapping units, as well."  This reproduction implements that
variant behind the ``tex_cache_size`` configuration knob.
"""

import numpy as np
import pytest

from repro import GPUSimPow
from repro.isa import Dim3, KernelBuilder, KernelLaunch, Sreg
from repro.sim import GPU, gt240, simulate

TEX_CFG = gt240().scaled(tex_cache_size=8 * 1024)

IMG = 64  # square image


def blur_kernel():
    """3-tap horizontal blur sampled through the texture path."""
    kb = KernelBuilder("texblur")
    gid, x, y, addr, left, mid, right, acc = kb.regs(8)
    kb.mov(gid, Sreg("gtid"))
    kb.imod(x, gid, IMG)
    kb.idiv(y, gid, IMG)
    kb.isub(addr, x, 1)
    kb.imax(addr, addr, 0)
    kb.imad(addr, y, IMG, addr)
    kb.ldt(left, addr)
    kb.ldt(mid, gid)
    kb.iadd(addr, x, 1)
    kb.imin(addr, addr, IMG - 1)
    kb.imad(addr, y, IMG, addr)
    kb.ldt(right, addr)
    kb.fadd(acc, left, right)
    kb.fadd(acc, acc, mid)
    kb.fmul(acc, acc, 1.0 / 3.0)
    kb.stg(acc, gid, offset=IMG * IMG)
    kb.exit()
    return kb.build()


def blur_launch():
    rng = np.random.default_rng(4)
    img = rng.uniform(0, 1, IMG * IMG)
    return KernelLaunch(blur_kernel(), Dim3(IMG * IMG // 256), Dim3(256),
                        globals_init={0: img},
                        gmem_words=2 * IMG * IMG), img


def blur_reference(img):
    m = img.reshape(IMG, IMG)
    left = np.hstack([m[:, :1], m[:, :-1]])
    right = np.hstack([m[:, 1:], m[:, -1:]])
    return ((left + m + right) / 3.0).ravel()


class TestFunctional:
    def test_blur_matches_reference(self):
        launch, img = blur_launch()
        out = simulate(TEX_CFG, launch)
        got = out.gmem[IMG * IMG:2 * IMG * IMG]
        assert np.allclose(got, blur_reference(img))

    def test_texture_fetch_without_cache_raises(self):
        launch, _ = blur_launch()
        with pytest.raises(RuntimeError, match="texture"):
            simulate(gt240(), launch)

    @pytest.mark.parametrize("address", [-1, 64])
    def test_out_of_bounds_fetch_faults(self, address):
        """Like LDG and LDC, an LDT outside the global image faults
        instead of wrapping (``gmem[-1]``) or escaping as a bare numpy
        error; the message names the instruction."""
        kb = KernelBuilder("tex_oob")
        addr, value = kb.regs(2)
        kb.mov(addr, float(address))
        kb.ldt(value, addr)
        kb.stg(value, addr)
        kb.exit()
        launch = KernelLaunch(kb.build(), Dim3(1), Dim3(32), gmem_words=64)
        gpu = GPU(TEX_CFG)
        with pytest.raises(IndexError,
                           match=r"out of bounds in LDT r1 \[r0\]"):
            gpu.run(launch)
        # The fault comes before any texture-cache accounting.
        ldst = gpu.cores[0].ldst
        assert ldst.tex_requests == 0 and ldst.tex_cache.reads == 0


class TestActivity:
    @pytest.fixture(scope="class")
    def activity(self):
        launch, _ = blur_launch()
        return simulate(TEX_CFG, launch).activity

    def test_requests_counted(self, activity):
        # 3 fetches per thread.
        assert activity.tex_requests == 3 * IMG * IMG

    def test_cache_captures_2d_locality(self, activity):
        # Overlapping 3-tap windows: far fewer line accesses than
        # requests, and high hit rate on the reuse.
        assert activity.tex_accesses < activity.tex_requests / 2
        assert activity.tex_misses < 0.3 * activity.tex_accesses

    def test_texture_avoids_coalescer(self, activity):
        # Only the output stores pass through the coalescer.
        assert activity.coalescer_accesses == IMG * IMG / 32


class TestPower:
    def test_tex_cache_in_power_model(self):
        launch, _ = blur_launch()
        result = GPUSimPow(TEX_CFG).run(launch)
        assert result.chip_dynamic_w > 0
        from repro.power.components.ldst import LDSTPower
        from repro.power.tech import tech_node
        comp = LDSTPower(TEX_CFG, tech_node(40))
        assert "tex_cache" in comp.circuits

    def test_tex_cache_adds_leakage(self):
        from repro.power import Chip
        base = Chip(gt240()).static_power_w()
        with_tex = Chip(TEX_CFG).static_power_w()
        assert with_tex > base

    def test_baseline_configs_unchanged(self):
        """Adding the extension must not disturb the Table IV/V
        calibration: the presets ship with the texture path off."""
        assert gt240().tex_cache_size == 0
        from repro.power import Chip
        assert Chip(gt240()).static_power_w() == pytest.approx(17.93,
                                                               abs=0.05)
