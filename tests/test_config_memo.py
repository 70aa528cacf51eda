"""Per-configuration memos: keyed by content, shared, never stale.

The config signature, the surrogate's table key and the facade's power
model are built once per configuration *content*
(:func:`repro.sim.config.config_memo`); a shared, read-only launch
keeps its signature.  A memo must never answer for a config or a
launch that has changed since.
"""

from __future__ import annotations

from repro.backends.surrogate import config_key
from repro.core.gpusimpow import GPUSimPow
from repro.runner.cache import config_signature, launch_signature
from repro.sim import gt240, gtx580
from repro.workloads import all_kernel_launches
from tests.conftest import build_vecadd_launch


def test_config_key_follows_a_mutated_config():
    cfg = gt240()
    before = config_key(cfg)
    cfg.dram_clock_hz *= 2
    after = config_key(cfg)
    assert after != before
    assert after == config_key(
        gt240().scaled(dram_clock_hz=cfg.dram_clock_hz))
    assert before == config_key(gt240())


def test_signature_keeps_equal_values_of_other_types_apart():
    as_int = config_signature(gt240().scaled(dram_clock_hz=900000000))
    as_float = config_signature(gt240().scaled(dram_clock_hz=900e6))
    assert as_int["dram_clock_hz"] == "900000000"
    assert as_float["dram_clock_hz"] == "900000000.0"


def test_config_signature_returns_a_copy():
    cfg = gt240()
    config_signature(cfg)["name"] = "changed"
    assert config_signature(cfg)["name"] == repr("GT240")


def test_equal_configs_share_one_chip():
    chip = GPUSimPow(gt240()).chip
    assert GPUSimPow(gt240()).chip is chip
    assert GPUSimPow(gtx580()).chip is not chip
    assert GPUSimPow(gt240().scaled(dram_clock_hz=1e9)).chip is not chip


def test_shared_chip_ignores_a_later_change_of_its_config():
    cfg = gt240()
    chip = GPUSimPow(cfg).chip
    static_w = chip.static_power_w()
    cfg.n_clusters *= 2
    assert chip.config.n_clusters == gt240().n_clusters
    assert chip.static_power_w() == static_w
    assert GPUSimPow(gt240()).chip is chip
    assert GPUSimPow(cfg).chip.static_power_w() > static_w


def test_launch_signature_cached_only_on_read_only_launches():
    shared = all_kernel_launches()["vectorAdd"]
    first = launch_signature(shared)
    assert "_signature" in shared.__dict__
    assert launch_signature(shared) == first

    explicit, x, _ = build_vecadd_launch()
    before = launch_signature(explicit)
    assert "_signature" not in explicit.__dict__
    x[0] += 1.0
    assert launch_signature(explicit) != before
