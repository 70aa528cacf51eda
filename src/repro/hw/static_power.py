"""Hardware static-power estimation (Section IV-B).

Two methodologies, exactly as the paper used them:

* **Frequency extrapolation** (GT240): run the same benchmark at stock
  frequency and at 20% lower frequency, then extrapolate the two
  (frequency, power) points linearly to 0 Hz.  By Eq. 1 dynamic power
  vanishes at 0 Hz, so the intercept is the static power.
* **Idle-ratio transfer** (GTX580): the Linux driver cannot change the
  GTX580's clocks, so its static power is estimated as the idle power
  between two kernel executions multiplied by the static/idle ratio
  found on the GT240 (~90%).
"""

from __future__ import annotations

from typing import Tuple

from ..sim.activity import ActivityReport
from ..sim.config import GPUConfig
from .measure import MeasurementTool
from .testbed import Testbed
from .virtual_gpu import VirtualGPU


def static_power_by_extrapolation(
        config: GPUConfig, activity: ActivityReport,
        seed: int = 11) -> Tuple[float, float, float]:
    """Frequency-scaling static power estimate.

    Runs the benchmark at stock clock and at 80% clock on the virtual
    card (raises :class:`UnsupportedByDriver` where the driver refuses),
    measures both through the testbed, and extrapolates to 0 Hz.

    Returns:
        (static_w, power_at_stock_w, power_at_80pct_w)
    """
    powers = []
    scales = (1.0, 0.8)
    for scale in scales:
        vgpu = VirtualGPU(config, clock_scale=scale)
        # Same seed on purpose: both frequency runs go through the SAME
        # physical testbed, so channel gain errors cancel in the slope
        # (re-seeding would model swapping the measurement hardware
        # between runs, which the paper of course did not do).
        bed = Testbed(vgpu, seed=seed)
        capture = bed.run_session([("probe", activity, 100)])
        tool = MeasurementTool(capture)
        powers.append(tool.kernel_power("probe"))
    p1, p08 = powers
    # Linear extrapolation through (f, p1) and (0.8 f, p08) to f = 0.
    slope = (p1 - p08) / (scales[0] - scales[1])
    static = p1 - slope * scales[0]
    return static, p1, p08


def static_power_by_idle_ratio(config: GPUConfig,
                               activity: ActivityReport,
                               gt240_ratio: float,
                               seed: int = 13) -> float:
    """Idle-ratio static power estimate (the GTX580 fallback).

    Measures the idle power between two kernel executions and multiplies
    by the static/idle ratio calibrated on the GT240.
    """
    vgpu = VirtualGPU(config)
    bed = Testbed(vgpu, seed=seed)
    capture = bed.run_session([("a", activity, 100), ("b", activity, 100)])
    tool = MeasurementTool(capture)
    return tool.idle_power() * gt240_ratio


def gt240_static_idle_ratio(static_w: float, idle_w: float) -> float:
    """The transfer ratio: GT240 static power over GT240 idle power.

    The paper observes "about 90% of the power consumed by the card in
    this state thus seems to be static power".
    """
    if idle_w <= 0:
        raise ValueError("idle power must be positive")
    return static_w / idle_w
