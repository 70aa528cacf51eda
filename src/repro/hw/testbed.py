"""The power-measurement testbed (Fig. 5 / Section IV-A).

Couples a :class:`~repro.hw.virtual_gpu.VirtualGPU` (the device under
test) to the riser card, signal conditioning board and DAQ: the card's
true power waveform is generated phase by phase (idle, pre-kernel,
kernel executions, post-kernel, power-gated idle), split over its DC
input rails, pushed through the shunt monitors and dividers, and sampled
at 31.2 kHz.  Kernel start/end timestamps come from the (virtual) GPU
profiler, exactly as the paper's measurement tool uses them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .daq import DAQ
from .sensors import (ResistiveDivider, ShuntMonitor, make_divider,
                      make_monitor)
from .virtual_gpu import VirtualGPU

#: Shunt values per rail kind (Section IV-A): 20 mOhm on the slot rails,
#: 10 mOhm in the external PCIe power cables.
SLOT_SHUNT_OHM = 20e-3
EXT_SHUNT_OHM = 10e-3

#: Minimum duration of the kernel phase; kernels shorter than this are
#: repeated back to back (the paper reruns sub-500 us kernels 100x
#: because they are "too short for reliable measurements").
MIN_KERNEL_PHASE_S = 0.02

#: Idle paddings around the kernel sequence.
PRE_IDLE_S = 0.01
GAP_S = 0.005
POST_IDLE_S = 0.01


@dataclass
class KernelWindow:
    """Profiler timestamps of one kernel's execution phase."""

    name: str
    start_s: float
    end_s: float
    repeats: int

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass
class RailCapture:
    """DAQ records of one rail: conditioned voltage + current channels."""

    name: str
    nominal_v: float
    divider: ResistiveDivider
    monitor: ShuntMonitor
    v_samples: np.ndarray
    i_samples: np.ndarray


@dataclass
class MeasurementCapture:
    """Everything one testbed session produces."""

    rails: List[RailCapture]
    windows: List[KernelWindow]
    sample_rate_hz: float
    duration_s: float


class Testbed:
    """The assembled measurement setup around one card."""

    #: Not a pytest test class, despite the collectable name.
    __test__ = False

    def __init__(self, vgpu: VirtualGPU, seed: int = 7) -> None:
        self.vgpu = vgpu
        self.rng = np.random.default_rng(seed)
        self.daq = DAQ(self.rng)
        self._channels: List[Tuple[str, float, float, ShuntMonitor,
                                   ResistiveDivider]] = []
        for name, volts, frac in vgpu.rail_split():
            shunt = (SLOT_SHUNT_OHM if name.startswith("slot")
                     else EXT_SHUNT_OHM)
            self._channels.append((
                name, volts, frac,
                make_monitor(self.rng, shunt),
                make_divider(self.rng, volts),
            ))

    # -- session --------------------------------------------------------------

    def run_session(
        self,
        kernels: Sequence[Tuple],
    ) -> MeasurementCapture:
        """Execute kernels on the virtual card and capture the session.

        Args:
            kernels: (name, activity, requested_repeats[, repeatable])
                per kernel; the testbed extends repeats so each kernel
                phase is long enough for reliable measurement.  A
                non-repeatable (in-place) kernel needs a host-side data
                restore between runs, so its measurement window is
                diluted with active-idle time -- the measurement
                artifact the paper blames for the third mergeSort
                kernel's 35.4% error.
        """
        phases: List[Tuple[float, float]] = [(PRE_IDLE_S,
                                              self.vgpu.active_idle_w)]
        windows: List[KernelWindow] = []
        t = PRE_IDLE_S
        for entry in kernels:
            name, act, repeat = entry[0], entry[1], entry[2]
            repeatable = entry[3] if len(entry) > 3 else True
            once = max(act.runtime_s, 1e-7) / self.vgpu.clock_scale
            repeats = max(repeat, int(np.ceil(MIN_KERNEL_PHASE_S / once)))
            duration = once * repeats
            power = self.vgpu.kernel_power_w(act)
            if not repeatable:
                # Host restores the in-place data between runs, and the
                # profiler/DAQ timestamp skew on a once-run kernel mixes
                # power-gated idle samples into the window: the window
                # averages ~30% kernel, ~70% gated idle.
                duration *= 4.0
                power = 0.30 * power + 0.70 * self.vgpu.gated_idle_w
            windows.append(KernelWindow(name, t, t + duration, repeats))
            phases.append((duration, power))
            phases.append((GAP_S, self.vgpu.active_idle_w))
            t += duration + GAP_S
        phases.append((POST_IDLE_S, self.vgpu.gated_idle_w))
        t += POST_IDLE_S

        times = self.daq.timebase(t)
        true_power = self._waveform(times, phases)
        rails = self._capture_rails(times, true_power)
        return MeasurementCapture(
            rails=rails,
            windows=windows,
            sample_rate_hz=self.daq.sample_rate_hz,
            duration_s=t,
        )

    # -- internals ------------------------------------------------------------

    def _waveform(self, times: np.ndarray,
                  phases: List[Tuple[float, float]]) -> np.ndarray:
        """True card power at each sample instant, with load ripple."""
        bounds = np.cumsum([0.0] + [d for d, _ in phases])
        levels = np.array([p for _, p in phases])
        idx = np.clip(np.searchsorted(bounds, times, side="right") - 1,
                      0, len(levels) - 1)
        power = levels[idx]
        # VRM switching ripple and workload flicker: ~0.6% rms.
        ripple = self.rng.normal(0.0, 0.006, size=times.shape)
        return power * (1.0 + ripple)

    def _capture_rails(self, times: np.ndarray,
                       true_power: np.ndarray) -> List[RailCapture]:
        rails: List[RailCapture] = []
        for name, volts, frac, monitor, divider in self._channels:
            rail_power = true_power * frac
            # Rail voltage sags slightly under load (cable/plane drop).
            current = rail_power / volts
            sag = current * (0.030 if volts > 5 else 0.010)
            rail_v = volts - sag + self.rng.normal(0.0, 0.01,
                                                   size=times.shape)
            rail_i = rail_power / rail_v
            v_cond = divider.output(rail_v)
            i_cond = monitor.output(rail_i)
            rails.append(RailCapture(
                name=name,
                nominal_v=volts,
                divider=divider,
                monitor=monitor,
                v_samples=self.daq.sample(v_cond),
                i_samples=self.daq.sample(i_cond),
            ))
        return rails
