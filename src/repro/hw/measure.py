"""The custom measurement tool (Section IV-A).

"We developed a custom measurement tool that controls the DAQ and
calculates power and energy from the measured voltages and currents.
This tool is capable of using the GPU profiler to get start and end
timestamps of the kernels running on the GPU.  Using this information
and the measured power waveform, the average power and amount of
consumed energy can be calculated for each kernel execution."

This module is that tool: it inverts the nominal sensor transfer
functions (it cannot know each channel's true gain/offset errors),
reconstructs the card power waveform, and windows it by the profiler
timestamps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .testbed import MeasurementCapture


@dataclass
class KernelMeasurement:
    """Measured result for one kernel phase."""

    name: str
    avg_power_w: float
    energy_j: float
    duration_s: float
    repeats: int

    @property
    def energy_per_run_j(self) -> float:
        return self.energy_j / max(1, self.repeats)


class MeasurementTool:
    """Post-processing of one testbed capture."""

    def __init__(self, capture: MeasurementCapture) -> None:
        self.capture = capture
        self._power = self._reconstruct_power()
        self._times = (np.arange(len(self._power))
                       / capture.sample_rate_hz)

    def _reconstruct_power(self) -> np.ndarray:
        total = None
        for rail in self.capture.rails:
            volts = rail.divider.voltage_from_output(rail.v_samples)
            amps = rail.monitor.current_from_output(rail.i_samples)
            power = volts * amps
            total = power if total is None else total + power
        if total is None:
            raise ValueError("capture has no rails")
        return total

    @property
    def power_waveform(self) -> np.ndarray:
        """Reconstructed card power at each DAQ sample (W)."""
        return self._power

    @property
    def times_s(self) -> np.ndarray:
        return self._times

    def window_average(self, start_s: float, end_s: float) -> float:
        """Mean measured power over [start, end) (W)."""
        mask = (self._times >= start_s) & (self._times < end_s)
        if not mask.any():
            raise ValueError("window contains no samples")
        return float(self._power[mask].mean())

    def kernel_measurements(self) -> List[KernelMeasurement]:
        """Average power and energy per kernel window."""
        out = []
        for w in self.capture.windows:
            avg = self.window_average(w.start_s, w.end_s)
            out.append(KernelMeasurement(
                name=w.name,
                avg_power_w=avg,
                energy_j=avg * w.duration_s,
                duration_s=w.duration_s,
                repeats=w.repeats,
            ))
        return out

    def kernel_power(self, name: str) -> float:
        """Average measured power of the kernel called ``name``."""
        for m in self.kernel_measurements():
            if m.name == name:
                return m.avg_power_w
        raise KeyError(f"no kernel window named {name!r}")

    def idle_power(self) -> float:
        """Measured power in the gaps between kernel executions."""
        if not self.capture.windows:
            return self.window_average(0.0, self.capture.duration_s)
        w = self.capture.windows[0]
        lead_in = max(w.start_s - 0.004, 0.0)
        return self.window_average(lead_in, w.start_s - 0.0005)
