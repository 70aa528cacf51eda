"""Chip representation: the component tree of GPGPU-Pow.

Mirrors the architectural breakdown of Section III-C: a GPU chip is a
collection of cores (each: WCU, register file, execution units, LDSTU,
plus empirical base/undifferentiated power), a NoC, memory controllers,
a PCIe controller, optionally a shared L2, and the external GDDR5 DRAM.

Given a :class:`~repro.sim.config.GPUConfig` this class reports
architecture statistics (area, leakage, peak dynamic power) and, given an
:class:`~repro.sim.activity.ActivityReport`, the runtime power profile.
"""

from __future__ import annotations

from typing import Dict, List

from ..sim.activity import ActivityReport
from ..sim.config import GPUConfig
from .components.base import Component
from .components.basepower import (ClusterBasePower, CoreBasePower,
                                   UndiffCorePower)
from .components.dram import DRAMPower
from .components.exec_units import ExecutionUnitsPower
from .components.ldst import LDSTPower
from .components.regfile import RegisterFilePower
from .components.uncore import (L2Power, MemoryControllerPower, NoCPower,
                                PCIePower)
from .components.wcu import WCUPower
from .result import PowerNode, PowerReport
from .tech import tech_node


class Chip:
    """A GPU chip's power/area model instance."""

    def __init__(self, config: GPUConfig) -> None:
        self.config = config
        self.tech = tech_node(config.process_nm)
        t = self.tech
        self.core_components: List[Component] = [
            CoreBasePower(config, t),
            ClusterBasePower(config, t),
            WCUPower(config, t),
            RegisterFilePower(config, t),
            ExecutionUnitsPower(config, t),
            LDSTPower(config, t),
            UndiffCorePower(config, t),
        ]
        self.uncore_components: List[Component] = [
            NoCPower(config, t),
            MemoryControllerPower(config, t),
            PCIePower(config, t),
        ]
        if config.has_l2:
            self.uncore_components.append(L2Power(config, t))
        self.dram = DRAMPower(config, t)

    # -- architecture statistics (workload independent) -----------------------

    def area_mm2(self) -> float:
        """Total modeled chip area in mm^2."""
        parts = self.core_components + self.uncore_components
        return sum(c.area_m2() for c in parts) * 1e6

    def static_power_w(self) -> float:
        """Total chip leakage power in watts."""
        parts = self.core_components + self.uncore_components
        return sum(c.leakage_w() for c in parts)

    def peak_dynamic_w(self) -> float:
        """Chip peak dynamic power (all components at maximum activity)."""
        parts = self.core_components + self.uncore_components
        scc = 1.0 + self.tech.short_circuit_frac
        return sum(c.peak_dynamic_w() for c in parts) * scc

    # -- runtime evaluation ---------------------------------------------------

    def evaluate(self, activity: ActivityReport) -> PowerReport:
        """Produce the full power profile for one kernel's activity."""
        cores = PowerNode(name="Cores")
        for comp in self.core_components:
            cores.children.append(comp.node(activity))
        gpu = PowerNode(name="GPU")
        gpu.children.append(cores)
        for comp in self.uncore_components:
            gpu.children.append(comp.node(activity))
        dram = self.dram.node(activity)
        return PowerReport(gpu=gpu, dram=dram, runtime_s=activity.runtime_s)

    def idle_activity(self, duration_s: float = 1.0) -> ActivityReport:
        """An all-zero activity window (for idle/static evaluations)."""
        act = ActivityReport()
        act.runtime_s = duration_s
        act.shader_cycles = duration_s * self.config.shader_clock_hz
        return act

    def component_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-component leakage/area table (workload independent)."""
        summary: Dict[str, Dict[str, float]] = {}
        for comp in self.core_components + self.uncore_components:
            summary[comp.name] = {
                "leakage_w": comp.leakage_w(),
                "area_mm2": comp.area_m2() * 1e6,
                "peak_dynamic_w": comp.peak_dynamic_w(),
            }
        return summary
