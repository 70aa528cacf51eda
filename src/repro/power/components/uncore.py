"""Uncore power components: NoC, memory controller, PCIe controller, L2.

The paper: "For NoC, MC, and PCIeC, we re-used the highly configurable
models already present in McPAT and adjusted their parameters to fit the
different requirements of a GPU."  We model them with the same split:
per-event energies for the traffic-proportional part, empirically
anchored static/constant terms for the always-on part (SerDes, PLLs,
router state).
"""

from __future__ import annotations

from ...sim.activity import ActivityReport
from ...sim.config import GPUConfig
from .. import calibration as cal
from .. import empirical
from ..tech import TechNode
from .base import Component, CircuitBackedComponent
from .cachemodel import cache_circuit


class NoCPower(Component):
    """Network-on-chip: cores <-> L2/memory partitions crossbar."""

    def __init__(self, config: GPUConfig, tech: TechNode) -> None:
        super().__init__("NoC", tech)
        self.config = config
        self.ports = config.n_cores + config.n_mem_partitions
        dyn = empirical.dynamic_scale(tech)
        stat = empirical.static_scale(tech)
        self.e_flit = cal.NOC_FLIT_ENERGY_J * dyn * cal.NOC_FLIT_ENERGY
        # Router clock trees tick while the chip runs, regardless of
        # traffic; McPAT's NoC model behaves the same way.
        self._active_w = (cal.NOC_ACTIVE_W_PER_PORT * self.ports * dyn
                          * (config.uncore_clock_hz / 550e6))
        self._leak = (cal.NOC_STATIC_W_PER_PORT * self.ports * stat
                      * cal.NOC_LEAKAGE)
        # Router + link area per port, scaled from a 0.21 mm^2 anchor.
        self._area = self.ports * 0.21e-6 * (tech.feature_nm / 40.0) ** 2

    def area_m2(self) -> float:
        return self._area

    def leakage_w(self) -> float:
        return self._leak

    def switching_w(self, act: ActivityReport) -> float:
        active = self._active_w if act.runtime_s > 0 else 0.0
        return active + self.event_power(act, [(act.noc_flits, self.e_flit)])

    def peak_dynamic_w(self) -> float:
        """Every partition port moving one flit per uncore cycle."""
        rate = self.config.uncore_clock_hz * self.config.n_mem_partitions
        return self._active_w + self.e_flit * rate


class MemoryControllerPower(Component):
    """GDDR5 memory controllers (scheduling, command issue, PHY launch)."""

    def __init__(self, config: GPUConfig, tech: TechNode) -> None:
        super().__init__("Memory Controller", tech)
        self.config = config
        dyn = empirical.dynamic_scale(tech)
        stat = empirical.static_scale(tech)
        self.e_access = cal.MC_ACCESS_ENERGY_J * dyn * cal.MC_ACCESS_ENERGY
        self._active_w = (cal.MC_ACTIVE_W_PER_PARTITION
                          * config.n_mem_partitions * dyn
                          * (config.dram_clock_hz / 850e6))
        self._leak = (cal.MC_STATIC_W_PER_PARTITION * config.n_mem_partitions
                      * stat * cal.MC_LEAKAGE)
        self._area = (config.n_mem_partitions * 1.9e-6
                      * (tech.feature_nm / 40.0) ** 2)

    def area_m2(self) -> float:
        return self._area

    def leakage_w(self) -> float:
        return self._leak

    def switching_w(self, act: ActivityReport) -> float:
        active = self._active_w if act.runtime_s > 0 else 0.0
        bursts = act.dram_reads + act.dram_writes
        return active + self.event_power(act, [(bursts, self.e_access)])

    def peak_dynamic_w(self) -> float:
        """All channels streaming bursts back to back."""
        cfg = self.config
        bursts_per_s = (cfg.dram_bandwidth_bytes_per_s
                        / cfg.dram_burst_bytes)
        return self._active_w + self.e_access * bursts_per_s


class PCIePower(Component):
    """PCI-Express controller and PHY.

    GPGPU kernels do not move PCIe traffic while executing, yet the
    trained link burns power continuously in its SerDes -- which is why
    Table V still shows ~1 W of "dynamic" PCIe power during blackscholes.
    We model a constant active-link power plus leakage, both per lane.
    """

    def __init__(self, config: GPUConfig, tech: TechNode) -> None:
        super().__init__("PCIe Controller", tech)
        self.config = config
        stat = empirical.static_scale(tech)
        dyn = empirical.dynamic_scale(tech)
        gen_scale = config.pcie_gen / 2.0
        self._leak = cal.PCIE_STATIC_W_PER_LANE * config.pcie_lanes * stat
        self._active = (cal.PCIE_ACTIVE_W_PER_LANE * config.pcie_lanes
                        * gen_scale * dyn)
        self._area = (config.pcie_lanes * 0.31e-6
                      * (tech.feature_nm / 40.0) ** 2)

    def area_m2(self) -> float:
        return self._area

    def leakage_w(self) -> float:
        return self._leak

    def switching_w(self, act: ActivityReport) -> float:
        # Link active the entire kernel; payload transfers add nothing
        # during kernel execution in our workloads.
        return self._active if act.runtime_s > 0 else 0.0

    def peak_dynamic_w(self) -> float:
        return self._active * 1.6  # saturated link with payload


class L2Power(CircuitBackedComponent):
    """Shared L2 cache (present on Fermi-class chips; Table II)."""

    def __init__(self, config: GPUConfig, tech: TechNode) -> None:
        per_bank = config.l2_size // config.n_mem_partitions
        circuits = {
            "bank": cache_circuit("l2_bank", per_bank, config.l2_line,
                                  config.l2_assoc, tech),
        }
        super().__init__("L2 Cache", tech, circuits,
                         copies=config.n_mem_partitions,
                         leakage_cal=cal.L2_LEAKAGE, area_cal=cal.AREA)
        self.config = config

    def switching_w(self, act: ActivityReport) -> float:
        bank = self.circuits["bank"]
        pairs = [
            (act.l2_reads, bank.energy("read")),
            (act.l2_writes + act.l2_misses, bank.energy("write")),
        ]
        return self.event_power(act, pairs) * cal.L2_ENERGY

    def peak_dynamic_w(self) -> float:
        bank = self.circuits["bank"]
        rate = self.config.uncore_clock_hz * self.copies
        return bank.energy("read") * rate * cal.L2_ENERGY
