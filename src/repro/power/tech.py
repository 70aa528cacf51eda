"""Technology tier of the GPGPU-Pow power model.

McPAT (and therefore GPUSimPow) is organized in three tiers: architecture,
circuit, and technology.  This module is the technology tier: it provides
the physical parameters -- supply voltage, device capacitances, leakage
current densities, wire parasitics, SRAM cell geometry -- for a given
process node, following the ITRS-roadmap style scaling McPAT uses.

All values are in SI units (volts, farads, amperes, meters) unless a name
says otherwise.  The absolute values are representative of published
ITRS/CACTI data for bulk CMOS high-performance devices; they are anchors
for a *relative* model, which is then pinned to measured data by the
empirical component models (see :mod:`repro.power.components.exec_units`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


#: Process nodes (nm) for which parameters are tabulated.  Other nodes are
#: obtained by log-linear interpolation between the nearest tabulated ones.
TABULATED_NODES = (90, 65, 45, 40, 32, 28, 22)


@dataclass(frozen=True)
class TechNode:
    """Physical parameters of one process node.

    Attributes:
        feature_nm: Drawn feature size in nanometers.
        vdd: Nominal supply voltage in volts.
        vth: Threshold voltage in volts.
        cap_gate_per_um: Gate capacitance per micron of transistor width (F).
        cap_drain_per_um: Drain/junction capacitance per micron of width (F).
        i_sub_per_um: Sub-threshold (off-state) leakage per micron of
            width at nominal temperature (A).
        i_gate_per_um: Gate-oxide tunnelling leakage per micron (A).
        wire_cap_per_m: Capacitance of an intermediate-layer wire (F/m).
        wire_res_per_m: Resistance of an intermediate-layer wire (ohm/m).
        sram_cell_factor: 6T SRAM cell area in units of F^2 (F = feature
            size); ~146 F^2 is typical for high-density cells.
        logic_gate_cap: Switched capacitance of one 2-input NAND gate
            equivalent, including local wiring (F).
        logic_gate_area: Area of one gate equivalent (m^2).
        logic_gate_leak: Leakage current of one gate equivalent (A).
        short_circuit_frac: Short-circuit power as a fraction of dynamic
            switching power (second term of Eq. 1 in the paper).
    """

    feature_nm: float
    vdd: float
    vth: float
    cap_gate_per_um: float
    cap_drain_per_um: float
    i_sub_per_um: float
    i_gate_per_um: float
    wire_cap_per_m: float
    wire_res_per_m: float
    sram_cell_factor: float
    logic_gate_cap: float
    logic_gate_area: float
    logic_gate_leak: float
    short_circuit_frac: float

    @property
    def feature_m(self) -> float:
        """Feature size in meters."""
        return self.feature_nm * 1e-9

    @property
    def sram_cell_area(self) -> float:
        """Area of a single 6T SRAM cell in m^2."""
        return self.sram_cell_factor * self.feature_m ** 2

    @property
    def sram_cell_cap(self) -> float:
        """Bit-cell capacitance presented to the bitline (F).

        Modeled as the drain capacitance of a minimum-width access
        transistor (width ~= 2 features).
        """
        return self.cap_drain_per_um * (2.0 * self.feature_nm * 1e-3)

    @property
    def sram_cell_leak(self) -> float:
        """Leakage current of one 6T SRAM cell (A).

        Two of the six transistors leak in a stable cell; cells use
        longer-channel, lower-leakage devices than logic (factor 0.3).
        """
        width_um = 2.0 * self.feature_nm * 1e-3
        per_transistor = (self.i_sub_per_um + self.i_gate_per_um) * width_um
        return 2.0 * 0.3 * per_transistor

    def energy_cv2(self, capacitance: float,
                   voltage_swing: float | None = None) -> float:
        """Energy to charge ``capacitance`` through a full/partial swing (J).

        This is the C * Vdd * dV term of Eq. 1 of the paper, expressed per
        switching event rather than per second.
        """
        swing = self.vdd if voltage_swing is None else voltage_swing
        return capacitance * self.vdd * swing


# Tabulated parameters.  Scaling between nodes follows classic Dennard-ish
# trends tempered per ITRS: Vdd shrinks slowly, leakage density grows, cap
# per um shrinks roughly linearly with feature size.
_TABLE = {
    90: TechNode(90, 1.20, 0.30, 1.00e-15, 0.60e-15, 60e-9, 10e-9,
                 230e-12, 1.8e5, 146.0, 3.2e-15, 5.6e-12, 45e-9, 0.10),
    65: TechNode(65, 1.10, 0.29, 0.85e-15, 0.52e-15, 90e-9, 25e-9,
                 240e-12, 2.7e5, 146.0, 2.1e-15, 2.9e-12, 60e-9, 0.10),
    45: TechNode(45, 1.05, 0.28, 0.72e-15, 0.45e-15, 130e-9, 45e-9,
                 250e-12, 4.2e5, 146.0, 1.35e-15, 1.45e-12, 78e-9, 0.10),
    40: TechNode(40, 1.02, 0.27, 0.68e-15, 0.42e-15, 150e-9, 55e-9,
                 255e-12, 4.9e5, 146.0, 1.15e-15, 1.15e-12, 86e-9, 0.10),
    32: TechNode(32, 0.98, 0.26, 0.60e-15, 0.37e-15, 180e-9, 70e-9,
                 265e-12, 6.5e5, 146.0, 0.88e-15, 0.76e-12, 98e-9, 0.10),
    28: TechNode(28, 0.95, 0.26, 0.55e-15, 0.34e-15, 200e-9, 80e-9,
                 270e-12, 7.6e5, 146.0, 0.75e-15, 0.60e-12, 105e-9, 0.10),
    22: TechNode(22, 0.90, 0.25, 0.48e-15, 0.30e-15, 230e-9, 95e-9,
                 280e-12, 9.8e5, 146.0, 0.58e-15, 0.38e-12, 118e-9, 0.10),
}


def tech_node(feature_nm: float) -> TechNode:
    """Return technology parameters for ``feature_nm``.

    Exact tabulated nodes are returned directly; other sizes are produced
    by log-linear interpolation between the two neighbouring tabulated
    nodes (the standard ITRS-roadmap scaling approach McPAT exposes).

    Raises:
        ValueError: if ``feature_nm`` lies outside the tabulated range.
    """
    if feature_nm in _TABLE:
        return _TABLE[feature_nm]
    nodes = sorted(TABULATED_NODES)
    if not nodes[0] <= feature_nm <= nodes[-1]:
        raise ValueError(
            f"process node {feature_nm} nm outside supported range "
            f"[{nodes[0]}, {nodes[-1]}] nm"
        )
    lo = max(n for n in nodes if n <= feature_nm)
    hi = min(n for n in nodes if n >= feature_nm)
    frac = ((math.log(feature_nm) - math.log(lo))
            / (math.log(hi) - math.log(lo)))
    a, b = _TABLE[lo], _TABLE[hi]

    def lerp(x: float, y: float) -> float:
        return x + (y - x) * frac

    return TechNode(
        feature_nm=feature_nm,
        vdd=lerp(a.vdd, b.vdd),
        vth=lerp(a.vth, b.vth),
        cap_gate_per_um=lerp(a.cap_gate_per_um, b.cap_gate_per_um),
        cap_drain_per_um=lerp(a.cap_drain_per_um, b.cap_drain_per_um),
        i_sub_per_um=lerp(a.i_sub_per_um, b.i_sub_per_um),
        i_gate_per_um=lerp(a.i_gate_per_um, b.i_gate_per_um),
        wire_cap_per_m=lerp(a.wire_cap_per_m, b.wire_cap_per_m),
        wire_res_per_m=lerp(a.wire_res_per_m, b.wire_res_per_m),
        sram_cell_factor=lerp(a.sram_cell_factor, b.sram_cell_factor),
        logic_gate_cap=lerp(a.logic_gate_cap, b.logic_gate_cap),
        logic_gate_area=lerp(a.logic_gate_area, b.logic_gate_area),
        logic_gate_leak=lerp(a.logic_gate_leak, b.logic_gate_leak),
        short_circuit_frac=lerp(a.short_circuit_frac, b.short_circuit_frac),
    )
