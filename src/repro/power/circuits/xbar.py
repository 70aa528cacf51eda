"""Matrix crossbar circuit model.

Crossbars appear three times in the paper's architecture: connecting
register-file banks to operand collectors, connecting threads to shared
memory banks (address and data crossbars), and as the on-chip network
between cores and L2/memory partitions.  We model a matrix crossbar:
``inputs`` horizontal buses crossing ``outputs`` vertical buses with a
pass-gate at each crosspoint.
"""

from __future__ import annotations

import math

from ..tech import TechNode
from .base import CircuitEstimate
from .wires import repeated_wire


def crossbar(name: str, inputs: int, outputs: int, width_bits: int,
             tech: TechNode,
             port_length_m: float | None = None) -> CircuitEstimate:
    """Model an ``inputs`` x ``outputs`` crossbar of ``width_bits`` buses.

    Defines ``"transfer"``: one word moved from one input to one output
    (drives one full horizontal bus and one full vertical bus plus the
    crosspoint switches on the path).

    Args:
        port_length_m: Physical pitch of one port; defaults to a
            width-dependent estimate (wide buses need taller ports).
    """
    if inputs <= 0 or outputs <= 0 or width_bits <= 0:
        raise ValueError("crossbar needs positive inputs/outputs/width")
    if port_length_m is None:
        # Each port occupies roughly width_bits wire tracks at 4F pitch.
        port_length_m = width_bits * 4.0 * tech.feature_m * 8.0

    horiz_len = outputs * port_length_m
    vert_len = inputs * port_length_m

    in_bus = repeated_wire(f"{name}.inbus", horiz_len, width_bits, tech)
    out_bus = repeated_wire(f"{name}.outbus", vert_len, width_bits, tech)

    # Crosspoint switches: every crosspoint on the two driven buses loads
    # them with a pass-gate's drain cap; the selected one also switches.
    pass_gate_cap = tech.cap_drain_per_um * (4.0 * tech.feature_nm * 1e-3)
    loading = ((inputs + outputs) * width_bits * 0.5
               * tech.energy_cv2(pass_gate_cap))
    e_transfer = (in_bus.energy("transfer") + out_bus.energy("transfer")
                  + loading)

    # Arbitration: per-output round-robin arbiter over inputs.
    arb_gates = (outputs * inputs * 2.0
                 + outputs * math.log2(max(2, inputs)) * 4.0)
    arb_area = arb_gates * tech.logic_gate_area
    arb_leak = arb_gates * tech.logic_gate_leak * tech.vdd
    e_arb = 0.3 * inputs * tech.energy_cv2(tech.logic_gate_cap)

    crosspoints = inputs * outputs * width_bits
    xpoint_area = crosspoints * 3.0 * tech.feature_m ** 2 * 64.0
    xpoint_leak = crosspoints * 0.1 * tech.logic_gate_leak * tech.vdd

    return CircuitEstimate(
        name=name,
        area=(in_bus.area * inputs + out_bus.area * outputs + arb_area
              + xpoint_area),
        energies={"transfer": e_transfer + e_arb, "arbitrate": e_arb},
        leakage_w=(in_bus.leakage_w * inputs + out_bus.leakage_w * outputs
                   + arb_leak + xpoint_leak),
    )
