"""Repeated-wire circuit model.

Long on-chip interconnect (NoC links, register-file to execution-unit
operand buses, cross-core wiring) is modeled as repeated wires: the energy
of a transfer is dominated by the wire capacitance plus the repeaters that
keep delay linear in length.
"""

from __future__ import annotations

from ..tech import TechNode
from .base import CircuitEstimate

#: Repeater capacitance adds roughly 60% on top of bare wire capacitance
#: for delay-optimal repeated wires (ITRS intermediate layer).
_REPEATER_CAP_FACTOR = 0.6

#: Average switching probability of a data wire per transfer (random data
#: toggles half the bits).
_DEFAULT_TOGGLE = 0.5


def repeated_wire(name: str, length_m: float, width_bits: int,
                  tech: TechNode,
                  toggle: float = _DEFAULT_TOGGLE) -> CircuitEstimate:
    """Bundle of ``width_bits`` repeated wires of ``length_m``.

    Defines ``"transfer"``: moving one ``width_bits``-wide word across the
    full length, with ``toggle`` of the bits switching.
    """
    if length_m < 0 or width_bits <= 0:
        raise ValueError("wire needs non-negative length and positive width")
    cap_per_wire = (length_m * tech.wire_cap_per_m
                    * (1.0 + _REPEATER_CAP_FACTOR))
    e_transfer = toggle * width_bits * tech.energy_cv2(cap_per_wire)
    # Repeaters leak: approximate one gate equivalent per 100 um per wire.
    repeaters = width_bits * max(0.0, length_m / 100e-6)
    leak = repeaters * 0.5 * tech.logic_gate_leak * tech.vdd
    # Wires live on metal above logic; only repeater area counts.
    area = repeaters * 0.5 * tech.logic_gate_area
    return CircuitEstimate(
        name=name,
        area=area,
        energies={"transfer": e_transfer},
        leakage_w=leak,
    )
