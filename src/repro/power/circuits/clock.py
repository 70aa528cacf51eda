"""Clock distribution network model.

The clock tree toggles every cycle regardless of instruction activity, so
it contributes a large, nearly workload-independent dynamic floor -- McPAT
models it per hierarchy level; we model one network per clock domain,
sized by the area it spans and the number of latching endpoints.
"""

from __future__ import annotations

import math

from ..tech import TechNode
from .base import CircuitEstimate

#: Fraction of registered endpoints that are clock-gated off on an
#: average cycle.  Modern GPUs gate aggressively; the ungated fraction
#: still toggles every cycle.
_UNGATED_FRACTION = 0.35

#: Wire length of an H-tree spanning a square of area A is ~3*sqrt(A).
_HTREE_LENGTH_FACTOR = 3.0

#: Clock load of one flip-flop endpoint in gate equivalents.
_ENDPOINT_GATE_EQ = 0.8


def clock_network(name: str, spanned_area_m2: float, endpoints: float,
                  tech: TechNode) -> CircuitEstimate:
    """Clock tree over ``spanned_area_m2`` driving ``endpoints`` flops.

    Defines ``"cycle"``: the energy of one clock tick -- the H-tree trunk
    always switches; the ungated fraction of endpoint loads switches with
    it.  Callers convert to power with the domain's clock frequency.
    """
    if spanned_area_m2 < 0 or endpoints < 0:
        raise ValueError("clock network needs non-negative area/endpoints")
    tree_len = _HTREE_LENGTH_FACTOR * math.sqrt(max(spanned_area_m2, 0.0))
    tree_cap = tree_len * tech.wire_cap_per_m * 1.6  # shielded, repeated
    endpoint_cap = endpoints * _ENDPOINT_GATE_EQ * tech.logic_gate_cap
    # The tree itself is never gated; endpoints partially are.
    e_cycle = (tech.energy_cv2(tree_cap)
               + _UNGATED_FRACTION * tech.energy_cv2(endpoint_cap))

    buffers = max(1.0, tree_len / 200e-6) * 4.0
    leak = buffers * tech.logic_gate_leak * tech.vdd
    area = buffers * tech.logic_gate_area
    return CircuitEstimate(
        name=name,
        area=area,
        energies={"cycle": e_cycle},
        leakage_w=leak,
    )
