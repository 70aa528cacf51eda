"""Shared result type for the circuit tier.

Every circuit model (SRAM array, CAM, crossbar, logic block, wire, clock
tree) reduces to the same interface: an area, a leakage power, and a set
of per-event energies keyed by operation name.  The architecture tier
composes these into components and applies activity counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping


@dataclass(frozen=True)
class CircuitEstimate:
    """Area / energy / leakage summary of one circuit structure.

    Attributes:
        name: Human-readable identifier (shows up in power profiles).
        area: Silicon area in m^2.
        energies: Per-event energies in joules, keyed by operation
            (e.g. ``"read"``, ``"write"``, ``"search"``, ``"transfer"``).
        leakage_w: Static (sub-threshold + gate) leakage power in watts.
    """

    name: str
    area: float
    energies: Mapping[str, float] = field(default_factory=dict)
    leakage_w: float = 0.0

    def energy(self, op: str) -> float:
        """Per-event energy for ``op`` in joules.

        Raises:
            KeyError: if the circuit does not define this operation.
        """
        return self.energies[op]

    def scaled(self, count: int, name: str | None = None) -> "CircuitEstimate":
        """Estimate for ``count`` identical copies of this circuit.

        Per-event energies are unchanged (an event hits one copy); area
        and leakage scale linearly.
        """
        return CircuitEstimate(
            name=name or f"{count}x {self.name}",
            area=self.area * count,
            energies=dict(self.energies),
            leakage_w=self.leakage_w * count,
        )


def energies_only(circuit: CircuitEstimate) -> CircuitEstimate:
    """Copy of ``circuit`` with zero area/leakage (per-access view).

    Useful when a structure's static side is counted once (e.g. under a
    ``scaled`` aggregate) but its per-access energies are still needed.
    """
    return CircuitEstimate(
        name=circuit.name,
        area=0.0,
        energies=dict(circuit.energies),
        leakage_w=0.0,
    )


def merge_estimates(name: str,
                    parts: list[CircuitEstimate]) -> CircuitEstimate:
    """Aggregate circuit estimates into one (areas and leakages add).

    Energies are merged by key; duplicate keys add, which is the right
    semantics when an architectural operation touches several circuit
    structures at once (e.g. a cache read touches tag and data arrays).
    """
    energies: Dict[str, float] = {}
    for part in parts:
        for op, joules in part.energies.items():
            energies[op] = energies.get(op, 0.0) + joules
    return CircuitEstimate(
        name=name,
        area=sum(p.area for p in parts),
        energies=energies,
        leakage_w=sum(p.leakage_w for p in parts),
    )
