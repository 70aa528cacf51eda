"""Architecture-tier component base class.

A component aggregates circuit estimates into something the chip
representation can query: area, leakage, peak dynamic power, and --
given the performance simulator's :class:`~repro.sim.activity.ActivityReport`
-- runtime dynamic power.  Short-circuit power (second term of Eq. 1) is
applied here as a technology-defined fraction of switching power, so
every ``dynamic`` figure below already includes it.
"""

from __future__ import annotations

import abc
from typing import Iterable, Mapping, Tuple

from ...sim.activity import ActivityReport
from ..result import PowerNode
from ..tech import TechNode
from ..circuits.base import CircuitEstimate


class Component(abc.ABC):
    """One architectural component of the modeled GPU."""

    def __init__(self, name: str, tech: TechNode) -> None:
        self.name = name
        self.tech = tech

    # -- architecture-independent ---------------------------------------------

    @abc.abstractmethod
    def area_m2(self) -> float:
        """Total silicon area of this component across the chip (m^2)."""

    @abc.abstractmethod
    def leakage_w(self) -> float:
        """Total leakage power across the chip (W)."""

    @abc.abstractmethod
    def peak_dynamic_w(self) -> float:
        """Dynamic power at theoretical peak activity (W), pre
        short-circuit uplift."""

    # -- per-kernel -----------------------------------------------------------

    @abc.abstractmethod
    def switching_w(self, act: ActivityReport) -> float:
        """Average switching power over the kernel (W), pre short-circuit."""

    # -- derived --------------------------------------------------------------

    def runtime_dynamic_w(self, act: ActivityReport) -> float:
        """Runtime dynamic power including short-circuit power."""
        return self.switching_w(act) * (1.0 + self.tech.short_circuit_frac)

    def node(self, act: ActivityReport) -> PowerNode:
        """Render this component as a power-tree node."""
        return PowerNode(
            name=self.name,
            static_w=self.leakage_w(),
            dynamic_w=self.runtime_dynamic_w(act),
            peak_dynamic_w=self.peak_dynamic_w()
            * (1.0 + self.tech.short_circuit_frac),
            area_mm2=self.area_m2() * 1e6,
        )

    # -- helpers --------------------------------------------------------------

    @staticmethod
    def event_power(act: ActivityReport,
                    pairs: Iterable[Tuple[float, float]]) -> float:
        """Sum of count*energy pairs divided by runtime -> watts."""
        if act.runtime_s <= 0:
            return 0.0
        total = sum(count * energy for count, energy in pairs)
        return total / act.runtime_s


class CircuitBackedComponent(Component):
    """Component whose static/area side is a sum of circuit estimates."""

    def __init__(self, name: str, tech: TechNode,
                 circuits: Mapping[str, CircuitEstimate],
                 copies: int = 1,
                 leakage_cal: float = 1.0,
                 area_cal: float = 1.0) -> None:
        super().__init__(name, tech)
        self.circuits = dict(circuits)
        self.copies = copies
        self.leakage_cal = leakage_cal
        self.area_cal = area_cal

    def area_m2(self) -> float:
        return (sum(c.area for c in self.circuits.values())
                * self.copies * self.area_cal)

    def leakage_w(self) -> float:
        return (sum(c.leakage_w for c in self.circuits.values())
                * self.copies * self.leakage_cal)
