"""The fleet scenario's aggregate power bill.

:class:`FleetReport` is the scenario's headline artifact: total energy
in kWh, the electricity bill in dollars, the CO2 footprint in kg, the
per-GPU ledgers behind them, and the ladder provenance of every number
(which backend tier answered each request's cost, and what error it
promised).  It serializes through the uniform ``to_dict``/``to_json``
like every other report in the repo, so ``gpusimpow fleet --json`` and
the ``fleet`` experiment archive the same structure CI asserts on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..serialize import Serializable
from .costs import KernelCost
from .ledger import FleetLedger

#: Joules per kilowatt-hour.
J_PER_KWH = 3.6e6

#: Ladder tier of the exact cycle backend; anything below it counts as
#: "sub-cycle" in the provenance summary.
CYCLE_TIER = 3


def _backend_tier(name: str) -> Optional[int]:
    """Ladder tier of a backend name (None for unknown/empty)."""
    if not name:
        return None
    from ..backends.base import BackendError, get_backend
    try:
        return get_backend(name).info.tier
    except BackendError:
        return None


@dataclass
class FleetReport(Serializable):
    """One scenario's complete power bill.

    Attributes:
        scenario: The scenario that produced this report (as its
            serialized dict -- the report must stay loadable even if
            scenario defaults evolve).
        ledger: Fleet-wide energy rollup with per-GPU accounts.
        costs: Every resolved ``(preset, kernel)`` cost, sorted.
        kwh: Facility energy over the horizon
            (``total_j * pue / 3.6e6``).
        cost_usd: ``kwh * price_usd_per_kwh``.
        co2_kg: ``kwh * co2_kg_per_kwh``.
        backend_requests: Requests answered per concrete backend name
            (ladder provenance, weighted by trace frequency).
        sub_cycle_fraction: Fraction of requests whose cost came from
            a tier below the exact cycle simulator.
        mean_wait_s / max_wait_s: Queueing delay over the trace.
        makespan_s: Completion time of the last request.
    """

    scenario: Dict[str, Any]
    ledger: FleetLedger
    costs: List[KernelCost] = field(default_factory=list)
    kwh: float = 0.0
    cost_usd: float = 0.0
    co2_kg: float = 0.0
    backend_requests: Dict[str, int] = field(default_factory=dict)
    sub_cycle_fraction: float = 0.0
    mean_wait_s: float = 0.0
    max_wait_s: float = 0.0
    makespan_s: float = 0.0

    @classmethod
    def assemble(cls, scenario, schedule, ledger: FleetLedger,
                 costs: Dict[Any, KernelCost]) -> "FleetReport":
        """Build the bill from a scenario's pipeline outputs."""
        kwh = ledger.total_j * scenario.pue / J_PER_KWH
        by_backend: Dict[str, int] = {}
        sub_cycle = 0
        for placement in schedule.placements:
            name = placement.cost.backend_used or "cycle"
            by_backend[name] = by_backend.get(name, 0) + 1
            tier = _backend_tier(name)
            if tier is not None and tier < CYCLE_TIER:
                sub_cycle += 1
        waits = [p.wait_s for p in schedule.placements]
        n = len(waits)
        return cls(
            scenario=scenario.to_dict(),
            ledger=ledger,
            costs=sorted(costs.values(),
                         key=lambda c: (c.gpu, c.kernel)),
            kwh=kwh,
            cost_usd=kwh * scenario.price_usd_per_kwh,
            co2_kg=kwh * scenario.co2_kg_per_kwh,
            backend_requests=dict(sorted(by_backend.items())),
            sub_cycle_fraction=(sub_cycle / n if n else 0.0),
            mean_wait_s=(sum(waits) / n if n else 0.0),
            max_wait_s=max(waits, default=0.0),
            makespan_s=schedule.makespan_s,
        )

    @property
    def requests(self) -> int:
        return self.ledger.requests

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": dict(self.scenario),
            "ledger": self.ledger.to_dict(),
            "costs": [c.to_dict() for c in self.costs],
            "kwh": self.kwh,
            "cost_usd": self.cost_usd,
            "co2_kg": self.co2_kg,
            "backend_requests": dict(self.backend_requests),
            "sub_cycle_fraction": self.sub_cycle_fraction,
            "mean_wait_s": self.mean_wait_s,
            "max_wait_s": self.max_wait_s,
            "makespan_s": self.makespan_s,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FleetReport":
        return cls(
            scenario=dict(data["scenario"]),
            ledger=FleetLedger.from_dict(data["ledger"]),
            costs=[KernelCost.from_dict(c) for c in data.get("costs", [])],
            kwh=float(data.get("kwh", 0.0)),
            cost_usd=float(data.get("cost_usd", 0.0)),
            co2_kg=float(data.get("co2_kg", 0.0)),
            backend_requests={str(k): int(v) for k, v in
                              data.get("backend_requests", {}).items()},
            sub_cycle_fraction=float(data.get("sub_cycle_fraction", 0.0)),
            mean_wait_s=float(data.get("mean_wait_s", 0.0)),
            max_wait_s=float(data.get("max_wait_s", 0.0)),
            makespan_s=float(data.get("makespan_s", 0.0)),
        )

    def format(self) -> str:
        """Human-readable bill for the CLI and the experiment table."""
        scen = self.scenario
        ledger = self.ledger
        lines = [
            f"fleet scenario {scen.get('name', 'fleet')!r}: "
            f"{self.requests} requests over "
            f"{ledger.horizon_s / 3600.0:.2f} h on "
            f"{len(ledger.gpus)} GPUs",
            "",
            f"{'gpu':>4s}  {'preset':<8s} {'util':>6s} {'reqs':>6s} "
            f"{'idle kWh':>9s} {'active kWh':>10s} {'total kWh':>9s}",
        ]
        for g in ledger.gpus:
            lines.append(
                f"{g.gpu_id:>4d}  {g.gpu:<8s} "
                f"{g.utilization * 100:5.1f}% {g.requests:>6d} "
                f"{g.idle_j / J_PER_KWH:>9.3f} "
                f"{g.active_j / J_PER_KWH:>10.3f} "
                f"{g.total_j / J_PER_KWH:>9.3f}")
        lines += [
            "",
            f"energy phases: idle {ledger.idle_j / J_PER_KWH:.3f} kWh, "
            f"static {ledger.static_j / J_PER_KWH:.3f} kWh, "
            f"compute {ledger.compute_j / J_PER_KWH:.3f} kWh, "
            f"memory {ledger.memory_j / J_PER_KWH:.3f} kWh",
            f"queueing: mean wait {self.mean_wait_s:.2f} s, "
            f"max wait {self.max_wait_s:.2f} s, "
            f"fleet utilization {ledger.utilization * 100:.1f}%",
            f"ladder: " + ", ".join(
                f"{name} x{count}" for name, count in
                self.backend_requests.items()) +
            f" ({self.sub_cycle_fraction * 100:.0f}% sub-cycle)",
            "",
            f"bill: {self.kwh:.3f} kWh  "
            f"(PUE {scen.get('pue', 1.0):g})  ->  "
            f"${self.cost_usd:.2f}  /  {self.co2_kg:.2f} kg CO2",
        ]
        return "\n".join(lines)
