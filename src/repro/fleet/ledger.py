"""Per-GPU, per-phase energy ledgers and the fleet-wide rollup.

Each virtual GPU keeps a four-phase energy ledger over the scenario
horizon, in the phase-attributed accounting style of large-scale
production energy studies:

* ``idle_j`` -- card idle power times the seconds the GPU sat
  provisioned but unused (the "single chip causes massive power
  bills" term: a GTX580 card burns ~90 W doing nothing);
* ``static_j`` -- the leak floor paid *while serving* requests;
* ``memory_j`` -- dynamic energy of the memory path (NoC, memory
  controller, L2, external DRAM) while serving;
* ``compute_j`` -- the remainder of active energy (cores + PCIe
  dynamic), defined per request as ``active - static - memory`` so
  the attribution is exhaustive: every active joule lands in exactly
  one phase column (re-summing the columns reproduces ``active_j`` to
  within float accumulation order).

``active_j`` is the authoritative active-energy accumulator: the sum,
in dispatch order, of ``cost.energy_j * batch`` per request -- exactly
the arithmetic a single-chip :class:`~repro.core.gpusimpow.GPUSimPow`
run performs, which is what makes the 1-GPU degenerate scenario
reproduce the single-chip energy bit for bit.  The phase columns are
an attribution *of* that total, not a second estimate.

Conservation is by construction: the fleet rollup is *defined* as the
per-GPU sums taken in ``gpu_id`` order, so "sum of per-GPU per-phase
energy equals the fleet rollup" holds bit-exactly, always.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from ..serialize import Serializable
from .dispatch import DispatchResult

#: Ledger phase columns, rollup order.
PHASES = ("idle_j", "static_j", "compute_j", "memory_j")


@dataclass
class GPULedger(Serializable):
    """One virtual GPU's energy account over the scenario horizon.

    Attributes:
        gpu_id: Fleet position.
        gpu: Preset name.
        idle_w: Card idle power of the preset.
        horizon_s: Accounting window (scenario duration or the last
            completion, whichever is later -- shared fleet-wide).
        busy_s: Seconds spent serving requests.
        requests: Requests served.
        idle_j / static_j / compute_j / memory_j: The four phase
            columns (see module docstring).
        active_j: Authoritative active-energy total; the phase
            columns are its exhaustive attribution (equal up to float
            accumulation order, by the remainder convention).
    """

    gpu_id: int
    gpu: str
    idle_w: float
    horizon_s: float = 0.0
    busy_s: float = 0.0
    requests: int = 0
    idle_j: float = 0.0
    static_j: float = 0.0
    compute_j: float = 0.0
    memory_j: float = 0.0
    active_j: float = 0.0

    @property
    def idle_s(self) -> float:
        return max(0.0, self.horizon_s - self.busy_s)

    @property
    def utilization(self) -> float:
        return self.busy_s / self.horizon_s if self.horizon_s > 0 else 0.0

    @property
    def total_j(self) -> float:
        """Everything the GPU drew over the horizon."""
        return self.idle_j + self.active_j

    def charge(self, cost, batch: int, service_s: float) -> None:
        """Book one served request into the phase columns."""
        active = cost.energy_j * batch
        static = cost.static_w * service_s
        memory = cost.memory_w * service_s
        compute = active - static - memory
        self.busy_s += service_s
        self.requests += 1
        self.active_j += active
        self.static_j += static
        self.memory_j += memory
        self.compute_j += compute

    def settle(self, horizon_s: float) -> None:
        """Close the account: bill idle power for the unused seconds."""
        self.horizon_s = horizon_s
        self.idle_j = self.idle_w * self.idle_s

    def to_dict(self) -> Dict[str, Any]:
        return {
            "gpu_id": self.gpu_id,
            "gpu": self.gpu,
            "idle_w": self.idle_w,
            "horizon_s": self.horizon_s,
            "busy_s": self.busy_s,
            "idle_s": self.idle_s,
            "utilization": self.utilization,
            "requests": self.requests,
            "idle_j": self.idle_j,
            "static_j": self.static_j,
            "compute_j": self.compute_j,
            "memory_j": self.memory_j,
            "active_j": self.active_j,
            "total_j": self.total_j,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "GPULedger":
        return cls(
            gpu_id=int(data["gpu_id"]),
            gpu=str(data["gpu"]),
            idle_w=float(data["idle_w"]),
            horizon_s=float(data.get("horizon_s", 0.0)),
            busy_s=float(data.get("busy_s", 0.0)),
            requests=int(data.get("requests", 0)),
            idle_j=float(data.get("idle_j", 0.0)),
            static_j=float(data.get("static_j", 0.0)),
            compute_j=float(data.get("compute_j", 0.0)),
            memory_j=float(data.get("memory_j", 0.0)),
            active_j=float(data.get("active_j", 0.0)),
        )


@dataclass
class FleetLedger(Serializable):
    """Fleet-wide rollup: per-GPU ledgers plus their exact sums.

    Every total is the sum of the per-GPU column in ``gpu_id`` order --
    conservation is definitional, not approximate.
    """

    gpus: List[GPULedger] = field(default_factory=list)
    horizon_s: float = 0.0

    def _sum(self, attr: str) -> float:
        return sum(getattr(g, attr) for g in self.gpus)

    @property
    def idle_j(self) -> float:
        return self._sum("idle_j")

    @property
    def static_j(self) -> float:
        return self._sum("static_j")

    @property
    def compute_j(self) -> float:
        return self._sum("compute_j")

    @property
    def memory_j(self) -> float:
        return self._sum("memory_j")

    @property
    def active_j(self) -> float:
        return self._sum("active_j")

    @property
    def total_j(self) -> float:
        return self._sum("total_j")

    @property
    def busy_s(self) -> float:
        return self._sum("busy_s")

    @property
    def requests(self) -> int:
        return sum(g.requests for g in self.gpus)

    @property
    def utilization(self) -> float:
        cap = self.horizon_s * len(self.gpus)
        return self.busy_s / cap if cap > 0 else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "horizon_s": self.horizon_s,
            "idle_j": self.idle_j,
            "static_j": self.static_j,
            "compute_j": self.compute_j,
            "memory_j": self.memory_j,
            "active_j": self.active_j,
            "total_j": self.total_j,
            "busy_s": self.busy_s,
            "requests": self.requests,
            "utilization": self.utilization,
            "gpus": [g.to_dict() for g in self.gpus],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FleetLedger":
        return cls(
            gpus=[GPULedger.from_dict(g) for g in data.get("gpus", [])],
            horizon_s=float(data.get("horizon_s", 0.0)),
        )


def build_ledgers(schedule: DispatchResult, duration_s: float,
                  idle_w_by_preset: Dict[str, float]) -> FleetLedger:
    """Account a dispatched schedule into per-GPU ledgers + rollup.

    The shared horizon is ``max(duration_s, makespan)``: a backlog that
    drains past the scenario end still pays idle power on the GPUs that
    finished early, so every GPU is billed over the same window.
    """
    ledgers = [GPULedger(gpu_id=g.gpu_id, gpu=g.gpu,
                         idle_w=idle_w_by_preset[g.gpu])
               for g in schedule.gpus]
    for placement in schedule.placements:
        ledgers[placement.gpu_id].charge(placement.cost,
                                         placement.request.batch,
                                         placement.service_s)
    horizon = max(duration_s, schedule.makespan_s)
    for ledger in ledgers:
        ledger.settle(horizon)
    return FleetLedger(gpus=ledgers, horizon_s=horizon)
