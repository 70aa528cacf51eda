"""Fleet scenario description and the end-to-end runner.

A :class:`FleetScenario` is the complete, serializable description of
one fleet-power question: which GPUs, which tenants, how many requests
over how long, which error budget, and the billing factors.  Running
one is a fixed pipeline::

    generate_requests -> resolve_costs (backend="auto") -> dispatch
        -> build_ledgers -> FleetReport

Every stage is deterministic given the scenario, so the same scenario
produces the identical kWh/$/CO2 report on every run -- the property
the CI fleet job asserts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from math import isfinite
from typing import Any, Callable, Dict, List, Optional

from ..serialize import Serializable
from ..sim.config import preset
from .costs import idle_card_w, resolve_costs
from .dispatch import dispatch
from .ledger import build_ledgers
from .load import (DiurnalCurve, TenantProfile, generate_requests)
from .report import FleetReport

#: Default electricity price (US industrial average ballpark), $/kWh.
DEFAULT_PRICE_USD_PER_KWH = 0.12

#: Default grid carbon intensity, kg CO2 per kWh.
DEFAULT_CO2_KG_PER_KWH = 0.40

#: Default datacenter power-usage-effectiveness multiplier (1.0 =
#: bill the IT load only; set ~1.5 to include cooling/distribution).
DEFAULT_PUE = 1.0

_GPU_SPEC_RE = re.compile(r"^(?:(\d+)\s*[x*]\s*)?([A-Za-z0-9_]+)$")


def parse_gpu_spec(spec: str) -> List[str]:
    """``"2xGTX580,2xGT240"`` -> ``["GTX580", "GTX580", "GT240",
    "GT240"]`` -- one validated preset name per virtual GPU."""
    gpus: List[str] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        match = _GPU_SPEC_RE.match(part)
        if not match:
            raise ValueError(f"bad GPU spec part {part!r}; expected "
                             f"NAME or COUNTxNAME, e.g. 2xGTX580")
        count = int(match.group(1) or 1)
        if count < 1:
            raise ValueError(f"GPU count must be >= 1 in {part!r}")
        name = preset(match.group(2)).name  # validates + canonicalizes
        gpus.extend([name] * count)
    if not gpus:
        raise ValueError(f"GPU spec {spec!r} names no GPUs")
    return gpus


def default_tenants() -> List[TenantProfile]:
    """The stock two-tenant mix: a daytime interactive service over
    light kernels and a nighttime batch pipeline over the heavy ones."""
    return [
        TenantProfile(
            name="interactive",
            curve=DiurnalCurve(base_qps=0.3, peak_qps=2.0, peak_hour=14.0),
            mix={"vectorAdd": 3.0, "scalarProd": 2.0, "BlackScholes": 1.0},
            batch=2_000_000,
        ),
        TenantProfile(
            name="batch",
            curve=DiurnalCurve(base_qps=1.0, peak_qps=1.5, peak_hour=2.0),
            mix={"matrixMul": 2.0, "hotspot": 1.0, "pathfinder": 1.0},
            batch=20_000_000,
        ),
    ]


@dataclass
class FleetScenario(Serializable):
    """One fleet-power question, fully described.

    Attributes:
        name: Scenario label (report/filename stem).
        gpus: One preset name per virtual GPU.
        tenants: Traffic sources (see :class:`TenantProfile`).
        duration_s: Scenario length in seconds (default one day).
        n_requests: Total requests in the trace.
        seed: Load-generator seed.
        error_budget: |chip-power| relative error budget steering
            ``backend="auto"`` cost resolution; ``None`` = exact.
        price_usd_per_kwh / co2_kg_per_kwh: Billing factors.
        pue: Facility multiplier applied to the IT energy.
    """

    name: str = "fleet"
    gpus: List[str] = field(default_factory=lambda: ["GTX580"])
    tenants: List[TenantProfile] = field(default_factory=default_tenants)
    duration_s: float = 86400.0
    n_requests: int = 1000
    seed: int = 0
    error_budget: Optional[float] = 0.10
    price_usd_per_kwh: float = DEFAULT_PRICE_USD_PER_KWH
    co2_kg_per_kwh: float = DEFAULT_CO2_KG_PER_KWH
    pue: float = DEFAULT_PUE

    def __post_init__(self) -> None:
        if not self.gpus:
            raise ValueError("scenario needs at least one GPU")
        self.gpus = [preset(name).name for name in self.gpus]
        if not self.tenants:
            raise ValueError("scenario needs at least one tenant")
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be positive, "
                             f"got {self.duration_s!r}")
        if self.n_requests < 1:
            raise ValueError(f"n_requests must be >= 1, "
                             f"got {self.n_requests!r}")
        if self.error_budget is not None and (
                not isfinite(self.error_budget)
                or not 0.0 <= self.error_budget <= 1.0):
            raise ValueError(f"error_budget must be a finite fraction in "
                             f"[0, 1], got {self.error_budget!r}")
        for factor in ("price_usd_per_kwh", "co2_kg_per_kwh", "pue"):
            value = getattr(self, factor)
            if not (isfinite(value) and value >= 0):
                raise ValueError(f"{factor} must be finite and "
                                 f">= 0, got {value!r}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "gpus": list(self.gpus),
            "tenants": [t.to_dict() for t in self.tenants],
            "duration_s": self.duration_s,
            "n_requests": self.n_requests,
            "seed": self.seed,
            "error_budget": self.error_budget,
            "price_usd_per_kwh": self.price_usd_per_kwh,
            "co2_kg_per_kwh": self.co2_kg_per_kwh,
            "pue": self.pue,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FleetScenario":
        known = {"name", "gpus", "tenants", "duration_s", "n_requests",
                 "seed", "error_budget", "price_usd_per_kwh",
                 "co2_kg_per_kwh", "pue"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown FleetScenario keys: "
                             f"{sorted(unknown)}")
        kwargs: Dict[str, Any] = {}
        if "name" in data:
            kwargs["name"] = str(data["name"])
        if "gpus" in data:
            kwargs["gpus"] = [str(g) for g in data["gpus"]]
        if "tenants" in data:
            kwargs["tenants"] = [TenantProfile.from_dict(t)
                                 for t in data["tenants"]]
        for key in ("duration_s", "price_usd_per_kwh",
                    "co2_kg_per_kwh", "pue"):
            if key in data:
                kwargs[key] = float(data[key])
        for key in ("n_requests", "seed"):
            if key in data:
                kwargs[key] = int(data[key])
        if "error_budget" in data:
            kwargs["error_budget"] = (None if data["error_budget"] is None
                                      else float(data["error_budget"]))
        return cls(**kwargs)


def run_scenario(scenario: FleetScenario,
                 n_jobs: Optional[int] = None,
                 cache: Any = "auto",
                 progress: Optional[Callable] = None,
                 timeout_s: Optional[float] = None) -> FleetReport:
    """Execute one scenario end to end; returns its power bill.

    Simulation effort is bounded by the number of distinct
    ``(preset, kernel)`` pairs, not the trace length -- the resolved
    costs are shared across every request that references them.
    """
    requests = generate_requests(scenario.tenants, scenario.duration_s,
                                 scenario.n_requests, scenario.seed)
    fleet_presets = sorted(set(scenario.gpus))
    kernels = sorted({r.kernel for r in requests})
    pairs = [(gpu, kernel) for gpu in fleet_presets for kernel in kernels]
    costs = resolve_costs(pairs, error_budget=scenario.error_budget,
                          n_jobs=n_jobs, cache=cache, progress=progress,
                          timeout_s=timeout_s)
    schedule = dispatch(requests, scenario.gpus, costs)
    idle_w = {name: idle_card_w(preset(name)) for name in fleet_presets}
    ledger = build_ledgers(schedule, scenario.duration_s, idle_w)
    return FleetReport.assemble(scenario, schedule, ledger, costs)
