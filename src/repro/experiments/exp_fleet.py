"""Fleet-scale power bill (the "massive power bills" headline).

Runs the stock diurnal scenario -- two tenants, 1000 requests over one
24 h cycle, a mixed 2xGTX580 + 2xGT240 fleet -- through
:func:`repro.fleet.run_scenario` with the default 10% error budget, so
every per-kernel cost resolves on the accuracy ladder's cheapest
fitting rung.  The rendered table is the scenario's bill (kWh, $, kg
CO2 with the idle/static/compute/memory phase split); the JSON
artifact (``fleet.json``) is what the ``fleet`` CI job asserts
determinism on and archives.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Optional

from ..fleet import FleetReport, FleetScenario, run_scenario
from ..runner.engine import AUTO

from . import base

#: The stock scenario the experiment (and the CI job) runs.
SCENARIO = dict(name="fleet", gpus=["GTX580", "GTX580", "GT240", "GT240"],
                duration_s=86400.0, n_requests=1000, seed=0,
                error_budget=0.10)


def run(jobs: Optional[int] = None, cache=AUTO,
        progress=None) -> FleetReport:
    scenario = FleetScenario(**SCENARIO)
    return run_scenario(scenario, n_jobs=jobs, cache=cache,
                        progress=progress)


def format_table(report: FleetReport) -> str:
    return report.format()


def write_report(report: FleetReport, out_dir: Path) -> List[Path]:
    """Write the machine-readable fleet bill (CI artifact)."""
    path = Path(out_dir) / "fleet.json"
    path.write_text(json.dumps(report.to_dict(), indent=2,
                               sort_keys=True) + "\n", encoding="utf-8")
    return [path]


EXPERIMENT = base.register(base.Experiment(
    name="fleet",
    description="fleet-scale diurnal scenario: per-GPU energy ledgers "
                "rolled up to a kWh / $ / CO2 bill",
    compute=run,
    render=format_table,
    artifacts=write_report,
))


if __name__ == "__main__":
    EXPERIMENT.run(echo=True)
