"""Tests for the fleet layer: load generation, dispatch, ledgers,
conservation, and the degenerate single-chip equivalence.

The two load-bearing properties (ISSUE 9 acceptance criteria):

* **Conservation** -- the fleet rollup equals the sum of the per-GPU
  per-phase ledgers *bit-exactly* (not approximately), for every
  phase column, across seeds and fleet shapes.
* **Degenerate equivalence** -- a 1-GPU fleet's active energy equals
  the single-chip ``GPUSimPow`` energy for the same request stream,
  float for float.
"""

import json
import math

import pytest

from repro import GPUSimPow
from repro.fleet import (DiurnalCurve, FleetReport, FleetScenario,
                         TenantProfile, dispatch, generate_requests,
                         parse_gpu_spec, resolve_costs, run_scenario)
from repro.fleet.ledger import PHASES
from repro.sim import gt240
from repro.workloads import all_kernel_launches

#: Cheap scenario for pipeline tests: surrogate-resolved costs, small
#: trace, mixed fleet.
def small_scenario(**overrides):
    fields = dict(name="t", gpus=["GTX580", "GT240"], duration_s=3600.0,
                  n_requests=60, seed=7, error_budget=0.10)
    fields.update(overrides)
    return FleetScenario(**fields)


def flat_tenant(name="flat", mix=None, batch=1000, qps=1.0):
    return TenantProfile(name=name,
                         curve=DiurnalCurve(base_qps=qps, peak_qps=qps),
                         mix=mix or {"vectorAdd": 1.0}, batch=batch)


class TestLoadGenerator:
    def test_deterministic(self):
        tenants = [flat_tenant(), flat_tenant(name="other",
                                              mix={"scalarProd": 1.0})]
        a = generate_requests(tenants, 3600.0, 100, seed=3)
        b = generate_requests(tenants, 3600.0, 100, seed=3)
        assert [(r.arrival_s, r.tenant, r.kernel, r.batch) for r in a] \
            == [(r.arrival_s, r.tenant, r.kernel, r.batch) for r in b]

    def test_seed_changes_trace(self):
        tenants = [flat_tenant()]
        a = generate_requests(tenants, 3600.0, 50, seed=0)
        b = generate_requests(tenants, 3600.0, 50, seed=1)
        assert [r.arrival_s for r in a] != [r.arrival_s for r in b]

    def test_count_and_ordering(self):
        reqs = generate_requests([flat_tenant()], 3600.0, 77, seed=0)
        assert len(reqs) == 77
        assert [r.index for r in reqs] == list(range(77))
        arrivals = [r.arrival_s for r in reqs]
        assert arrivals == sorted(arrivals)
        assert all(0.0 <= t <= 3600.0 for t in arrivals)

    def test_rate_split_follows_integrated_rate(self):
        # 3:1 flat-rate tenants -> largest-remainder 3:1 request split.
        tenants = [flat_tenant(name="big", qps=3.0),
                   flat_tenant(name="small", qps=1.0)]
        reqs = generate_requests(tenants, 3600.0, 100, seed=0)
        big = sum(r.tenant == "big" for r in reqs)
        assert big == 75

    def test_diurnal_peak_clusters_arrivals(self):
        curve = DiurnalCurve(base_qps=0.1, peak_qps=5.0, peak_hour=12.0)
        tenant = TenantProfile(name="t", curve=curve,
                               mix={"vectorAdd": 1.0})
        reqs = generate_requests([tenant], 86400.0, 400, seed=0)
        near = sum(1 for r in reqs
                   if 8 * 3600 <= r.arrival_s <= 16 * 3600)
        assert near > 200  # a uniform spread would put ~133 there

    def test_duplicate_tenant_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            generate_requests([flat_tenant(), flat_tenant()], 10.0, 5)

    def test_mix_validation(self):
        with pytest.raises(ValueError, match="mix"):
            TenantProfile(name="x", mix={})
        with pytest.raises(ValueError, match="non-negative"):
            TenantProfile(name="x", mix={"vectorAdd": -1.0})


class TestGpuSpec:
    def test_counts_and_names(self):
        assert parse_gpu_spec("2xGTX580,GT240") == \
            ["GTX580", "GTX580", "GT240"]

    def test_star_separator_and_spaces(self):
        assert parse_gpu_spec(" 2 * gt240 ") == ["GT240", "GT240"]

    def test_unknown_preset(self):
        with pytest.raises(KeyError, match="unknown GPU preset"):
            parse_gpu_spec("3xRTX4090")

    def test_malformed(self):
        with pytest.raises(ValueError, match="bad GPU spec"):
            parse_gpu_spec("2x-GT240")

    def test_empty_spec(self):
        with pytest.raises(ValueError, match="names no GPUs"):
            parse_gpu_spec(" , ")


class TestDispatch:
    def test_queueing_under_overload(self):
        # One GPU, back-to-back arrivals, second must wait for first.
        tenant = flat_tenant(batch=10_000_000)
        reqs = generate_requests([tenant], 10.0, 4, seed=0)
        costs = resolve_costs([("GT240", "vectorAdd")],
                              error_budget=0.10, cache=None)
        schedule = dispatch(reqs, ["GT240"], costs)
        service = costs[("GT240", "vectorAdd")].runtime_s * 10_000_000
        assert service > 1.0  # overloaded by construction
        waits = [p.wait_s for p in schedule.placements]
        assert waits[0] == 0.0
        assert any(w > 0 for w in waits[1:])
        ends = [p.end_s for p in schedule.placements]
        assert ends == sorted(ends)

    def test_missing_cost_raises(self):
        reqs = generate_requests([flat_tenant()], 10.0, 2, seed=0)
        with pytest.raises(KeyError, match="no resolved cost"):
            dispatch(reqs, ["GT240"], {})


class TestConservation:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_rollup_is_bit_exact_sum_of_per_gpu_ledgers(self, seed):
        report = run_scenario(small_scenario(seed=seed), cache=None)
        ledger = report.ledger
        for phase in PHASES + ("active_j", "busy_s"):
            total = sum(getattr(g, phase) for g in ledger.gpus)
            assert getattr(ledger, phase) == total  # bit-exact, no tol
        assert ledger.total_j == sum(g.total_j for g in ledger.gpus)
        assert ledger.requests == sum(g.requests for g in ledger.gpus)

    def test_total_is_idle_plus_active(self):
        report = run_scenario(small_scenario(), cache=None)
        for g in report.ledger.gpus:
            assert g.total_j == g.idle_j + g.active_j

    def test_phase_attribution_is_exhaustive(self):
        # The remainder convention: phases re-sum to the active total
        # (to accumulation-order rounding, not bit-exactness).
        report = run_scenario(small_scenario(), cache=None)
        ledger = report.ledger
        resum = ledger.static_j + ledger.compute_j + ledger.memory_j
        assert resum == pytest.approx(ledger.active_j, rel=1e-12)


class TestDegenerateSingleChip:
    def test_one_gpu_fleet_matches_single_chip_energy_exactly(self):
        # Exact (cycle-backend) costs on a 1-GPU fleet: the ledger's
        # active energy must equal a per-request single-chip GPUSimPow
        # accumulation, float for float.
        tenants = [flat_tenant(mix={"vectorAdd": 2.0, "scalarProd": 1.0},
                               batch=500)]
        scenario = FleetScenario(name="degenerate", gpus=["GT240"],
                                 tenants=tenants, duration_s=600.0,
                                 n_requests=12, seed=2,
                                 error_budget=None)
        report = run_scenario(scenario, cache=None)

        sim = GPUSimPow(gt240())
        launches = all_kernel_launches()
        energy = {k: sim.run(launches[k]).energy_j
                  for k in ("vectorAdd", "scalarProd")}
        requests = generate_requests(tenants, 600.0, 12, seed=2)
        expected = 0.0
        for req in requests:
            expected += energy[req.kernel] * req.batch

        gpu, = report.ledger.gpus
        assert gpu.active_j == expected  # bit-exact
        assert report.ledger.active_j == expected

    def test_surrogate_costs_also_degenerate_exactly(self):
        # Same property through the ladder: whatever rung resolves the
        # costs, the fleet accumulation adds nothing of its own.
        scenario = FleetScenario(name="degenerate", gpus=["GTX580"],
                                 tenants=[flat_tenant(batch=1000)],
                                 duration_s=600.0, n_requests=10,
                                 seed=5, error_budget=0.10)
        report = run_scenario(scenario, cache=None)
        costs = resolve_costs([("GTX580", "vectorAdd")],
                              error_budget=0.10, cache=None)
        per_req = costs[("GTX580", "vectorAdd")].energy_j * 1000
        expected = 0.0
        for _ in range(10):
            expected += per_req
        assert report.ledger.active_j == expected


class TestScenarioAcceptance:
    def test_seeded_1000_request_scenario(self):
        # The ISSUE 9 acceptance scenario: 1000 requests, >= 4 virtual
        # GPUs, deterministic bill, >= 90% of requests resolved below
        # the cycle tier.
        scenario = FleetScenario(
            gpus=["GTX580", "GTX580", "GT240", "GT240"],
            n_requests=1000, error_budget=0.10)
        first = run_scenario(scenario, cache=None)
        second = run_scenario(scenario, cache=None)
        assert first.requests == 1000
        assert len(first.ledger.gpus) == 4
        assert first.kwh == second.kwh
        assert first.cost_usd == second.cost_usd
        assert first.co2_kg == second.co2_kg
        assert first.ledger.total_j == second.ledger.total_j
        assert first.sub_cycle_fraction >= 0.90

    def test_bill_arithmetic(self):
        report = run_scenario(small_scenario(pue=1.5), cache=None)
        scen = report.scenario
        assert report.kwh == \
            report.ledger.total_j * 1.5 / 3.6e6
        assert report.cost_usd == \
            report.kwh * scen["price_usd_per_kwh"]
        assert report.co2_kg == report.kwh * scen["co2_kg_per_kwh"]

    def test_idle_power_dominates_lightly_loaded_fleet(self):
        # The paper's thesis at fleet scale: provisioned-but-idle
        # chips, not kernels, drive the bill at low utilization (a
        # 4-GPU fleet serving 200 requests over a full day).
        scenario = FleetScenario(
            gpus=["GTX580", "GTX580", "GT240", "GT240"],
            n_requests=200, error_budget=0.10)
        report = run_scenario(scenario, cache=None)
        assert report.ledger.utilization < 0.5
        assert report.ledger.idle_j > report.ledger.active_j

    def test_scenario_validation(self):
        with pytest.raises(ValueError, match="duration_s"):
            small_scenario(duration_s=0.0)
        with pytest.raises(ValueError, match="n_requests"):
            small_scenario(n_requests=0)
        with pytest.raises(ValueError, match="error_budget"):
            small_scenario(error_budget=float("nan"))
        with pytest.raises(ValueError, match="error_budget"):
            small_scenario(error_budget=-0.1)
        with pytest.raises(ValueError, match="pue"):
            small_scenario(pue=float("inf"))
        with pytest.raises(KeyError, match="unknown GPU preset"):
            small_scenario(gpus=["TPU"])


class TestSerialization:
    def test_scenario_roundtrip(self):
        scenario = small_scenario()
        restored = FleetScenario.from_json(scenario.to_json())
        assert restored.to_dict() == scenario.to_dict()

    def test_scenario_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown FleetScenario"):
            FleetScenario.from_dict({"gpus": ["GT240"], "turbo": True})

    def test_report_roundtrip(self):
        report = run_scenario(small_scenario(), cache=None)
        restored = FleetReport.from_json(report.to_json())
        assert restored.to_dict() == report.to_dict()
        assert restored.kwh == report.kwh
        assert restored.ledger.total_j == report.ledger.total_j

    def test_report_json_is_plain_data(self):
        report = run_scenario(small_scenario(), cache=None)
        payload = json.loads(report.to_json())
        assert payload["ledger"]["requests"] == report.requests
        assert not math.isnan(payload["kwh"])

    def test_format_mentions_the_bill(self):
        report = run_scenario(small_scenario(), cache=None)
        text = report.format()
        assert "kWh" in text and "CO2" in text
        assert "$" in text


class TestProvenance:
    def test_exact_resolution_reports_cycle(self):
        report = run_scenario(small_scenario(
            n_requests=10, error_budget=None,
            tenants=[flat_tenant(batch=10)]), cache=None)
        assert set(report.backend_requests) == {"cycle"}
        assert report.sub_cycle_fraction == 0.0

    def test_budgeted_resolution_stays_sub_cycle(self):
        report = run_scenario(small_scenario(), cache=None)
        assert report.sub_cycle_fraction == 1.0
        assert sum(report.backend_requests.values()) == report.requests
