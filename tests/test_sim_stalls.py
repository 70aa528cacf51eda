"""Tests for the issue-stall attribution counters."""

import pytest

from repro.sim import gt240, simulate
from tests.conftest import build_tiny_core

REASONS = ("dependency", "unit_busy", "ldst_busy", "barrier", "empty")


class TestStallCounters:
    @pytest.fixture(scope="class")
    def activity(self, launches):
        return simulate(gt240(), launches["matrixMul"]).activity

    def test_counters_present_and_nonnegative(self, activity):
        for reason in REASONS:
            assert getattr(activity, f"stall_{reason}") >= 0

    def test_barrel_mode_dependency_dominated(self, activity):
        """Without a scoreboard every instruction blocks its warp until
        completion -- dependency stalls must dominate."""
        total = sum(getattr(activity, f"stall_{r}") for r in REASONS)
        assert total > 0
        assert activity.stall_dependency > 0.5 * total

    def test_barrier_stalls_only_with_barriers(self, launches):
        with_bar = simulate(gt240(), launches["scalarProd"]).activity
        without = simulate(gt240(), launches["vectorAdd"]).activity
        assert with_bar.stall_barrier > 0
        assert without.stall_barrier == 0

    def test_stalls_plus_busy_bounded_by_cycle_budget(self, activity):
        """A core is stepped at most once per cycle; busy plus attributed
        stall cycles cannot exceed the total core-cycle budget."""
        total_stalls = sum(getattr(activity, f"stall_{r}") for r in REASONS)
        budget = activity.shader_cycles * gt240().n_cores
        assert activity.core_busy_cycles + total_stalls <= budget * 1.01

    def test_scoreboard_reduces_dependency_share(self, launches):
        barrel = simulate(gt240(), launches["BlackScholes"]).activity
        sb = simulate(gt240().scaled(has_scoreboard=True),
                      launches["BlackScholes"]).activity

        def dep_share(act):
            total = sum(getattr(act, f"stall_{r}") for r in REASONS)
            return act.stall_dependency / total if total else 0.0

        # The scoreboard lets independent instructions of the same warp
        # proceed, shifting stalls from dependencies to busy units.
        assert dep_share(sb) < dep_share(barrel)


class TestSteppedTwiceAtOneCycle:
    """An epoch-barrier wake can land on a cycle the core already
    stepped at, so a core may be stepped twice at one ``now``."""

    def test_warp_that_just_issued_sleeps_one_cycle(self):
        now = 5.0
        core = build_tiny_core(has_scoreboard=True)
        scoreboard = core.wcu.scoreboard
        assert core.step(now) == now + 1.0
        assert core.issued == 1
        assert scoreboard.searches == 1
        # Again at the same cycle: the warp issued there, so it sleeps.
        assert core.step(now) == now + 1.0
        assert core.issued == 1
        assert scoreboard.searches == 1
        assert {r: n for r, n in core.stall_cycles.items() if n} == {
            "dependency": 1}
        core.step(now + 1.0)
        assert core.issued == 2   # the EXIT
