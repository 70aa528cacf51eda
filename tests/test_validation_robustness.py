"""Robustness of the validation statistics across measurement noise.

The headline error numbers must come from the model discrepancy, not
from a lucky draw of sensor tolerances: re-running the testbed with
different manufactured channels and noise must leave the per-kernel
errors nearly unchanged.
"""

import pytest

from repro import gt240, validate_suite

SUBSET = ["BlackScholes", "vectorAdd", "matrixMul", "hotspot", "bfs2",
          "mergeSort1"]


@pytest.fixture(scope="module")
def suites():
    return [validate_suite(gt240(), kernel_names=SUBSET, seed=s)
            for s in (101, 202, 303)]


class TestSeedRobustness:
    def test_average_error_stable(self, suites):
        avgs = [s.average_relative_error for s in suites]
        assert max(avgs) - min(avgs) < 0.02

    def test_per_kernel_errors_stable(self, suites):
        for idx, name in enumerate(SUBSET):
            errs = [s.kernels[idx].relative_error for s in suites]
            assert max(errs) - min(errs) < 0.03, name

    def test_over_under_pattern_stable(self, suites):
        patterns = [
            tuple(k.overestimated for k in s.kernels) for s in suites
        ]
        assert len(set(patterns)) == 1

    def test_hardware_static_stable(self, suites):
        statics = [s.hardware_static_w for s in suites]
        assert max(statics) - min(statics) < 1.5

    def test_measured_values_do_vary(self, suites):
        """The noise is real -- measurements differ between testbeds."""
        totals = {round(s.kernels[0].measured_total_w, 6) for s in suites}
        assert len(totals) == 3
