"""Tests for the statistical power model and the Section II comparison."""

import pytest

from repro.core.statmodel import (FEATURES, StatisticalPowerModel,
                                  evaluate_statistical, feature_vector)
from repro.experiments import exp_statmodel
from repro.sim import gt240, gtx580
from repro.sim.activity import ActivityReport


class TestFeatureVector:
    def test_intercept_first(self):
        act = ActivityReport()
        act.runtime_s = 1.0
        vec = feature_vector(act)
        assert vec[0] == 1.0
        assert len(vec) == len(FEATURES) + 1

    def test_rates_not_counts(self):
        act = ActivityReport()
        act.runtime_s = 2.0
        act.fp_ops = 10.0
        vec = feature_vector(act)
        idx = 1 + FEATURES.index("fp_ops")
        assert vec[idx] == 5.0


@pytest.fixture(scope="module")
def trained_model():
    return StatisticalPowerModel.fit(gt240(),
                                     exp_statmodel.TRAIN_KERNELS,
                                     seed=41)


class TestFit:
    def test_training_metadata(self, trained_model):
        assert trained_model.trained_on == "GT240"
        assert len(trained_model.training_kernels) == \
            len(exp_statmodel.TRAIN_KERNELS)

    def test_intercept_near_idle_power(self, trained_model):
        """The constant term absorbs static + idle power (~20-30 W)."""
        assert 10 < trained_model.weights[0] < 35

    def test_accurate_on_training_card(self, trained_model):
        ev = evaluate_statistical(trained_model, gt240(),
                                  exp_statmodel.HELDOUT_KERNELS)
        assert ev.average_error < 0.08

    def test_fails_to_transfer(self, trained_model):
        """The paper's Section II claim: measured models lack 'the
        capability to make accurate predictions about GPUs with other
        architectural parameters'."""
        ev = evaluate_statistical(trained_model, gtx580(),
                                  exp_statmodel.HELDOUT_KERNELS)
        assert ev.average_error > 0.4

    def test_prediction_is_scalar_watts(self, trained_model):
        act = ActivityReport()
        act.runtime_s = 1e-4
        act.fp_ops = 1e6
        p = trained_model.predict(act)
        assert isinstance(p, float)
        assert 0 < p < 200


class TestComparisonExperiment:
    @pytest.fixture(scope="class")
    def comparison(self):
        return exp_statmodel.run()

    def test_statistical_wins_at_home(self, comparison):
        assert (comparison.stat_heldout_gt240.average_error
                < comparison.gpusimpow_gt240.average_error)

    def test_gpusimpow_wins_on_transfer(self, comparison):
        assert (comparison.gpusimpow_gtx580.average_error
                < 0.5 * comparison.stat_transfer_gtx580.average_error)

    def test_gpusimpow_consistent_across_cards(self, comparison):
        a = comparison.gpusimpow_gt240.average_error
        b = comparison.gpusimpow_gtx580.average_error
        assert abs(a - b) < 0.08

    def test_format(self, comparison):
        text = exp_statmodel.format_table(comparison)
        assert "statistical" in text and "GPUSimPow" in text
