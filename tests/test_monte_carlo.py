"""Tests for the Fig. 5 Monte Carlo robustness study."""

import math

import pytest

import repro.experiments.fig5_battery as fig5
from repro.experiments.monte_carlo import (
    MONTE_CARLO_CAMPAIGN,
    monte_carlo_sample,
    run_monte_carlo_fig5,
)
from repro.harness.campaign import run_campaign
from repro.harness.timing import PhaseTimer

#: Fault placements no scenario can have; each must fail its sample.
BAD_FAULTS = [
    {"fault_time_s": math.nan, "soc_after_fault": 0.40},
    {"fault_time_s": -10.0, "soc_after_fault": 0.40},
    {"fault_time_s": 250.0, "soc_after_fault": math.nan},
    {"fault_time_s": 250.0, "soc_after_fault": -0.5},
    {"fault_time_s": 250.0, "soc_after_fault": 1.7},
]
BAD_FAULT_IDS = ["nan-onset", "negative-onset", "nan-soc", "negative-soc", "soc-above-1"]


@pytest.fixture(scope="module")
def mc_result():
    # Small grid keeps the test fast while exercising all sweep axes.
    return run_monte_carlo_fig5(
        fault_times=(250.0, 350.0), soc_levels=(0.40,), seeds=(3,)
    )


class TestMonteCarlo:
    def test_sample_count_matches_grid(self, mc_result):
        assert len(mc_result.samples) == 2

    def test_sesame_never_loses(self, mc_result):
        for sample in mc_result.samples:
            assert (
                sample.availability_with >= sample.availability_without - 1e-9
            )

    def test_positive_mean_advantage(self, mc_result):
        assert mc_result.mean_advantage > 0.0

    def test_win_rate_is_high(self, mc_result):
        assert mc_result.win_rate >= 0.5

    def test_scenario_constants_restored(self, mc_result):
        assert fig5.FAULT_TIME_S == 250.0
        assert fig5.SOC_AFTER_FAULT == 0.40
        with pytest.raises(ValueError):
            monte_carlo_sample(
                {"fault_time_s": 300.0, "soc_after_fault": 1.7, "seed": 3},
                0,
                PhaseTimer(),
            )
        assert fig5.FAULT_TIME_S == 250.0
        assert fig5.SOC_AFTER_FAULT == 0.40

    def test_samples_record_sweep_parameters(self, mc_result):
        fault_times = {s.fault_time_s for s in mc_result.samples}
        assert fault_times == {250.0, 350.0}


class TestBadFaultInputs:
    """A fault placement outside the scenario space fails its sample."""

    @pytest.mark.parametrize("batch", [False, True], ids=["inline", "batched"])
    @pytest.mark.parametrize("config", BAD_FAULTS, ids=BAD_FAULT_IDS)
    def test_campaign_record_fails(self, config, batch):
        campaign = run_campaign(
            MONTE_CARLO_CAMPAIGN, grid=[dict(config, seed=3)], batch=batch
        )
        (record,) = campaign.records
        assert record.status == "failed"
        assert record.error["type"] == "ValueError"
