"""Serial-vs-parallel equivalence: the harness's core guarantee.

The same campaign run with 1 worker and with a pool must produce
identical manifests (deterministic subset) and sample-for-sample
identical results — the property that makes golden-trace pinning and
cached re-runs trustworthy.
"""

from __future__ import annotations

import pytest

import repro.harness.synthetic  # noqa: F401  (registers "synthetic")
from repro.experiments.fleet_scale import FLEET_SCALE_CAMPAIGN, summarize_fleet_scale
from repro.experiments.monte_carlo import MONTE_CARLO_CAMPAIGN, result_from_campaign
from repro.harness.campaign import run_campaign
from repro.harness.manifest import deterministic_view


class TestSyntheticEquivalence:
    """Full 64-point grid, real pool fan-out."""

    @pytest.fixture(scope="class")
    def serial(self):
        return run_campaign("synthetic", grid="default", root_seed=123, workers=1)

    @pytest.fixture(scope="class")
    def parallel(self):
        return run_campaign("synthetic", grid="default", root_seed=123, workers=4)

    def test_fingerprints_identical(self, serial, parallel):
        assert serial.fingerprint == parallel.fingerprint

    def test_sample_for_sample_identical(self, serial, parallel):
        assert serial.results == parallel.results
        for a, b in zip(serial.records, parallel.records):
            assert a.index == b.index
            assert a.seed == b.seed
            assert a.config == b.config

    def test_deterministic_manifests_identical(self, serial, parallel):
        assert deterministic_view(serial.manifest) == deterministic_view(
            parallel.manifest
        )

    def test_parallel_run_used_pool_workers(self, parallel):
        workers = {record.worker for record in parallel.records}
        assert len(workers) > 1, f"expected pool fan-out, got {workers}"


class TestMonteCarloEquivalence:
    """The acceptance-criterion experiment, on the smoke grid."""

    def test_workers_1_and_4_agree(self):
        serial = run_campaign(
            MONTE_CARLO_CAMPAIGN, grid="smoke", root_seed=0, workers=1
        )
        parallel = run_campaign(
            MONTE_CARLO_CAMPAIGN, grid="smoke", root_seed=0, workers=4
        )
        assert serial.fingerprint == parallel.fingerprint
        assert serial.results == parallel.results
        a = result_from_campaign(serial)
        b = result_from_campaign(parallel)
        assert a.samples == b.samples
        assert a.mean_advantage == b.mean_advantage

    def test_legacy_api_serial_parallel_agree(self):
        from repro.experiments.monte_carlo import run_monte_carlo_fig5

        kwargs = dict(fault_times=(250.0,), soc_levels=(0.40,), seeds=(3, 7))
        assert (
            run_monte_carlo_fig5(workers=1, **kwargs).samples
            == run_monte_carlo_fig5(workers=2, **kwargs).samples
        )


class TestFleetScaleEquivalence:
    """Wall times stay out of the hashed results, so the 50-UAV
    assurance-smoke grid gives one fingerprint serially and on a pool."""

    def test_assurance_smoke_workers_1_and_2_agree(self):
        serial = run_campaign(
            FLEET_SCALE_CAMPAIGN, grid="assurance-smoke", root_seed=0, workers=1
        )
        parallel = run_campaign(
            FLEET_SCALE_CAMPAIGN, grid="assurance-smoke", root_seed=0, workers=2
        )
        assert serial.fingerprint == parallel.fingerprint
        assert serial.results == parallel.results
        for record in serial.records:
            assert record.timings["assurance"]["calls"] == (
                record.result["assurance_cycles"]
            )
            assert record.timings["simulate"]["total_s"] > 0.0
        assert "50" in summarize_fleet_scale(serial)
