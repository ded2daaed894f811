"""Unit tests for the SafeDrones component models and runtime monitor."""

import numpy as np
import pytest

from repro.safedrones.arrangement import ArrangementAnalysis
from repro.safedrones.battery import BatteryReliabilityModel
from repro.safedrones.monitor import (
    ReliabilityLevel,
    SafeDronesMonitor,
)
from repro.safedrones.processor import ProcessorReliabilityModel
from repro.safedrones.propulsion import (
    PropulsionModel,
    TOLERABLE_FAILURES,
    motor_chain,
    motor_chain_from_survival,
)


class TestPropulsion:
    def test_quad_has_no_redundancy(self):
        chain = motor_chain(4)
        assert chain.states == ["ok_4", "failed"]

    def test_hexa_tolerates_one(self):
        chain = motor_chain(6)
        assert chain.states == ["ok_6", "ok_5", "failed"]

    def test_octa_tolerates_two(self):
        chain = motor_chain(8)
        assert chain.states == ["ok_8", "ok_7", "ok_6", "failed"]

    def test_rejects_unsupported_rotor_count(self):
        with pytest.raises(ValueError):
            motor_chain(3)

    def test_rejects_bad_reconfig_probability(self):
        with pytest.raises(ValueError):
            motor_chain(6, reconfig_success=1.5)

    def test_more_rotors_more_reliable_with_perfect_reconfig(self):
        horizon = 3600.0
        pofs = {
            n: PropulsionModel(
                rotor_count=n, reconfig_success=1.0
            ).failure_probability(horizon)
            for n in (4, 6, 8)
        }
        assert pofs[8] < pofs[6] < pofs[4]

    def test_imperfect_reconfig_penalises_large_airframes_short_horizon(self):
        # With risky reconfiguration, more motors means more opportunities
        # for a failed remap at short horizons — the crossover the
        # propulsion ablation bench sweeps.
        horizon = 3600.0
        hexa = PropulsionModel(rotor_count=6, reconfig_success=0.5)
        octa = PropulsionModel(rotor_count=8, reconfig_success=0.5)
        assert octa.failure_probability(horizon) > hexa.failure_probability(horizon)

    def test_motor_failure_degrades_reliability(self):
        model = PropulsionModel(rotor_count=6)
        before = model.failure_probability(3600.0)
        model.record_motor_failure()
        after = model.failure_probability(3600.0)
        assert after > before
        assert model.controllable

    def test_too_many_failures_lose_control(self):
        model = PropulsionModel(rotor_count=4)
        model.record_motor_failure()
        assert not model.controllable
        assert model.failure_probability(1.0) == 1.0
        assert model.mttf_hours() == 0.0

    def test_reconfig_success_improves_survival(self):
        good = PropulsionModel(rotor_count=6, reconfig_success=0.99)
        bad = PropulsionModel(rotor_count=6, reconfig_success=0.5)
        assert good.failure_probability(7200.0) < bad.failure_probability(7200.0)

    def test_tolerable_failures_table(self):
        assert TOLERABLE_FAILURES == {4: 0, 6: 1, 8: 2}


def uncached_pof(chain, state, horizon_s):
    """Start-state PoF from a fresh solve, bypassing the chain's memo."""
    p0 = np.zeros(len(chain.states))
    p0[chain.index(state)] = 1.0
    return chain.failure_probability(p0, horizon_s)


class TestPropulsionMemo:
    """Memoized propulsion PoF equals a fresh, uncached solve."""

    def test_motor_failure_moves_the_start_state(self):
        model = PropulsionModel(rotor_count=8)
        fresh = motor_chain(8)
        for failed in range(3):
            model.failure_probability(600.0)  # fill the memo for this state
            assert model.failure_probability(600.0) == uncached_pof(
                fresh, f"ok_{8 - failed}", 600.0
            )
            model.record_motor_failure()
        assert model.failure_probability(600.0) == 1.0

    def test_arrangement_chain_swap(self):
        hexa = ArrangementAnalysis(rotor_count=6)
        default = PropulsionModel(
            rotor_count=6, reconfig_success=hexa.effective_reconfig_success(0)
        )
        default_pof = default.failure_probability(600.0)
        swapped = PropulsionModel.from_arrangement(hexa)
        swapped.record_motor_failure()
        default.record_motor_failure()
        fresh = motor_chain_from_survival(6, hexa.survival_by_count)
        assert swapped.failure_probability(600.0) == uncached_pof(fresh, "ok_5", 600.0)
        assert default.failure_probability(600.0) != swapped.failure_probability(600.0)
        fresh_default = motor_chain(6, reconfig_success=default.reconfig_success)
        assert default_pof == uncached_pof(fresh_default, "ok_6", 600.0)

    def test_each_horizon_has_its_own_value(self):
        model = PropulsionModel(rotor_count=6)
        fresh = motor_chain(6)
        for horizon in (600.0, 60.0, 3600.0, 600.0):
            assert model.failure_probability(horizon) == uncached_pof(
                fresh, "ok_6", horizon
            )
        assert model.failure_probability(60.0) < model.failure_probability(3600.0)

    def test_memo_is_bounded_by_states_and_horizons(self):
        # An arrangement-calibrated chain is private to its model.
        model = PropulsionModel.from_arrangement(ArrangementAnalysis(rotor_count=6))
        for _ in range(50):
            model.failure_probability(600.0)
        model.record_motor_failure()
        for _ in range(50):
            model.failure_probability(600.0)
            model.failure_probability(60.0)
        assert len(model.chain._pof_memo) == 3

    def test_chain_is_read_only(self):
        model = PropulsionModel(rotor_count=6)
        with pytest.raises(ValueError):
            model.chain.q[0, 1] = 0.0


class TestBatteryReliability:
    def test_pof_starts_at_zero(self):
        model = BatteryReliabilityModel()
        assert model.failure_probability == 0.0

    def test_pof_monotone_under_updates(self):
        model = BatteryReliabilityModel()
        model.update(0.0, 0.9, 25.0)
        values = []
        for t in range(1, 200):
            values.append(model.update(float(t), 0.9, 25.0))
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_heat_accelerates(self):
        cool = BatteryReliabilityModel()
        hot = BatteryReliabilityModel()
        cool.update(0.0, 0.9, 25.0)
        hot.update(0.0, 0.9, 25.0)
        cool.update(600.0, 0.9, 25.0)
        hot.update(600.0, 0.9, 85.0)
        assert hot.failure_probability > cool.failure_probability

    def test_deep_discharge_accelerates(self):
        full = BatteryReliabilityModel()
        empty = BatteryReliabilityModel()
        full.update(0.0, 0.9, 25.0)
        empty.update(0.0, 0.2, 25.0)
        full.update(600.0, 0.9, 25.0)
        empty.update(600.0, 0.2, 25.0)
        assert empty.failure_probability > full.failure_probability

    def test_soc_factor_is_one_above_knee(self):
        model = BatteryReliabilityModel()
        assert model.soc_factor(0.8) == 1.0
        assert model.soc_factor(0.5) == 1.0
        assert model.soc_factor(0.3) > 1.0

    def test_arrhenius_reference_is_unity(self):
        model = BatteryReliabilityModel()
        assert model.arrhenius_factor(25.0) == pytest.approx(1.0)
        assert model.arrhenius_factor(85.0) > 10.0

    def test_cell_fault_advances_state(self):
        model = BatteryReliabilityModel()
        model.update(0.0, 0.9, 25.0)
        assert model.most_likely_state() == "healthy"
        model.register_cell_fault()
        assert model.most_likely_state() == "degraded"

    def test_rejects_time_reversal(self):
        model = BatteryReliabilityModel()
        model.update(10.0, 0.9, 25.0)
        with pytest.raises(ValueError):
            model.update(5.0, 0.9, 25.0)

    def test_prediction_exceeds_current(self):
        model = BatteryReliabilityModel()
        model.update(0.0, 0.4, 80.0)
        model.update(60.0, 0.4, 80.0)
        predicted = model.predict_failure_probability(300.0, 0.4, 80.0)
        assert predicted > model.failure_probability

    def test_distribution_remains_normalised(self):
        model = BatteryReliabilityModel()
        model.update(0.0, 0.3, 70.0)
        model.update(500.0, 0.3, 70.0)
        assert model.distribution.sum() == pytest.approx(1.0)


class TestProcessor:
    def test_reliability_decays_over_time(self):
        model = ProcessorReliabilityModel()
        model.update(0.0, 50.0)
        model.update(3600.0, 50.0)
        r1 = model.reliability
        model.update(7200.0, 50.0)
        assert model.reliability < r1

    def test_thermal_factor_reference(self):
        model = ProcessorReliabilityModel()
        assert model.thermal_factor(45.0) == pytest.approx(1.0)
        assert model.thermal_factor(90.0) > 1.0

    def test_mission_reliability_closed_form(self):
        model = ProcessorReliabilityModel()
        r = model.mission_reliability(3600.0, 45.0)
        lam = (model.ser_rate_per_hour + model.wearout_rate_per_hour) / 3600.0
        assert r == pytest.approx(np.exp(-lam * 3600.0))

    def test_rejects_time_reversal(self):
        model = ProcessorReliabilityModel()
        model.update(10.0, 50.0)
        with pytest.raises(ValueError):
            model.update(1.0, 50.0)


class TestReliabilityLevel:
    def test_thresholds(self):
        assert ReliabilityLevel.from_failure_probability(0.0) is ReliabilityLevel.HIGH
        assert ReliabilityLevel.from_failure_probability(0.3) is ReliabilityLevel.MEDIUM
        assert ReliabilityLevel.from_failure_probability(0.9) is ReliabilityLevel.LOW

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ReliabilityLevel.from_failure_probability(1.5)


class TestSafeDronesMonitor:
    def test_healthy_flight_stays_high(self):
        monitor = SafeDronesMonitor(uav_id="u")
        for t in range(0, 300, 5):
            assessment = monitor.update(float(t), 0.9, 30.0)
        assert assessment.level is ReliabilityLevel.HIGH
        assert not assessment.abort_recommended

    def test_detects_soc_collapse(self):
        monitor = SafeDronesMonitor(uav_id="u")
        monitor.update(0.0, 0.80, 30.0)
        assessment = monitor.update(1.0, 0.40, 80.0)
        assert assessment.battery_fault_detected

    def test_gradual_drain_not_a_fault(self):
        monitor = SafeDronesMonitor(uav_id="u")
        soc = 0.9
        for t in range(0, 600, 5):
            soc -= 0.002
            assessment = monitor.update(float(t), soc, 30.0)
        assert not assessment.battery_fault_detected

    def test_abort_recommended_past_threshold(self):
        monitor = SafeDronesMonitor(uav_id="u", pof_abort_threshold=0.9)
        monitor.update(0.0, 0.80, 30.0)
        monitor.update(1.0, 0.40, 85.0)  # fault
        assessment = None
        for t in range(2, 2000, 2):
            assessment = monitor.update(float(t), 0.35, 85.0)
            if assessment.abort_recommended:
                break
        assert assessment.abort_recommended
        assert assessment.failure_probability >= 0.9

    def test_history_accumulates(self):
        monitor = SafeDronesMonitor(uav_id="u")
        for t in range(5):
            monitor.update(float(t), 0.9, 25.0)
        assert len(monitor.history) == 5
        assert monitor.latest is monitor.history[-1]

    def test_fault_tree_combines_components(self):
        monitor = SafeDronesMonitor(uav_id="u")
        assessment = monitor.update(0.0, 0.9, 25.0)
        assert assessment.failure_probability >= assessment.battery_pof
        assert assessment.failure_probability >= assessment.processor_pof
