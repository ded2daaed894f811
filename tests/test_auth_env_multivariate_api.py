"""Unit tests for message authentication, the environment model,
multivariate SafeML measures, the web API, and combination coverage."""

import json

import numpy as np
import pytest

from repro.middleware.auth import MessageSigner, SignedPayload, VerifyingSubscriber
from repro.middleware.rosbus import RosBus
from repro.safeml.multivariate import (
    energy_distance,
    median_heuristic_bandwidth,
    mmd_rbf,
    multivariate_shift_pvalue,
)
from repro.uav.dynamics import UavDynamics
from repro.uav.environment import Environment, GustProcess

KEY = b"fleet-shared-key"


def make_channel():
    bus = RosBus()
    received = []
    signer = MessageSigner(node="uav1", key=KEY)
    subscriber = VerifyingSubscriber(
        bus=bus,
        topic="/uav1/pose",
        node="mapper",
        key=KEY,
        on_message=lambda sender, body: received.append((sender, body)),
    )
    return bus, signer, subscriber, received


class TestMessageAuthentication:
    def test_authentic_messages_delivered(self):
        bus, signer, subscriber, received = make_channel()
        signer.publish(bus, "/uav1/pose", {"east": 1.0})
        signer.publish(bus, "/uav1/pose", {"east": 2.0})
        assert received == [("uav1", {"east": 1.0}), ("uav1", {"east": 2.0})]
        assert subscriber.accepted == 2

    def test_unsigned_spoof_rejected(self):
        bus, signer, subscriber, received = make_channel()
        bus.publish("/uav1/pose", {"forged": True}, sender="uav1", origin="adversary")
        assert received == []
        assert subscriber.rejected["unsigned"] == 1

    def test_forged_tag_rejected(self):
        bus, signer, subscriber, received = make_channel()
        fake = SignedPayload(sender="uav1", seq=99, body={"x": 1}, tag="00" * 32)
        bus.publish("/uav1/pose", fake, sender="uav1", origin="adversary")
        assert received == []
        assert subscriber.rejected["bad_tag"] == 1

    def test_wrong_key_rejected(self):
        bus, _, subscriber, received = make_channel()
        rogue = MessageSigner(node="uav1", key=b"guessed-key")
        rogue.publish(bus, "/uav1/pose", {"x": 1})
        assert received == []
        assert subscriber.rejected["bad_tag"] == 1

    def test_replay_rejected(self):
        bus, signer, subscriber, received = make_channel()
        payload = signer.sign({"east": 1.0})
        bus.publish("/uav1/pose", payload, sender="uav1")
        bus.publish("/uav1/pose", payload, sender="uav1", origin="adversary")
        assert len(received) == 1
        assert subscriber.rejected["replay"] == 1

    def test_tampered_body_rejected(self):
        bus, signer, subscriber, received = make_channel()
        payload = signer.sign({"east": 1.0})
        tampered = SignedPayload(
            sender=payload.sender, seq=payload.seq,
            body={"east": 999.0}, tag=payload.tag,
        )
        bus.publish("/uav1/pose", tampered, sender="uav1", origin="adversary")
        assert received == []
        assert subscriber.rejected["bad_tag"] == 1


class TestEnvironment:
    def make(self, seed=0, **kwargs):
        return Environment(rng=np.random.default_rng(seed), **kwargs)

    def test_gust_stays_near_mean(self):
        gusts = GustProcess(rng=np.random.default_rng(0), mean_mps=5.0)
        values = [gusts.step(0.5) for _ in range(2000)]
        assert np.mean(values) == pytest.approx(5.0, abs=0.5)
        assert np.std(values) > 0.2

    def test_gust_never_negative(self):
        gusts = GustProcess(
            rng=np.random.default_rng(1), mean_mps=0.5, gust_sigma_mps=2.0
        )
        assert all(gusts.step(0.5) >= 0.0 for _ in range(500))

    def test_gust_rejects_bad_dt(self):
        gusts = GustProcess(rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            gusts.step(0.0)

    def test_wind_vector_direction_convention(self):
        env = self.make(wind_direction_deg=270.0)  # from the west
        env.current_wind_mps = 5.0
        east, north, up = env.wind_vector()
        assert east == pytest.approx(5.0, abs=1e-9)  # blows toward the east
        assert north == pytest.approx(0.0, abs=1e-9)
        assert up == 0.0

    def test_wind_drift_displaces_airborne_uav(self):
        env = self.make(wind_direction_deg=270.0)
        env.current_wind_mps = 10.0
        dynamics = UavDynamics(position=(0.0, 0.0, 20.0))
        for _ in range(100):
            env.apply_wind_drift(dynamics, dt=0.5, rejection=0.8)
        assert dynamics.position[0] > 50.0  # 10 m/s * 20% * 50 s = 100 m

    def test_no_drift_on_ground(self):
        env = self.make()
        env.current_wind_mps = 10.0
        dynamics = UavDynamics(position=(0.0, 0.0, 0.0))
        env.apply_wind_drift(dynamics, dt=0.5)
        assert dynamics.position == (0.0, 0.0, 0.0)

    def test_rejects_bad_rejection(self):
        env = self.make()
        with pytest.raises(ValueError):
            env.apply_wind_drift(UavDynamics(position=(0, 0, 10)), 0.5, rejection=2.0)

    def test_extra_power_quadratic(self):
        env = self.make()
        env.current_wind_mps = 10.0
        strong = env.extra_power_draw_w(1000.0)
        env.current_wind_mps = 5.0
        weak = env.extra_power_draw_w(1000.0)
        assert strong == pytest.approx(4.0 * weak)
        assert strong == pytest.approx(300.0)

    def test_diurnal_temperature_cycles(self):
        env = self.make()
        env.step(0.5, now=6 * 3600.0)  # a quarter period in
        morning = env.ambient_temperature_c
        env.step(0.5, now=18 * 3600.0)
        evening = env.ambient_temperature_c
        assert morning != evening

    def test_rejects_unknown_visibility(self):
        with pytest.raises(ValueError):
            self.make(visibility="hazy")


RNG = np.random.default_rng(7)
SAME_A = RNG.normal(0.0, 1.0, size=(60, 3))
SAME_B = RNG.normal(0.0, 1.0, size=(60, 3))
SHIFTED = RNG.normal(1.5, 1.0, size=(60, 3))


def correlation_rotated(n=150):
    """Same marginals, different joint structure."""
    rng = np.random.default_rng(8)
    z = rng.normal(0.0, 1.0, size=(n, 1))
    correlated = np.hstack([z, z, rng.normal(size=(n, 1))])
    independent = rng.normal(0.0, 1.0, size=(n, 3))
    # Standardise both so marginals match closely.
    correlated = (correlated - correlated.mean(0)) / correlated.std(0)
    independent = (independent - independent.mean(0)) / independent.std(0)
    return correlated, independent


class TestMultivariateDistances:
    def test_energy_nonnegative_and_zero_on_self(self):
        assert energy_distance(SAME_A, SAME_A) == pytest.approx(0.0, abs=1e-9)
        assert energy_distance(SAME_A, SAME_B) >= 0.0

    def test_energy_detects_mean_shift(self):
        assert energy_distance(SAME_A, SHIFTED) > 5.0 * energy_distance(SAME_A, SAME_B)

    def test_energy_symmetric(self):
        assert energy_distance(SAME_A, SHIFTED) == pytest.approx(
            energy_distance(SHIFTED, SAME_A)
        )

    def test_energy_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            energy_distance(SAME_A, np.zeros((10, 2)))

    def test_energy_rejects_nan(self):
        bad = SAME_A.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            energy_distance(bad, SAME_B)

    def test_mmd_detects_mean_shift(self):
        assert mmd_rbf(SAME_A, SHIFTED) > 5.0 * mmd_rbf(SAME_A, SAME_B)

    def test_mmd_detects_correlation_change(self):
        # Perfectly correlated pair vs independent pair: identical
        # marginals, different joint — only a multivariate test sees it.
        correlated, independent = correlation_rotated()
        rng = np.random.default_rng(9)
        null = mmd_rbf(
            rng.normal(0.0, 1.0, size=(150, 3)),
            rng.normal(0.0, 1.0, size=(150, 3)),
        )
        assert mmd_rbf(correlated, independent) > 2.0 * null

    def test_bandwidth_positive(self):
        assert median_heuristic_bandwidth(SAME_A, SAME_B) > 0.0

    @pytest.mark.parametrize("scale", [1e-160, 1e160])
    def test_extreme_scales_score_like_unit_scale(self, scale):
        # Squared distances under- or overflow at these scales; the kernel
        # used to turn NaN and max(0.0, nan) reported 0.0 for a real shift.
        unit = mmd_rbf(SAME_A, SHIFTED)
        assert unit > 0.1
        assert mmd_rbf(SAME_A * scale, SHIFTED * scale) == pytest.approx(unit, rel=1e-9)
        assert energy_distance(SAME_A * scale, SHIFTED * scale) / scale == pytest.approx(
            energy_distance(SAME_A, SHIFTED), rel=1e-9
        )

    def test_subnormal_sample_under_fallback_bandwidth(self):
        # Most pairs coincide, so the median heuristic falls back to a
        # bandwidth of 1.0, which overflows at the samples' unit scale.
        tiny = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 5e-324]])
        assert median_heuristic_bandwidth(tiny, tiny) == 1.0
        assert mmd_rbf(tiny, tiny) == 0.0
        assert mmd_rbf(tiny, np.zeros((4, 2))) == 0.0

    def test_power_of_two_scale_is_exact(self):
        scale = 2.0**-500
        assert mmd_rbf(SAME_A * scale, SHIFTED * scale) == mmd_rbf(SAME_A, SHIFTED)
        assert median_heuristic_bandwidth(SAME_A * scale, SHIFTED * scale) == (
            median_heuristic_bandwidth(SAME_A, SHIFTED) * scale
        )

    @pytest.mark.parametrize("bandwidth", [0.0, -1.0, np.nan, np.inf])
    def test_mmd_rejects_degenerate_bandwidth(self, bandwidth):
        with pytest.raises(ValueError):
            mmd_rbf(SAME_A, SHIFTED, bandwidth=bandwidth)

    def test_permutation_pvalue_behaviour(self):
        _, p_null = multivariate_shift_pvalue(
            SAME_A, SAME_B, n_permutations=60, rng=np.random.default_rng(1)
        )
        _, p_shift = multivariate_shift_pvalue(
            SAME_A, SHIFTED, n_permutations=60, rng=np.random.default_rng(1)
        )
        assert p_shift < 0.05 < p_null

    def test_univariate_input_accepted(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        b = np.array([1.0, 2.0, 3.0, 4.0])
        assert energy_distance(a, b) == pytest.approx(0.0, abs=1e-12)


class TestCombinationCoverage:
    def test_pair_coverage_below_marginal(self):
        from repro.deepknowledge.knowledge import DeepKnowledgeAnalyzer
        from repro.deepknowledge.network import FeedForwardNetwork, TrainConfig

        rng = np.random.default_rng(2)
        x = rng.normal(0.0, 1.0, size=(400, 3))
        y = (x[:, 0] + x[:, 1] > 0).astype(int)
        net = FeedForwardNetwork([3, 12, 2], rng=np.random.default_rng(3))
        net.train(x, y, TrainConfig(epochs=10))
        analyzer = DeepKnowledgeAnalyzer(network=net)
        analyzer.fit(x, x + 0.5)
        marginal = analyzer.coverage(x)
        pairwise = analyzer.combination_coverage(x)
        assert 0.0 < pairwise.score <= marginal.score + 1e-9

    def test_requires_two_tk_neurons(self):
        from repro.deepknowledge.knowledge import DeepKnowledgeAnalyzer
        from repro.deepknowledge.network import FeedForwardNetwork

        rng = np.random.default_rng(2)
        x = rng.normal(0.0, 1.0, size=(50, 2))
        net = FeedForwardNetwork([2, 4, 2], rng=np.random.default_rng(3))
        analyzer = DeepKnowledgeAnalyzer(network=net, tk_fraction=0.2)
        analyzer.fit(x, x)
        if len(analyzer.tk_neurons) < 2:
            with pytest.raises(ValueError):
                analyzer.combination_coverage(x)


class TestWebApi:
    def build(self):
        from repro.experiments.common import build_three_uav_world
        from repro.platform.api import WebApi
        from repro.platform.database import DatabaseManager
        from repro.platform.gcs import GroundControlStation
        from repro.platform.recorder import FlightRecorder
        from repro.platform.uav_manager import UavManager
        from repro.security.broker import MqttBroker
        from repro.security.ids import IntrusionDetectionSystem

        scenario = build_three_uav_world(seed=4, n_persons=0)
        world = scenario.world
        manager = UavManager(bus=world.bus, database=DatabaseManager())
        recorder = FlightRecorder(bus=world.bus)
        for uav in world.uavs.values():
            manager.connect(uav)
            recorder.watch(uav.spec.uav_id)
        gcs = GroundControlStation(bus=world.bus, uav_manager=manager)
        ids = IntrusionDetectionSystem(bus=world.bus, broker=MqttBroker())
        for node in list(world.uavs) + ["uav_manager", "gcs", "flight_recorder"]:
            ids.register_node(node)
        api = WebApi(uav_manager=manager, gcs=gcs, recorder=recorder, ids=ids)
        world.uavs["uav1"].start_mission([(350.0, 280.0, 20.0)])
        for _ in range(40):
            world.step()
        ids.scan(world.time)
        return world, api, ids

    def test_fleet_status_payload(self):
        world, api, _ = self.build()
        payload = api.fleet_status()
        assert len(payload["uavs"]) == 3
        uav1 = next(u for u in payload["uavs"] if u["id"] == "uav1")
        assert uav1["mode"] == "mission"
        assert uav1["connected"]

    def test_tracks_downsampled(self):
        world, api, _ = self.build()
        tracks = api.tracks(max_points=10)["tracks"]
        assert "uav1" in tracks
        assert 0 < len(tracks["uav1"]) <= 12

    def test_alert_feed_clean_traffic(self):
        world, api, ids = self.build()
        assert api.alert_feed() == {"alerts": []}
        world.bus.publish("/uav1/pose", 1, sender="uav1", origin="adversary")
        ids.scan(world.time)
        alerts = api.alert_feed()["alerts"]
        assert alerts
        assert alerts[-1]["suspect"] == "adversary"

    def test_dashboard_is_valid_json(self):
        world, api, _ = self.build()
        document = json.loads(api.dashboard())
        assert set(document) == {"fleet", "tracks", "alerts", "logs"}

    def test_dashboard_with_mission_panel(self):
        from repro.core.decider import MissionDecider
        from repro.core.uav_network import UavConSertNetwork

        world, api, _ = self.build()
        decider = MissionDecider()
        for i in range(3):
            network = UavConSertNetwork(uav_id=f"uav{i + 1}")
            network.set_reliability_level("high")
            decider.add_uav(network)
        document = json.loads(api.dashboard(decider.decide()))
        assert document["mission"]["verdict"] == "mission_completed_as_planned"
