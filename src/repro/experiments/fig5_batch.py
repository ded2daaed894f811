"""Sample-axis batched Fig. 5 Monte-Carlo runner.

The scalar Monte-Carlo path (:mod:`repro.experiments.monte_carlo`) runs
one full :func:`repro.experiments.fig5_battery.run_fig5_battery_experiment`
per grid point: three worlds (nominal, SESAME, naive) of three UAVs each,
with a per-step scipy ``expm`` inside the SafeDrones monitor — by far the
slowest registered campaign. This module runs *N samples as one stacked
simulation*: every sample's ``uav1`` clone becomes one row of a single
vectorized world, each row runs the one Fig. 5 policy
(:func:`repro.experiments.fig5_battery.policy_step`), and the SafeDrones
monitors collapse into one :class:`repro.core.batch.BatchSafeDrones`
bank (one stacked ``expm`` per step for the whole sample axis). This
module holds no policy of its own: it builds the stacked world, reads
the stacked sensors and steps the monitor bank.

Bit-exactness: a sample's trajectory depends only on its own spawned RNG
streams (``uav_rng_streams`` child 0 is a pure function of the seed —
fleet membership never perturbs it), the shared ``dt``/frame/area, and
its own fault script. Rows therefore cannot contaminate each other, and
each row reproduces the scalar run to the bit —
``tests/test_assurance_equivalence.py`` pins the campaign fingerprint of
the batched path to the scalar golden.

Used via ``run_campaign(..., batch=True)`` / ``python -m repro campaign
monte-carlo --batch``: the harness hands every pending (config, seed)
pair to :func:`monte_carlo_batch` and records the per-sample results
exactly as the per-sample path would.
"""

from __future__ import annotations

import numpy as np

from repro.core.batch import BatchSafeDrones
from repro.experiments import fig5_battery as fig5
from repro.experiments.common import uav_rng_streams
from repro.experiments.monte_carlo import sample_record, scenario_point
from repro.geo import EnuFrame, GeoPoint
from repro.uav.uav import Uav, UavSpec
from repro.uav.world import World


def _build_stacked_world(seeds: list[int]) -> World:
    """One vectorized world whose row *k* is sample *k*'s ``uav1`` clone.

    Mirrors ``build_three_uav_world(seed=seed_k, n_persons=0)`` as seen
    by ``uav1``: same frame, area, dt, base position, and — critically —
    the same spawned RNG stream (`SeedSequence(seed).spawn` child 0 is
    independent of how many siblings are spawned). The world's own
    generator is never consumed with zero persons, so sharing one world
    across samples is unobservable.
    """
    world = World(
        frame=EnuFrame(origin=GeoPoint(35.1456, 33.4299, 0.0)),
        rng=np.random.default_rng(0),
        area_size_m=(400.0, 300.0),
        dt=0.5,
        engine="vectorized",
    )
    for k, seed in enumerate(seeds):
        uav = Uav(
            spec=UavSpec(uav_id=f"s{k}", base_position=(30.0, -20.0, 0.0)),
            frame=world.frame,
            bus=world.bus,
            rng=uav_rng_streams(seed, 1)[0],
        )
        world.add_uav(uav)
        uav.dynamics.max_speed_mps = fig5.MISSION_SPEED_MPS
    return world


def _run_policy_stacked(
    points: list[tuple[int, float, float]], use_sesame: bool
) -> list[fig5.ScenarioTrace]:
    """All samples' ``fig5_battery._run_policy`` runs as one stacked world.

    ``points`` holds each row's (seed, fault onset, post-fault SoC). Each
    step reads every row's sensors and updates the batched SafeDrones
    bank (scalar construction: ``SafeDronesMonitor(pof_abort_threshold=
    0.9)`` with no ``motors_failed`` feed), then runs
    :func:`~repro.experiments.fig5_battery.policy_step` per active row.
    Rows whose policy says stop go inactive — the world keeps stepping
    for the stragglers, which the finished rows' recorded state no
    longer observes. The traces carry no time series.
    """
    n = len(points)
    world = _build_stacked_world([seed for seed, _, _ in points])
    fleet = world._fleet
    arrays = fleet.arrays
    uavs = list(world.uavs.values())
    path = fig5.mission_path()
    for uav, (_, fault_time_s, soc_after_fault) in zip(uavs, points):
        fig5.make_faulted_uav(uav, fault_time_s, soc_after_fault)
        uav.start_mission(path)

    monitors = BatchSafeDrones(
        n,
        [uav.spec.rotor_count for uav in uavs],
        pof_abort_threshold=fig5.POF_THRESHOLD,
    )
    states = [fig5.ScenarioTrace() for _ in range(n)]
    active = list(range(n))
    while active and world.time < fig5.POLICY_HORIZON_S:
        world.step()
        now = world.time
        soc = arrays.soc[:n].copy()
        pof = monitors.update(now, soc, fleet.temp_measure(slice(0, n))).tolist()
        fault_detected = monitors.battery_fault_detected
        abort_recommended = monitors.abort_recommended
        active = [
            k
            for k in active
            if not fig5.policy_step(
                states[k], uavs[k], now, world.dt, pof[k],
                fault_detected[k], abort_recommended[k], use_sesame,
            )
        ]
    return states


def monte_carlo_batch(configs: list[dict], seeds: list[int], timer) -> list[dict]:
    """The entire pending grid as one stacked simulation per policy.

    Returns per-sample result dicts bit-identical to
    :func:`repro.experiments.monte_carlo.monte_carlo_sample` — the
    campaign fingerprint of a batched run must equal the scalar golden.
    """
    points = [scenario_point(config, seed) for config, seed in zip(configs, seeds)]
    with timer.phase("simulate"):
        world = _build_stacked_world([seed for seed, _, _ in points])
        nominal = fig5.measure_nominal(world, list(world.uavs.values()))
        with_states = _run_policy_stacked(points, use_sesame=True)
        without_states = _run_policy_stacked(points, use_sesame=False)
    return [
        sample_record(*row)
        for row in zip(points, nominal, with_states, without_states)
    ]
