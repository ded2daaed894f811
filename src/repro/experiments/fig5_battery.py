"""Fig. 5 — probability of failure under a battery fault, with/without SESAME.

Scenario (paper Sec. V-A): three UAVs fly a SAR mission; one UAV's battery
"became faulty due to high temperature, causing a sharp drop from 80% to
40% at the 250th second"; the mission nominally completes "around the
510th second".

Without SESAME the UAV aborts immediately on the battery drop, returns to
base for a replacement ("estimated to take 60 seconds"), flies back out
and finishes the remaining coverage — paying transit and swap overhead.

With SESAME, the SafeDrones monitor tracks the live probability of
failure; the UAV continues until the predefined PoF threshold (0.9) and
completes the mission in one pass, then performs the (by then post-
mission) emergency landing and battery replacement.

Availability definition (used consistently for both scenarios):
``availability = productive_mission_time / time_until_available_again``
where the denominator runs until the UAV is safely landed with a healthy
battery (the 60 s replacement is charged to both scenarios — the faulted
pack must be swapped either way).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro import obs
from repro.experiments.common import build_three_uav_world
from repro.safedrones.monitor import SafeDronesMonitor
from repro.sar.coverage import boustrophedon_path
from repro.uav.battery import Battery, BatteryFault
from repro.uav.uav import FlightMode, Uav
from repro.uav.world import World

FAULT_TIME_S = 250.0
SOC_BEFORE_FAULT = 0.80
SOC_AFTER_FAULT = 0.40
POF_THRESHOLD = 0.9
BATTERY_SWAP_S = 60.0
RELAUNCH_CHECK_S = 25.0  # pre-flight checks before a mid-mission relaunch
MISSION_ALTITUDE_M = 20.0
MISSION_STRIP = ((0.0, 260.0), (0.0, 300.0))
MISSION_SPEED_MPS = 7.6
NOMINAL_HORIZON_S = 2000.0  # clean-run cap
POLICY_HORIZON_S = 2500.0  # faulted-run cap


@dataclass
class ScenarioTrace:
    """Time series, milestones and naive-policy state from one policy run.

    The batched driver keeps one per stacked row with empty series.
    """

    times: list[float] = field(default_factory=list)
    pof: list[float] = field(default_factory=list)
    soc: list[float] = field(default_factory=list)
    temp_c: list[float] = field(default_factory=list)
    mode: list[str] = field(default_factory=list)
    abort_time: float | None = None
    mission_complete_time: float | None = None
    available_again_time: float | None = None
    threshold_crossing_time: float | None = None
    productive_time_s: float = 0.0
    swap_started: float | None = None
    resumed: bool = False
    remaining: list[tuple[float, float, float]] = field(default_factory=list)


@dataclass(frozen=True)
class Fig5Result:
    """Paper-figure payload: both curves plus the headline metrics."""

    with_sesame: ScenarioTrace
    without_sesame: ScenarioTrace
    nominal_mission_s: float
    availability_with: float
    availability_without: float
    availability_improvement: float
    completion_improvement: float

    def summary_rows(self) -> list[tuple[str, float, float]]:
        """(metric, with, without) rows matching the paper's narrative."""
        return [
            ("availability", self.availability_with, self.availability_without),
            (
                "time_until_available_s",
                self.with_sesame.available_again_time or float("nan"),
                self.without_sesame.available_again_time or float("nan"),
            ),
            (
                "mission_complete_s",
                self.with_sesame.mission_complete_time or float("nan"),
                self.without_sesame.mission_complete_time or float("nan"),
            ),
        ]


def make_faulted_uav(uav: Uav, fault_time_s: float, soc_after_fault: float) -> None:
    """Arrange the paper's SoC trajectory: 80% at the fault, then the drop.

    The initial SoC is back-computed so that after the pre-fault cruise
    drain the pack sits at 80% when the fault manifests at
    ``fault_time_s``. Raises ``ValueError`` for an onset that is not a
    finite, non-negative time or a post-fault SoC outside [0, 1] — such
    a scenario would otherwise score a plausible-looking availability.
    """
    if not (math.isfinite(fault_time_s) and fault_time_s >= 0.0):
        raise ValueError(f"fault_time_s must be finite and >= 0, got {fault_time_s!r}")
    if not (math.isfinite(soc_after_fault) and 0.0 <= soc_after_fault <= 1.0):
        raise ValueError(
            f"soc_after_fault must be finite and in [0, 1], got {soc_after_fault!r}"
        )
    spec = uav.battery.spec
    pre_fault_drain = spec.cruise_draw_w * fault_time_s / 3600.0 / spec.capacity_wh
    uav.battery.soc = min(1.0, SOC_BEFORE_FAULT + pre_fault_drain)
    uav.battery.inject_fault(
        BatteryFault(at_time=fault_time_s, soc_drop_to=soc_after_fault)
    )


def mission_path() -> list[tuple[float, float, float]]:
    """The faulted UAV's coverage strip, sized for a ~510 s mission."""
    return boustrophedon_path(MISSION_STRIP, MISSION_ALTITUDE_M)


def measure_nominal(world: World, uavs: list[Uav]) -> list[float]:
    """Clean-run mission duration of each UAV (no fault, no policy).

    Every UAV starts the mission path; a UAV's duration is the world
    time at which it is first seen out of MISSION mode (checked before
    each step, capped at ``NOMINAL_HORIZON_S``).
    """
    path = mission_path()
    for uav in uavs:
        uav.start_mission(path)
    nominal = [0.0] * len(uavs)
    active = list(range(len(uavs)))
    while active:
        still_active = []
        for k in active:
            if uavs[k].mode is FlightMode.MISSION and world.time < NOMINAL_HORIZON_S:
                still_active.append(k)
            else:
                nominal[k] = world.time
        active = still_active
        if active:
            world.step()
    return nominal


def policy_step(
    state: ScenarioTrace, uav: Uav, now: float, dt: float, pof: float,
    fault_detected: bool, abort_recommended: bool, use_sesame: bool,
) -> bool:
    """Advance one UAV's battery-fault policy by one step.

    Called after the world step and the SafeDrones update with that
    step's monitor outputs; issues any abort, battery swap, relaunch or
    landing command and records the milestones in ``state``. Returns
    True once the run may stop.
    """
    if uav.mode is FlightMode.MISSION:
        state.productive_time_s += dt

    if state.threshold_crossing_time is None and pof >= POF_THRESHOLD:
        state.threshold_crossing_time = now

    # SESAME continues until the PoF threshold (the mission normally
    # completes first); the naive policy aborts on the detected SoC
    # collapse, returns to base for a fresh pack and re-flies the rest.
    if use_sesame:
        abort = abort_recommended
    else:
        abort = state.abort_time is None and fault_detected
    if abort and uav.mode is FlightMode.MISSION:
        state.abort_time = now
        obs.event(
            "warning", "experiments.fig5", "policy_abort", sim_time=now,
            uav=uav.spec.uav_id, policy="sesame" if use_sesame else "naive",
            pof=float(pof), threshold=POF_THRESHOLD,
            fault_detected=bool(fault_detected),
        )
        if use_sesame:
            uav.command_mode(FlightMode.EMERGENCY_LAND)
        else:
            state.remaining = uav.plan.waypoints[uav.plan.index :]
            uav.command_mode(FlightMode.RETURN_TO_BASE)
    if not use_sesame:
        if (
            state.abort_time is not None
            and not state.resumed
            and uav.mode is FlightMode.LANDED
            and state.swap_started is None
        ):
            state.swap_started = now
        if (
            state.swap_started is not None
            and not state.resumed
            and now - state.swap_started >= BATTERY_SWAP_S + RELAUNCH_CHECK_S
        ):
            # Fresh pack installed; relaunch and finish the coverage.
            uav.battery = Battery(spec=uav.spec.battery_spec)
            state.resumed = True
            uav.start_mission(state.remaining)

    # Coverage complete (either policy): bring the aircraft down.
    if uav.plan.complete and state.mission_complete_time is None:
        state.mission_complete_time = now
        uav.command_mode(FlightMode.EMERGENCY_LAND)

    # Landed after mission completion (or after a mid-mission abort)
    # -> swap if the pack on board is faulted, then the UAV is
    # available again. Keep the monitor running briefly afterwards so
    # the PoF threshold crossing (which the paper's curve reaches
    # around the 510th second) is recorded even when the vehicle
    # touches down just before the crossing.
    mission_over = state.mission_complete_time is not None or (
        use_sesame and state.abort_time is not None
    )
    if (
        mission_over
        and uav.mode is FlightMode.LANDED
        and state.available_again_time is None
    ):
        swap = BATTERY_SWAP_S if uav.battery.faulted else 0.0
        state.available_again_time = now + swap
    return state.available_again_time is not None and (
        state.threshold_crossing_time is not None
        or now >= state.available_again_time + 60.0
    )


def availability(state: ScenarioTrace, nominal: float) -> float:
    """Productive mission time over total busy time.

    The numerator is capped at the nominal mission duration so re-fly
    transit (flown in MISSION mode by the naive policy) earns no
    credit; an aborted-but-landed run keeps the credit for the work it
    did complete.
    """
    if state.available_again_time is None:
        return 0.0
    productive = min(nominal, state.productive_time_s)
    return min(1.0, productive / state.available_again_time)


def _paper_world(seed: int, engine: str) -> tuple[World, Uav]:
    """The three-UAV paper world and its mission UAV, ``uav1``."""
    world = build_three_uav_world(seed=seed, n_persons=0, engine=engine).world
    uav = world.uavs["uav1"]
    uav.dynamics.max_speed_mps = MISSION_SPEED_MPS
    return world, uav


def _run_policy(
    seed: int, use_sesame: bool, engine: str,
    fault_time_s: float, soc_after_fault: float,
) -> ScenarioTrace:
    world, uav = _paper_world(seed, engine)
    make_faulted_uav(uav, fault_time_s, soc_after_fault)
    uav.start_mission(mission_path())

    monitor = SafeDronesMonitor(uav_id="uav1", pof_abort_threshold=POF_THRESHOLD)
    trace = ScenarioTrace()
    while world.time < POLICY_HORIZON_S:
        world.step()
        now = world.time
        soc = uav.battery.soc
        temp = uav.sensors.temperature.measure(uav.battery.temp_c)
        assessment = monitor.update(now, soc, temp)

        trace.times.append(now)
        trace.pof.append(assessment.failure_probability)
        trace.soc.append(soc)
        trace.temp_c.append(temp)
        trace.mode.append(uav.mode.value)
        if policy_step(
            trace, uav, now, world.dt, assessment.failure_probability,
            monitor.battery_fault_detected, assessment.abort_recommended,
            use_sesame,
        ):
            break
    return trace


def run_fig5_battery_experiment(
    seed: int = 3,
    engine: str = "scalar",
    fault_time_s: float = FAULT_TIME_S,
    soc_after_fault: float = SOC_AFTER_FAULT,
) -> Fig5Result:
    """Run both policies and compute the availability comparison.

    ``fault_time_s`` and ``soc_after_fault`` place the battery fault;
    the defaults are the paper's 250 s drop to 40% SoC.
    """
    world, uav = _paper_world(seed, engine)
    nominal = measure_nominal(world, [uav])[0]
    with_trace = _run_policy(seed, True, engine, fault_time_s, soc_after_fault)
    without_trace = _run_policy(seed, False, engine, fault_time_s, soc_after_fault)
    availability_with = availability(with_trace, nominal)
    availability_without = availability(without_trace, nominal)
    t_w = with_trace.available_again_time or math.inf
    t_wo = without_trace.available_again_time or math.inf
    return Fig5Result(
        with_sesame=with_trace,
        without_sesame=without_trace,
        nominal_mission_s=nominal,
        availability_with=availability_with,
        availability_without=availability_without,
        availability_improvement=availability_with - availability_without,
        completion_improvement=(t_wo - t_w) / t_wo if math.isfinite(t_wo) else 0.0,
    )
