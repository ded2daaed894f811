"""Inputs, operations and metrics of the benchmark's three sections.

Every run executes all sections, so every run reports every end-to-end
metric. The workload names the *focus* section: it keeps running
operations until the run's time budget is spent, while the others run a
short fixed probe. Inputs come only from ``make_inputs(seed)``.

End-to-end times are reported in reference seconds: each op's wall time
scaled by ``CALIBRATION_REF_S`` over the time a fixed pure-Python loop
took around that op. The shared machine's speed drifts by a third and
more over minutes; the scaling cancels that drift, not changes to
``repro``, which the loop never calls.

Sections
--------
``fig5``
    Passes of ``run_campaign("monte-carlo", grid=...)`` over a seed-drawn
    grid, cache off, one per op: inline passes (``workers=1``, or
    ``workers=nproc`` on ``fig5-parallel``) and ``batch=True`` passes in
    turn.
``fleet``
    Vectorized SAR coverage worlds of 3 and 50 UAVs flown for a fixed
    simulated horizon with ``build_assurance(world)`` stepped and decided
    every EDDI period, as ``run_assurance_scale_point`` does.
``urban``
    Back-to-back ``planner_ablation_sample`` calls over seed-drawn urban
    blocks, alternating the ``pattern`` and ``planned`` strategies.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import random
import shutil
import statistics
import time
from pathlib import Path

from repro.core.batch import build_assurance
from repro.experiments import fig5_batch  # noqa: F401  (imported in set-up, not in a pass)
from repro.experiments.common import build_three_uav_world
from repro.harness.campaign import CampaignControl, get_experiment, run_campaign
from repro.harness.timing import PhaseTimer
from repro.plan import experiment as plan_experiment
from repro.sar.mission import SarMission
from repro.uav.uav import FlightMode

from spans import Shims, Tracer

#: The section each workload spends its time budget on.
FOCUS = {
    "fig5-inline": "fig5",
    "fig5-parallel": "fig5",
    "fleet-assured": "fleet",
    "urban-plan": "urban",
}
SECTIONS = ("fig5", "fleet", "urban")

#: Grid points per Fig. 5 pass, drawn around the paper's (250 s, 0.40).
FIG5_POINTS = 2
#: Fleet sizes; each gets an area its strips cannot finish within the
#: horizon, so no UAV lands before the horizon ends.
FLEET_AREA_M = {3: (400.0, 300.0), 50: (400.0, 3000.0)}
FLEET_HORIZON_S = 120.0
FLEET_PERSONS = 8
EDDI_PERIOD_S = 2.0
URBAN_STRATEGIES = ("pattern", "planned")
URBAN_PERSONS = 6
URBAN_HORIZON_S = 240.0

#: Ops every section runs: the whole probe of a non-focus section, and
#: the least the focus runs. A fig5 op is one campaign pass, inline and
#: batch in turn; a fleet op one world; an urban op one sample.
MIN_OPS = {"fig5": 6, "fleet": 16, "urban": 24}

#: Ops that must lie beyond a reported tail percentile.
TAIL_SAMPLES = 10

#: ``calibrate()`` on the tuning machine at its fastest, so reference
#: seconds read as wall seconds there.
CALIBRATION_REF_S = 1.0e-3


def make_inputs(seed: int) -> dict:
    """Every input of a run, a pure function of ``seed``."""
    rng = random.Random(seed)
    fig5_grid = [
        {
            "fault_time_s": round(rng.uniform(245.0, 255.0), 1),
            "soc_after_fault": round(rng.uniform(0.39, 0.41), 3),
            "seed": rng.randrange(1, 1_000_000),
        }
        for _ in range(FIG5_POINTS)
    ]
    return {
        "fig5_grid": fig5_grid,
        "fleet_sizes": sorted(FLEET_AREA_M),
        "fleet_seeds": [rng.randrange(1, 1_000_000) for _ in range(4)],
        "urban_seeds": [rng.randrange(1, 1_000_000) for _ in range(6)],
    }


def calibrate() -> float:
    """Fastest of three timings of a fixed pure-Python loop."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best


def tail_percentile(values: list[float], q: float = 0.9) -> float:
    """The ``q`` quantile, capped so ``TAIL_SAMPLES`` values lie beyond it."""
    ordered = sorted(values)
    rank = min(math.ceil(q * len(ordered)) - 1, len(ordered) - 1 - TAIL_SAMPLES)
    return ordered[max(rank, 0)]


def state_digest(world, verdicts: list[str]) -> str:
    """Hash of final positions, SoC and the assurance verdict sequence."""
    digest = hashlib.sha256()
    for uav_id in sorted(world.uavs):
        uav = world.uavs[uav_id]
        values = [*map(float, uav.dynamics.position), float(uav.battery.soc)]
        digest.update(f"{uav_id}:{','.join(v.hex() for v in values)};".encode())
    digest.update("|".join(verdicts).encode())
    return digest.hexdigest()[:16]


class Section:
    """Runs numbered ops; op ``i`` always gets the same inputs.

    ``op`` returns ``(kind, wall_s)``; ``wall_s`` keeps the raw times and
    ``ref_s`` the same times in reference seconds, both by kind.
    """

    name = ""

    def __init__(self, inputs: dict, tracer: Tracer) -> None:
        self.inputs = inputs
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.wall_s: dict[str, list[float]] = {}
        self.ref_s: dict[str, list[float]] = {}

    def run_op(self, index: int) -> None:
        self.tracer.op = f"{self.name}:{index}"
        before = calibrate()
        kind, wall = self.tracer.call("bench.op", self.op, index)
        speed = (before + calibrate()) / 2
        self.wall_s.setdefault(kind, []).append(wall)
        self.ref_s.setdefault(kind, []).append(wall * CALIBRATION_REF_S / speed)

    def op(self, index: int) -> tuple[str, float]:
        raise NotImplementedError

    def summary(self) -> str:
        """Raw wall p50 per kind of op, with op counts."""
        return f"{self.name}: " + ", ".join(
            f"{kind} {len(v)} ops wall p50 {statistics.median(v):.3f} s"
            for kind, v in self.wall_s.items()
        )

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.problems) < 5:
            self.problems.append(message)


class Fig5Section(Section):
    name = "fig5"

    def __init__(self, inputs: dict, tracer: Tracer, workers: int, scratch: Path,
                 shims: Shims | None) -> None:
        super().__init__(inputs, tracer)
        self.workers = workers
        self.scratch = scratch
        self.shims = shims
        self.grid = inputs["fig5_grid"]
        self.overhead_s: list[float] = []
        self.efficiency: list[float] = []
        self.finalize_s: list[float] = []
        self.sample_simulate_s: list[float] = []
        self.attempts = 0
        self.fingerprint: str | None = None

    def campaign(self, workers: int, batch: bool):
        """One ``run_campaign`` pass: (result, start, end, record arrival times)."""
        experiment = "monte-carlo"
        if self.tracer.enabled and workers == 1:
            # The engine calls the sample function it registered, so the
            # span goes around that function in a copy of the experiment.
            base = get_experiment(experiment)
            experiment = dataclasses.replace(
                base,
                sample_fn=self.tracer.wrap("experiments.fig5_sample", base.sample_fn),
            )
        cache_dir = None
        if workers > 1:
            cache_dir = self.scratch / f"cache-{os.getpid()}"
            shutil.rmtree(cache_dir, ignore_errors=True)
            if self.shims is not None:
                # Forked children would inherit the wrappers; the parallel
                # pass is read from the parent side only.
                self.shims.remove()
        arrivals: list[float] = []
        control = CampaignControl(on_record=lambda record: arrivals.append(time.perf_counter()))
        start = time.perf_counter()
        try:
            result = self.tracer.call(
                "harness.run_campaign", run_campaign, experiment,
                grid=[dict(point) for point in self.grid], workers=workers,
                cache_dir=cache_dir, batch=batch, control=control,
            )
            end = time.perf_counter()
        finally:
            if cache_dir is not None:
                shutil.rmtree(cache_dir, ignore_errors=True)
                if self.shims is not None:
                    self.shims.install()
        return result, start, end, arrivals

    def check(self, result, label: str, arrivals: list[float]) -> None:
        samples = result.manifest["samples"]
        bad = sum(1 for record in samples if record["status"] != "ok")
        if bad:
            self.fail(bad, f"{label}: {bad} failed samples")
        if len(arrivals) != len(samples):
            self.fail(1, f"{label}: {len(arrivals)} records streamed for {len(samples)}")
        if self.fingerprint is None:
            self.fingerprint = result.fingerprint
        elif result.fingerprint != self.fingerprint:
            self.fail(len(samples), f"{label}: fingerprint {result.fingerprint} "
                                    f"!= {self.fingerprint}")

    def op(self, index: int) -> tuple[str, float]:
        """Even ops are inline (or ``workers``) passes, odd ops batch passes."""
        if index % 2:
            result, start, end, arrivals = self.campaign(1, batch=True)
            self.attempted += len(self.grid)
            self.check(result, "batch", arrivals)
            return "batch", end - start
        if self.workers > 1 and self.fingerprint is None:
            # Inline reference for the parallel fingerprint, not timed.
            result, _, _, arrivals = self.campaign(1, batch=False)
            self.attempted += len(self.grid)
            self.check(result, "inline reference", arrivals)
        label = "inline" if self.workers == 1 else f"workers={self.workers}"
        result, start, end, arrivals = self.campaign(self.workers, batch=False)
        self.attempted += len(self.grid)
        self.check(result, label, arrivals)
        wall = end - start
        samples = result.manifest["samples"]
        sample_wall = sum(record["wall_time_s"] for record in samples)
        self.overhead_s.append(wall - sample_wall)
        self.efficiency.append(sample_wall / (self.workers * wall))
        self.finalize_s.append(end - max(arrivals, default=end))
        self.attempts += sum(record["attempts"] for record in samples)
        self.sample_simulate_s += [
            record["timings"]["simulate"]["total_s"] for record in samples
        ]
        return "pass", wall

    def metrics(self) -> dict:
        points = len(self.grid)
        return {
            "samples_per_s": (points / statistics.median(self.ref_s["pass"]), "1/s"),
            "batch_samples_per_s": (points / statistics.median(self.ref_s["batch"]), "1/s"),
        }

    def layer_metrics(self) -> dict:
        return {
            "harness.overhead_s": (statistics.median(self.overhead_s), "s"),
            "harness.child_sample_p50_s": (statistics.median(self.sample_simulate_s), "s"),
            "harness.parallel_efficiency": (statistics.median(self.efficiency), "ratio"),
            "harness.finalize_s": (statistics.median(self.finalize_s), "s"),
            "harness.attempts": (self.attempts, "count"),
        }

    def summary(self) -> str:
        return (f"{super().summary()}; {len(self.grid)} points a pass, "
                f"workers={self.workers}")


class FleetSection(Section):
    name = "fleet"

    def __init__(self, inputs: dict, tracer: Tracer) -> None:
        super().__init__(inputs, tracer)
        self.digests: dict[tuple[int, int], str] = {}

    def op(self, index: int) -> tuple[str, float]:
        sizes, seeds = self.inputs["fleet_sizes"], self.inputs["fleet_seeds"]
        n_uavs = sizes[index % len(sizes)]
        seed = seeds[(index // len(sizes)) % len(seeds)]
        self.attempted += 1
        world = build_three_uav_world(
            seed=seed, area_size_m=FLEET_AREA_M[n_uavs], n_persons=FLEET_PERSONS,
            n_uavs=n_uavs, engine="vectorized",
        ).world
        mission = SarMission(world=world)
        mission.assign_paths()
        plane = build_assurance(world)
        cycle_every = max(1, int(round(EDDI_PERIOD_S / world.dt)))
        verdicts: list[str] = []
        steps = 0
        start = time.perf_counter()
        while world.time < FLEET_HORIZON_S:
            mission.step()
            steps += 1
            if steps % cycle_every == 0:
                plane.step(world.time)
                verdicts.append(plane.decide().verdict.name)
        wall = time.perf_counter() - start
        landed = [u for u, uav in world.uavs.items() if uav.mode is not FlightMode.MISSION]
        if landed:
            self.fail(1, f"{n_uavs} UAVs seed {seed}: {len(landed)} left the mission early")
        digest = state_digest(world, verdicts)
        expected = self.digests.setdefault((n_uavs, seed), digest)
        if digest != expected:
            self.fail(1, f"{n_uavs} UAVs seed {seed}: digest {digest} != {expected}")
        return f"{n_uavs}uav", wall

    def metrics(self) -> dict:
        return {f"rtf_{kind}": (FLEET_HORIZON_S / statistics.median(times), "sim_s/wall_s")
                for kind, times in self.ref_s.items()}

    def summary(self) -> str:
        return f"{super().summary()}; {FLEET_HORIZON_S:.0f} sim s a world"


class UrbanSection(Section):
    name = "urban"

    def op(self, index: int) -> tuple[str, float]:
        strategy = URBAN_STRATEGIES[index % len(URBAN_STRATEGIES)]
        seeds = self.inputs["urban_seeds"]
        seed = seeds[(index // len(URBAN_STRATEGIES)) % len(seeds)]
        config = {"strategy": strategy, "seed": seed, "persons": URBAN_PERSONS,
                  "horizon_s": URBAN_HORIZON_S}
        self.attempted += 1
        start = time.perf_counter()
        result = plan_experiment.planner_ablation_sample(config, 0, PhaseTimer())
        wall = time.perf_counter() - start
        violations = len(result["oracles"]["violations"])
        if violations:
            self.fail(1, f"{strategy} seed {seed}: {violations} clearance violations")
        elif not result["completed"]:
            self.fail(1, f"{strategy} seed {seed}: mission incomplete at the horizon")
        return strategy, wall

    def metrics(self) -> dict:
        every = [t for times in self.ref_s.values() for t in times]
        return {
            "pattern_mission_p50_s": (statistics.median(self.ref_s["pattern"]), "s"),
            "tour_mission_p50_s": (statistics.median(self.ref_s["planned"]), "s"),
            "mission_p90_s": (tail_percentile(every), "s"),
        }

    def summary(self) -> str:
        every = sum(len(v) for v in self.wall_s.values())
        return (f"{super().summary()}; mission_p90_s over {every} ops "
                f"with {TAIL_SAMPLES}+ beyond it")


def build_sections(workload: str, inputs: dict, tracer: Tracer, scratch: Path,
                   shims: Shims | None = None) -> dict:
    workers = (os.cpu_count() or 1) if workload == "fig5-parallel" else 1
    return {
        "fig5": Fig5Section(inputs, tracer, workers, scratch, shims),
        "fleet": FleetSection(inputs, tracer),
        "urban": UrbanSection(inputs, tracer),
    }


def run_sections(sections: dict, focus: str, seconds: float,
                 plan: list[tuple[str, int]] | None = None) -> list[tuple[str, int]]:
    """Run the focus section for ``seconds`` with the probes spread through it.

    Probe op ``k`` of ``n`` is due at ``(k + 0.5) / n`` of the run, so slow
    phases of a shared machine hit every metric alike. With ``plan`` (a
    replay) exactly those ``(section, op)`` pairs run. Returns the plan run.
    """
    if plan is not None:
        for name, index in plan:
            sections[name].run_op(index)
        return plan
    due = sorted(
        ((k + 0.5) / MIN_OPS[name] * seconds, name, k)
        for name in SECTIONS if name != focus for k in range(MIN_OPS[name])
    )
    plan = []
    focus_ops = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if due and due[0][0] <= elapsed:
            _, name, index = due.pop(0)
        elif elapsed < seconds or focus_ops < MIN_OPS[focus]:
            name, index = focus, focus_ops
            focus_ops += 1
        elif due:
            _, name, index = due.pop(0)
        else:
            return plan
        sections[name].run_op(index)
        plan.append((name, index))
