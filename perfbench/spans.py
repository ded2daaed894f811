"""Span recording for the traced benchmark run.

Shims installed from this file wrap public calls into each layer of
``repro``; the program itself carries no benchmark instrumentation.
Every shimmed call records one span ``(name, start, end, parent, op)``
in memory. Spans nest by call order on one thread, so a span's direct
children never overlap and its self time is its duration minus theirs.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from pathlib import Path

#: (span name, module, attribute path) for every traced public call.
#: ``experiments.fig5_sample`` and ``harness.run_campaign`` are recorded
#: by the workload code around its own calls: the campaign engine holds
#: the sample function inside its registered experiment.
TARGETS = (
    ("safedrones.monitor_update", "repro.safedrones.monitor", "SafeDronesMonitor.update"),
    ("safedrones.chain_scaled", "repro.safedrones.markov", "ContinuousMarkovChain.scaled"),
    ("safedrones.chain_transient", "repro.safedrones.markov",
     "ContinuousMarkovChain.transient"),
    ("safedrones.expm", "repro.safedrones.markov", "expm"),
    ("uav.world_step", "repro.uav.world", "World.step"),
    ("uav.uav_step", "repro.uav.uav", "Uav.step"),
    ("uav.fleet_step", "repro.uav.fleet", "FleetEngine.step"),
    ("middleware.publish", "repro.middleware.rosbus", "RosBus.publish"),
    ("middleware.publish_many", "repro.middleware.rosbus", "RosBus.publish_many"),
    ("core.plane_step", "repro.core.batch", "BatchAssurancePlane.step"),
    ("core.plane_decide", "repro.core.batch", "BatchAssurancePlane.decide"),
    ("core.batch_safedrones_update", "repro.core.batch", "BatchSafeDrones.update"),
    ("core.conserts_evaluate", "repro.core.batch", "CompiledConSerts.evaluate"),
    ("sar.mission_step", "repro.sar.mission", "SarMission.step"),
    ("sar.assign_paths", "repro.sar.mission", "SarMission.assign_paths"),
    ("scenario.load", "repro.scenario", "load_scenario"),
    ("plan.field_build", "repro.plan.grid", "ObstacleField.build"),
    ("plan.route", "repro.plan.astar", "route_waypoints"),
    ("plan.plan_path", "repro.plan.astar", "plan_path"),
    ("plan.astar", "repro.plan.astar", "astar_cells"),
    ("plan.shortcut", "repro.plan.astar", "shortcut_path"),
    ("plan.inspection_points", "repro.plan.routing", "inspection_points"),
    ("plan.tours", "repro.plan.routing", "plan_inspection_tours"),
    ("plan.nn_tour", "repro.plan.routing", "nearest_neighbor_tour"),
    ("plan.two_opt", "repro.plan.routing", "two_opt"),
    ("plan.segment_free", "repro.plan.grid", "OccupancyGrid3D.segment_free"),
    ("experiments.fig5_batch", "repro.experiments.fig5_batch", "monte_carlo_batch"),
    ("experiments.urban_sample", "repro.plan.experiment", "planner_ablation_sample"),
)

#: Spans recorded by the workload code, not by a shim.
OWN_SPANS = ("bench.op", "harness.run_campaign", "experiments.fig5_sample")

#: ``planner_ablation_sample`` calls ``segment_free`` directly only for its
#: raw-grid clearance oracle; those calls are reported under this name.
ORACLE_SPAN = "plan.path_free"

SPAN_NAMES = tuple(name for name, _, _ in TARGETS) + OWN_SPANS + (ORACLE_SPAN,)

# Span fields, stored as lists to keep the in-memory trace small.
NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """In-memory span recorder; ``enabled`` gates every shim."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.enabled = False
        self.op: str | None = None
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name`` (a plain call when off)."""
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack
        parent = stack[-1] if stack else None
        if name == "plan.segment_free" and parent is not None and (
            self.spans[parent][NAME] == "experiments.urban_sample"
        ):
            name = ORACLE_SPAN
        index = len(self.spans)
        span = [name, time.perf_counter(), 0.0, parent, self.op]
        self.spans.append(span)
        stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter()
            stack.pop()

    def wrap(self, name: str, fn):
        """A function that records a span around every call of ``fn``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def write(self, path: Path, machine: dict) -> None:
        """Write the machine block, then every span, as gzip-compressed JSON lines.

        A span's ``parent`` is the position of its parent among the span lines.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write(json.dumps({"machine": machine}) + "\n")
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "op": op}
                ) + "\n")


class Shims:
    """Installs and removes the ``TARGETS`` wrappers around ``repro`` calls.

    A module-level function is rebound in its defining module and in
    every loaded ``repro`` module that imported it by name, so callers
    that bound the name at import time see the wrapper too.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                owner_name, method = attr.split(".")
                owner = getattr(module, owner_name)
                raw = owner.__dict__[method]
                if isinstance(raw, classmethod):
                    patched = classmethod(self.tracer.wrap(name, raw.__func__))
                else:
                    patched = self.tracer.wrap(name, raw)
                self._set(owner, method, raw, patched)
                continue
            fn = getattr(module, attr)
            patched = self.tracer.wrap(name, fn)
            holders = [module]
            if getattr(fn, "__module__", None) == module_name:
                holders += [
                    mod for mod_name, mod in list(sys.modules.items())
                    if mod is not module and mod_name.split(".")[0] == "repro"
                    and getattr(mod, attr, None) is fn
                ]
            for holder in holders:
                self._set(holder, attr, fn, patched)

    def _set(self, holder, attr: str, original, patched) -> None:
        self._saved.append((holder, attr, original))
        setattr(holder, attr, patched)

    def remove(self) -> None:
        for holder, attr, original in reversed(self._saved):
            setattr(holder, attr, original)
        self._saved.clear()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] is not None:
            out[span[PARENT]] -= span[END] - span[START]
    return out


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """``{name: {"calls", "self_s", "total_s"}}`` over every span name."""
    totals = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in SPAN_NAMES}
    for span, own in zip(spans, self_times(spans)):
        slot = totals.setdefault(span[NAME], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        slot["calls"] += 1
        slot["self_s"] += own
        slot["total_s"] += span[END] - span[START]
    return totals


def straight_leg_frac(spans: list[list]) -> float:
    """Share of ``plan.plan_path`` calls that returned without running A*."""
    astar_parents = {span[PARENT] for span in spans if span[NAME] == "plan.astar"}
    plans = [i for i, span in enumerate(spans) if span[NAME] == "plan.plan_path"]
    if not plans:
        return 0.0
    return sum(1 for i in plans if i not in astar_parents) / len(plans)
