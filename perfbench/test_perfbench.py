"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import spans  # noqa: E402
import workloads  # noqa: E402
from spans import END, NAME, PARENT, START, Shims, Tracer  # noqa: E402


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_same_seed_same_inputs():
    assert workloads.make_inputs(7) == workloads.make_inputs(7)
    assert workloads.make_inputs(7) != workloads.make_inputs(8)


def span(name, start, end, parent=None):
    return [name, start, end, parent, 0]


def test_self_time_of_a_hand_built_tree():
    tree = [
        span("bench.op", 0.0, 10.0),            # 0: children 1 and 4
        span("uav.world_step", 1.0, 5.0, 0),    # 1: children 2 and 3
        span("uav.uav_step", 1.5, 2.5, 1),      # 2: leaf
        span("uav.uav_step", 3.0, 4.5, 1),      # 3: child 5
        span("plan.astar", 6.0, 9.0, 0),        # 4: leaf
        span("middleware.publish", 3.5, 4.0, 3),  # 5: leaf
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 1.5, 1.0, 1.0, 3.0, 0.5])
    totals = spans.layer_totals(tree)
    assert totals["uav.uav_step"]["calls"] == 2
    assert totals["uav.uav_step"]["self_s"] == pytest.approx(2.0)
    assert totals["uav.uav_step"]["total_s"] == pytest.approx(2.5)
    assert totals["plan.route"] == {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    # Self times partition the root span exactly.
    assert sum(spans.self_times(tree)) == pytest.approx(10.0)


def test_straight_leg_frac_counts_plan_path_calls_without_astar():
    tree = [
        span("plan.plan_path", 0.0, 1.0),
        span("plan.plan_path", 1.0, 3.0),
        span("plan.astar", 1.5, 2.5, 1),
        span("plan.plan_path", 3.0, 3.5),
    ]
    assert spans.straight_leg_frac(tree) == pytest.approx(2 / 3)


def test_tracer_nests_spans_and_shims_restore_the_program():
    from repro.plan import astar
    from repro.sar import mission

    original = astar.route_waypoints
    tracer = Tracer()
    shims = Shims(tracer)
    shims.install()
    try:
        assert mission.route_waypoints is not original  # importer rebound
        tracer.enabled = True
        tracer.call("bench.op", tracer.call, "uav.world_step", lambda: None)
    finally:
        tracer.enabled = False
        shims.remove()
    assert astar.route_waypoints is original and mission.route_waypoints is original
    outer, inner = tracer.spans
    assert (outer[NAME], inner[NAME], inner[PARENT]) == ("bench.op", "uav.world_step", 0)
    assert outer[START] <= inner[START] <= inner[END] <= outer[END]


def test_tail_percentile_keeps_ten_samples_beyond_it():
    values = [float(v) for v in range(1, 101)]
    assert workloads.tail_percentile(values) == 90.0
    assert workloads.tail_percentile(values[:20]) == 10.0


def run_command(trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "urban-plan",
         "--seed", "5", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_exactly_the_declared_ones(trace, kind):
    result = run_command(trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in declared()[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
