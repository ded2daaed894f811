"""Repository benchmark: Fig. 5 sweep, assured fleets and urban planning.

Run from the repository root::

    python3 perfbench/run.py --workload fig5-inline --seed 1 --seconds 20 --trace 0

Prints one summary line per section, the machine block, and as the last
line one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` replays the
same ops with spans around each layer's public calls and reports the
per-layer metrics (see ``NOTES.md``). Exits 1 when any output check
fails and 2 when the program cannot be imported.
"""

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("fig5-inline", "fig5-parallel", "fleet-assured", "urban-plan")
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
#: Setups measured per run (this process plus fresh interpreters).
SETUP_REPEATS = 3


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time imports and input generation only, then exit")
    return parser.parse_args(argv)


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def openblas_threads() -> dict:
    """Thread count of each loaded scipy-openblas build (read-only query)."""
    import ctypes
    import glob

    import numpy
    import scipy

    found = {}
    for package in (numpy, scipy):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    query = getattr(lib, symbol)
                    query.argtypes = []
                    query.restype = ctypes.c_int
                    found[f"{package.__name__}:{Path(path).name}"] = query()
                    break
    return found


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "openblas_threads": openblas_threads(),
    }


def setup_probes(args: argparse.Namespace) -> list[float]:
    """Set-up time of fresh interpreters running the same imports and inputs."""
    times = []
    for _ in range(SETUP_REPEATS - 1):
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(probe.stdout.split()[-1]))
    return times


def per_layer(tracer, sections, overhead_frac: float, failed_frac: float) -> dict:
    from spans import SPAN_NAMES, layer_totals, self_times, straight_leg_frac

    totals = layer_totals(tracer.spans)
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (totals[name]["calls"], "count")
        metrics[f"{name}.self_s"] = (totals[name]["self_s"], "s")
    metrics.update(sections["fig5"].layer_metrics())
    monitor = totals["safedrones.monitor_update"]["total_s"]
    metrics["safedrones.expm_share"] = (
        totals["safedrones.expm"]["total_s"] / monitor if monitor else 0.0, "ratio")
    sample = totals["experiments.fig5_sample"]["total_s"]
    metrics["safedrones.sample_share"] = (monitor / sample if sample else 0.0, "ratio")
    metrics["plan.straight_leg_frac"] = (straight_leg_frac(tracer.spans), "ratio")
    own = self_times(tracer.spans)
    roots = [own[i] for i, span in enumerate(tracer.spans) if span[0] == "bench.op"]
    metrics["bench.unattributed_p50_s"] = (statistics.median(roots), "s")
    metrics["bench.trace_overhead_frac"] = (overhead_frac, "ratio")
    metrics["failed_frac"] = (failed_frac, "ratio")
    return metrics


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
        from repro import obs
        from spans import Shims, Tracer
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    inputs = workloads.make_inputs(args.seed)
    focus = workloads.FOCUS[args.workload]
    tracer = Tracer()
    sections = workloads.build_sections(args.workload, inputs, tracer, OUT)
    setup_s = (time.perf_counter() - SETUP_START) * (
        workloads.CALIBRATION_REF_S / workloads.calibrate())
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    if obs.OBS.enabled:
        print("perfbench: repro.obs must be off", file=sys.stderr)
        return 2
    setups = [setup_s] + setup_probes(args)

    # A traced run spends half its budget untraced, then replays those ops.
    seconds = args.seconds / 2 if args.trace else args.seconds
    start = time.perf_counter()
    plan = workloads.run_sections(sections, focus, seconds)
    untraced_s = time.perf_counter() - start
    runs = [sections]
    if args.trace:
        # Replay the same ops with spans on; results must not change.
        shims = Shims(tracer)
        traced = workloads.build_sections(args.workload, inputs, tracer, OUT, shims)
        traced["fig5"].fingerprint = sections["fig5"].fingerprint
        traced["fleet"].digests = sections["fleet"].digests
        shims.install()
        tracer.enabled = True
        start = time.perf_counter()
        try:
            workloads.run_sections(traced, focus, seconds, plan=plan)
        finally:
            traced_s = time.perf_counter() - start
            tracer.enabled = False
            shims.remove()
        runs.append(traced)
    host = machine()

    attempted = sum(s.attempted for run in runs for s in run.values())
    failed = sum(s.failed for run in runs for s in run.values())
    if args.trace:
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz", host)
        metrics = per_layer(tracer, traced, traced_s / untraced_s - 1.0, failed / attempted)
    else:
        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if sections["fig5"].workers > 1:
            usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = {"setup_s": (statistics.median(setups), "s")}
        for name in workloads.SECTIONS:
            metrics.update(sections[name].metrics())
        metrics["peak_rss_mb"] = (usage / 1024.0, "MB")

    for name in workloads.SECTIONS:
        print(runs[-1][name].summary())
        for run in runs:
            for problem in run[name].problems:
                print(f"  FAILED {problem}")
    counts = {name: sum(1 for n, _ in plan if n == name) for name in workloads.SECTIONS}
    print(f"ops per section {counts}; setups {[round(s, 3) for s in setups]} s")
    print("machine " + json.dumps(host, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
