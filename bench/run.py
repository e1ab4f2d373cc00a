"""goalgraph benchmark: one workload per process.

    python3 bench/run.py --workload train-goal-a --seed 1 --seconds 30 --trace 0

Run from the root of a goalgraph checkout; the package is imported from its
src/ directory. The run sets up the workload's inputs several times (the
median is setup_s), repeats rounds of the workload's operations for about
--seconds, checks the outputs against the benchmark's own computations,
and prints a report. Its last line is one JSON object: correct, attempted,
failed and metrics, the end-to-end metrics with --trace 0 and the per-layer
metrics with --trace 1. Exit status: 0 when the checks pass, 1 when they do
not, 2 when the run cannot start (no package, bad arguments).
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("train-goal-a", "dense-scenes")
SETUP_REPS = 3
NPROC = len(os.sched_getaffinity(0))

# (name, unit, how it is read from a run)
END_TO_END = (
    ("setup_s", "s", "import plus the median of the set-ups"),
    ("train.scenes_per_s", "scenes/s", "scene-steps / summed piece medians of train calls"),
    ("predict.ms_p50", "ms", "median over scenes of each scene's median predict latency"),
    ("predict.ms_p90", "ms", "90th percentile over scenes of the same"),
    ("eval.scenes_per_s", "scenes/s", "scenes / summed piece medians of evaluate calls"),
    ("peak_rss_mb", "MB", "ru_maxrss of this process after set-up and round 1"),
    ("xstyle.minFDE6_m", "m", "minFDE6 on style-B scenes after training on style A"),
)


def blas_info() -> tuple:
    """BLAS library name and its thread count, read from the loaded library."""
    import ctypes

    import numpy as np  # imported late: the BLAS thread count is set before numpy loads
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy without the dict form
        name = "unknown"
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = sorted({line.split()[-1] for line in f if "blas" in line.lower()})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for fn in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, fn):
                get = getattr(handle, fn)
                get.argtypes, get.restype = [], ctypes.c_int
                return name, int(get())
    return name, os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def git_describe() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "not a git checkout"
    try:
        out = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=20)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def machine_block(load_before, load_after) -> dict:
    import numpy as np
    blas, threads = blas_info()
    return {"nproc": NPROC, "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": threads, "git_describe": git_describe(),
            "load_before": [round(x, 2) for x in load_before],
            "load_after": [round(x, 2) for x in load_after],
            "noisy": max(load_before[0], load_after[0]) > NPROC}


def per_second(calls: list, errors: list) -> float:
    """Throughput of repeated identical calls, each given as (scenes, its
    pieces in seconds): scenes per call over the sum of each piece's median
    across the calls."""
    shapes = sorted({(n, len(p)) for n, p in calls})
    if len(shapes) != 1:
        errors.append(f"repeated calls did different work (scenes, pieces): {shapes}")
        return statistics.median(n / sum(p) for n, p in calls)
    return shapes[0][0] / sum(statistics.median(col) for col in zip(*(p for _, p in calls)))


def scene_latencies(samples: list) -> list:
    """Each scene's median over its timed predict calls, from (scene id, ms)
    samples: a scene's latency as the run saw it most of the time."""
    by_scene = {}
    for sid, ms in samples:
        by_scene.setdefault(sid, []).append(ms)
    return [statistics.median(v) for v in by_scene.values()]


def parse_args(argv):
    p = argparse.ArgumentParser(description="goalgraph benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    load_before = os.getloadavg()
    if not os.path.isfile(os.path.join(SRC, "goalgraph", "__init__.py")):
        print(f"error: no goalgraph package under {SRC}", file=sys.stderr)
        return 2
    # load from one process with one BLAS thread: here as fast as two, and steadier
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [SRC, HERE]
    import goalgraph
    if not os.path.abspath(goalgraph.__file__).startswith(SRC + os.sep):
        print(f"error: goalgraph imported from {goalgraph.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import inputs
    import workloads
    import_s = time.perf_counter() - T_START

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    tmp = os.path.join(ROOT, ".bench_runs", f"{args.workload}-{os.getpid()}")
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed)
        setups = []
        for r in range(SETUP_REPS):
            t0 = time.perf_counter()
            wl.setup(os.path.join(tmp, f"setup{r}"))
            setups.append(time.perf_counter() - t0)

        rec = workloads.Record()
        t_begin = time.perf_counter()
        warm = None  # sample counts after round 1, which warms caches and is not timed
        while True:
            if wl.rounds == 1 and warm is None:
                warm = (len(rec.train), len(rec.predict_ms), len(rec.evaluate))
                # peak memory over a fixed amount of work: set-up and one round
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                if tracer is not None:
                    tracer.clear_rounds()
            t0 = time.perf_counter()
            wl.round(rec)
            last = time.perf_counter() - t0
            measured = time.perf_counter() - t_begin
            if wl.first is None or measured + 0.5 * last > args.seconds:
                break
        if warm is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.enabled = False
        if wl.first is None:
            for e in rec.errors:
                print(f"error: {e}", file=sys.stderr)
            print("error: no round completed", file=sys.stderr)
            return 1
        t_check = time.perf_counter()
        errors = wl.determinism_errors + wl.checks()
        check_s = time.perf_counter() - t_check
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass

    timed_rounds = wl.rounds - 1 if warm else wl.rounds
    if warm:
        rec.train, rec.predict_ms, rec.evaluate = (
            rec.train[warm[0]:], rec.predict_ms[warm[1]:], rec.evaluate[warm[2]:])
    latencies = scene_latencies(rec.predict_ms)
    values = {
        "setup_s": import_s + statistics.median(setups),
        "train.scenes_per_s": per_second(rec.train, errors),
        "predict.ms_p50": statistics.median(latencies),
        "predict.ms_p90": statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "eval.scenes_per_s": per_second(rec.evaluate, errors),
        "peak_rss_mb": peak_rss_mb,
        "xstyle.minFDE6_m": rec.xstyle[0],
    }
    load_after = os.getloadavg()
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: {wl.rounds} rounds "
          f"({timed_rounds} timed) "
          f"in {measured:.1f} s, set-ups {[round(s, 3) for s in setups]} s, "
          f"import {import_s:.3f} s, checks {check_s:.1f} s")
    for label, scenes in wl.inputs.items():
        print(f"  input {label}: {len(scenes)} scenes, per scene [mean, min, max] "
              f"{json.dumps(inputs.describe(scenes))}")
    for name, unit, how in END_TO_END:
        print(f"  {name:20s} {values[name]:12.4f} {unit:9s} {how}")
    print(f"  samples: {len(rec.predict_ms)} predict calls on {len(latencies)} scenes; "
          f"train scenes/s per call {[round(n / sum(p), 3) for n, p in rec.train]} "
          f"({len(rec.train[0][1])} pieces); "
          f"evaluate scenes/s per call {[round(n / sum(p), 3) for n, p in rec.evaluate]} "
          f"({len(rec.evaluate[0][1])} pieces)")
    for e in rec.errors:
        print(f"  failed operation: {e}")
    for e in errors:
        print(f"  CHECK FAILED: {e}")
    print(f"  checks: {'all passed' if not errors else f'{len(errors)} failed'}")
    if tracer is not None:
        metrics = tracer.metrics(timed_rounds, SETUP_REPS)
        for name, m in metrics.items():
            print(f"  layer {name:42s} {m['value']:12.4f} {m['unit']}")
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
    print("machine " + json.dumps(machine_block(load_before, load_after), sort_keys=True))
    print(json.dumps({"correct": not errors, "attempted": rec.attempted, "failed": rec.failed,
                      "metrics": metrics}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
