"""The benchmark's tracer wraps package functions by name. A wrapped call that
is inlined or renamed silently reads 0 calls, so a short traced run must count
every hooked stage."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_short_run_counts_hooked_stages():
    run = subprocess.run([sys.executable, os.path.join(ROOT, "bench", "run.py"),
                          "--workload", "train-goal-a", "--seed", "1", "--seconds", "1",
                          "--trace", "1"], cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]
    last = json.loads(run.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    names = ([f"model.argmax_per_group.{p}_calls" for p in ("train", "predict")]
             + [f"model.score.{s}.{p}_calls" for s in ("lane", "point", "nrb")
                for p in ("train", "predict")]
             + ["training.loss_calls", "graph.decide_point_calls"])
    calls = {n: last["metrics"][n]["value"] for n in names}
    assert all(v > 0 for v in calls.values()), calls
