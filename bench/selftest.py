"""Self-test of the benchmark's correctness checks.

    python3 bench/selftest.py

Each check in checks.py first sees correct data and must pass it, then
sees the same data with one planted error and must reject it. Runs in a
few seconds on a small model; exit status 0 when every clean case passes
and every planted error is caught.
"""

from __future__ import annotations

import copy
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402
import goalgraph.autodiff as ad  # noqa: E402
from goalgraph import graph, metrics, synthgen, training  # noqa: E402
from goalgraph.model import Model, ModelConfig  # noqa: E402
from goalgraph.scene import LaneDef  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402

RESULTS = []


def expect(name: str, errors: list, planted: bool):
    ok = bool(errors) == planted
    verdict = ("rejected" if errors else "passed") if ok else ("MISSED" if planted else "FAILED")
    RESULTS.append(ok)
    print(f"{'planted' if planted else 'clean  '} {name:44s} {verdict}"
          + (f"  ({errors[0]})" if errors and not ok else ""))


def scene_with_unreachable_lane():
    """A style-A scene with a pedestrian and a vehicle that cannot reach
    some lane, searched over fixed seeds."""
    cfg = ModelConfig().graph
    for i in range(200):
        s = synthgen.gen_scene(synthgen.STYLE_A, (4242, i), f"self{i}")
        if not any(a.agent_class == "pedestrian" for a in s.agents):
            continue
        for ai, a in enumerate(s.agents):
            if a.agent_class == "pedestrian":
                continue
            lanes, _ = checks.reachable(s, ai, cfg.seed_lane_radius, cfg.reach_distance_cap)
            missing = sorted(set(range(len(s.lanes))) - lanes)
            if lanes and missing:
                return s, ai, missing[0]
    raise RuntimeError("no fixture scene found")


def main() -> int:
    scene, veh, far_lane = scene_with_unreachable_lane()
    mcfg = ModelConfig(d_h=16, heads=4, K=3, ffn_hidden=32, dropout=0.0)
    model = Model(mcfg, seed=3)
    preds = model.predict(scene)
    K, T_f, gcfg = mcfg.K, mcfg.T_f, mcfg.graph

    # -- structure of predictions
    expect("predictions", checks.check_predictions(scene, preds, K, T_f), False)
    plants = {
        "a mode missing": lambda p: p[1:],
        "an agent missing": lambda p: [x for x in p if x.agent_idx != p[0].agent_idx],
        "scores not summing to 1": lambda p: [_with(x, score=x.score * 1.001) if i == 0 else x
                                              for i, x in enumerate(p)],
        "a zero score": lambda p: [_with(x, score=0.0) if i == 0 else x for i, x in enumerate(p)],
        "a NaN waypoint": lambda p: [_with(x, traj_scene=_nan(x.traj_scene)) if i == 0 else x
                                     for i, x in enumerate(p)],
        "a trajectory of T_f - 1 rows": lambda p: [_with(x, traj_scene=x.traj_scene[:-1])
                                                   if i == 0 else x for i, x in enumerate(p)],
    }
    for name, plant in plants.items():
        expect(f"predictions with {name}", checks.check_predictions(scene, plant(preds), K, T_f),
               True)

    # -- selected lanes against the benchmark's own Dijkstra
    expect("selected lanes", checks.check_selected_lanes(
        scene, preds, gcfg.seed_lane_radius, gcfg.reach_distance_cap), False)
    bad = [_with(p, selected_lane_idx=far_lane) if p.agent_idx == veh else p for p in preds]
    expect("a vehicle selecting an unreachable lane", checks.check_selected_lanes(
        scene, bad, gcfg.seed_lane_radius, gcfg.reach_distance_cap), True)
    ped = next(i for i, a in enumerate(scene.agents) if a.agent_class == "pedestrian")
    bad = [_with(p, selected_lane_idx=0) if p.agent_idx == ped else p for p in preds]
    expect("a pedestrian selecting a lane", checks.check_selected_lanes(
        scene, bad, gcfg.seed_lane_radius, gcfg.reach_distance_cap), True)

    # -- SE(2) invariance
    dx, dy, th = 37.0, -12.5, 2.1
    moved = model.predict(inputs.moved(scene, dx, dy, th))
    expect("SE(2) invariance", checks.check_se2(preds, moved, dx, dy, th), False)
    shifted = [_with(p, traj_scene=p.traj_scene + [1e-3, 0.0]) if i == 0 else p
               for i, p in enumerate(moved)]
    expect("SE(2) with a trajectory shifted 1 mm", checks.check_se2(preds, shifted, dx, dy, th),
           True)

    # -- evaluate() against the recomputation
    dataset = [scene, synthgen.gen_scene(synthgen.STYLE_B, (4242, 999), "selfB")]
    kept = []
    rep = metrics.evaluate(workloads.Timed(model, None, kept), dataset)
    mine = checks.recompute_metrics(dataset, kept)
    expect("evaluate report", checks.check_report(rep, mine), False)
    shifted = [[_with(p, traj_scene=p.traj_scene + [0.5, 0.0]) for p in kept[0]]] + kept[1:]
    expect("evaluate with a shifted trajectory",
           checks.check_report(rep, checks.recompute_metrics(dataset, shifted)), True)
    for field in ("minFDE", "minADE"):
        bad = copy.deepcopy(rep)
        getattr(bad, field)[6] += 1e-6
        expect(f"evaluate with a mismatched {field}6", checks.check_report(bad, mine), True)
    bad = copy.deepcopy(rep)
    bad.ORR = rep.ORR + 1.0 / 64
    expect("evaluate with a mismatched ORR", checks.check_report(bad, mine), True)

    # -- the off-road test itself, on a 4 m wide straight lane along +x
    lane = LaneDef("L", "lane", [[0, 0], [50, 0]], [[0, 2], [50, 2]], [[0, -2], [50, -2]])
    poly = checks.lane_polygon(lane)
    pts = np.array([[10.0, 0.0], [10.0, 2.05], [10.0, 2.2], [-0.05, 0.0], [60.0, 0.0]])
    on = checks.inside(pts, poly) | (checks.boundary_distance(pts, poly) <= checks.LANE_EPS)
    expect("on-road points with the 0.1 m tolerance",
           [] if on.tolist() == [True, True, False, True, False] else [f"got {on.tolist()}"],
           False)

    # -- radius edge counts against build_graph
    dense = inputs.dense_scenes("A", 1, 4242, "dense-a")[0]
    g = graph.build_graph(dense, K, gcfg)
    counts = {t: es.count for t, es in g.edges.items()}
    brute = checks.radius_edge_counts(dense, K, gcfg)
    expect("radius edge counts (dense scene)", checks.check_edge_counts(dense.id, counts, brute),
           False)
    for t in brute:
        dropped = dict(counts, **{t: counts[t] - 1})
        expect(f"a dropped {t} edge", checks.check_edge_counts(dense.id, dropped, brute), True)

    # -- training: finiteness and the tape gradient
    rows = [{"epoch": 0, "loss": 1.5, "l_lane": 0.2}]
    params = {n: t.value for n, t in model.ps.params.items()}
    expect("finite losses and parameters", checks.check_finite(rows, params), False)
    expect("a NaN loss", checks.check_finite([dict(rows[0], loss=math.nan)], params), True)
    bad = dict(params, **{"traj.rb.l1.b": params["traj.rb.l1.b"] + np.inf})
    expect("an infinite parameter", checks.check_finite(rows, bad), True)

    tc = training.TrainConfig()
    model.ps.zero_grad()
    loss, _, _ = training.compute_scene_loss(model, model.forward(scene), scene, tc)
    loss.backward()

    def f():
        with ad.no_grad():
            fr = model.forward(scene)
            return float(training.compute_scene_loss(model, fr, scene, tc)[0].value)

    coords = []
    for name in ("score.lane.out.W", "traj.rb.l1.b", "enc.agent0.soc.q.W"):
        t = model.ps.params[name]
        j = int(np.argmax(np.abs(t.grad)))
        coords.append((f"{name}[{j}]", t.value, j, float(t.grad.reshape(-1)[j])))
    expect("tape gradient vs central differences", checks.check_gradient(f, coords,
                                                                         float(loss.value)), False)
    wrong = [(lbl, arr, j, g * 1.01) for lbl, arr, j, g in coords[:1]]
    expect("a tape gradient 1% off", checks.check_gradient(f, wrong, float(loss.value)), True)

    # -- rounds must repeat exactly
    ref = workloads.fingerprint(None, [preds])
    same = workloads.fingerprint(None, [model.predict(scene)])
    expect("repeated round", [] if same == ref else ["fingerprints differ"], False)
    other = workloads.fingerprint(None, [[_with(preds[0], score=preds[0].score + 1e-15)]
                                         + preds[1:]])
    expect("a round differing in one score", [] if other == ref else ["fingerprints differ"],
           True)

    print(f"{sum(RESULTS)} of {len(RESULTS)} cases as expected")
    return 0 if all(RESULTS) else 1


def _with(p, **changes):
    q = copy.copy(p)
    for k, v in changes.items():
        setattr(q, k, v)
    return q


def _nan(a):
    a = np.array(a, float)
    a[5, 0] = np.nan
    return a


if __name__ == "__main__":
    sys.exit(main())
