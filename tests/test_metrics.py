import math

import numpy as np
import pytest

from goalgraph.errors import DataError
from goalgraph.geometry import points_in_polygon, points_near_polygon_boundary
from goalgraph.metrics import (
    MISS_THRESHOLD,
    agent_metrics,
    evaluate,
    trajectory_offroad,
    write_report,
)
from goalgraph.model import Model, ModelConfig, ModePrediction
from goalgraph.synthgen import STYLE_A, STYLE_B, gen_scene

from conftest import dense_overlay, make_line_scene


def mk(mode, traj, score):
    traj = np.asarray(traj, dtype=float)
    return ModePrediction(agent_id="a", agent_idx=0, mode=mode, score=score,
                          traj_mu_local=traj, traj_b=np.ones_like(traj),
                          traj_scene=traj)


def random_case(rng, T=8):
    K = int(rng.integers(1, 7))
    scores = rng.dirichlet(np.ones(K))
    preds = [mk(k, rng.normal(0, 5, (T, 2)), float(scores[k])) for k in range(K)]
    gt = rng.normal(0, 5, (T, 2))
    return preds, gt, K


# --- brute-force oracles ------------------------------------------------------

def _oracle_topk(preds, K):
    order = sorted(range(len(preds)), key=lambda i: (-preds[i].score, preds[i].mode))
    return [preds[i] for i in order[:K]]


def _oracle_ade(preds, gt, K):
    return min(np.linalg.norm(p.traj_scene - gt, axis=1).mean()
               for p in _oracle_topk(preds, K))


def _oracle_fde(preds, gt, K):
    return min(np.linalg.norm(p.traj_scene[-1] - gt[-1])
               for p in _oracle_topk(preds, K))


def _oracle_miss_top2(preds, gt, K):
    return all(np.linalg.norm(p.traj_scene - gt, axis=1).max() > 2.0
               for p in _oracle_topk(preds, K))


def _oracle_brier(preds, gt, K, literal=False):
    top = _oracle_topk(preds, K)
    fdes = [np.linalg.norm(p.traj_scene[-1] - gt[-1]) for p in top]
    best = min(range(len(top)), key=lambda i: (fdes[i], -top[i].score))
    s = top[best].score
    pen = (1.0 - s * s) if literal else (1.0 - s) ** 2
    return fdes[best] + pen


def test_perfect_prediction_zero():
    gt = np.random.default_rng(0).normal(0, 5, (10, 2))
    preds = [mk(0, gt, 1.0)]
    assert agent_metrics(preds, gt, 1) == (0.0, 0.0, 0.0, False)  # s=1 -> no penalty


def test_three_four_five():
    gt = np.zeros((6, 2))
    preds = [mk(0, np.tile([3.0, 4.0], (6, 1)), 1.0)]
    ade, fde, _, _ = agent_metrics(preds, gt, 1)
    assert ade == pytest.approx(5.0, abs=1e-12)
    assert fde == pytest.approx(5.0, abs=1e-12)


def test_brier_half_score():
    gt = np.zeros((4, 2))
    preds = [mk(0, np.tile([1.0, 0.0], (4, 1)), 0.5)]
    assert agent_metrics(preds, gt, 1)[2] == pytest.approx(1.25, abs=1e-12)
    # literal (paper-printed) form: 1 + (1 - 0.25) = 1.75
    assert agent_metrics(preds, gt, 1, literal=True)[2] == pytest.approx(1.75, abs=1e-12)


def test_miss_threshold_exact():
    gt = np.zeros((4, 2))
    hit = [mk(0, np.tile([1.9, 0.0], (4, 1)), 1.0)]
    miss = [mk(0, np.tile([2.1, 0.0], (4, 1)), 1.0)]
    assert not agent_metrics(hit, gt, 1)[3]
    assert agent_metrics(miss, gt, 1)[3]
    assert MISS_THRESHOLD == 2.0


def test_topk_uses_highest_scores():
    gt = np.zeros((4, 2))
    good = mk(0, gt, 0.1)                          # perfect but low score
    bad = mk(1, np.tile([9.0, 0.0], (4, 1)), 0.9)  # poor but high score
    assert agent_metrics([good, bad], gt, 1)[1] == pytest.approx(9.0)
    assert agent_metrics([good, bad], gt, 2)[1] == 0.0


def test_shape_mismatch_raises():
    gt = np.zeros((5, 2))
    with pytest.raises(DataError):
        agent_metrics([mk(0, np.zeros((4, 2)), 1.0)], gt, 1)
    # a mode outside the top K is checked too, before the modes are stacked
    with pytest.raises(DataError):
        agent_metrics([mk(0, gt, 1.0), mk(1, np.zeros((4, 2)), 0.5)], gt, 1)


def test_metrics_match_oracles_1000():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        preds, gt, K = random_case(rng)
        k_eval = int(rng.integers(1, K + 1))
        ade, fde, bfde, miss = agent_metrics(preds, gt, k_eval)
        assert ade == pytest.approx(_oracle_ade(preds, gt, k_eval), abs=1e-12)
        assert fde == pytest.approx(_oracle_fde(preds, gt, k_eval), abs=1e-12)
        assert miss == _oracle_miss_top2(preds, gt, k_eval)
        assert bfde == pytest.approx(_oracle_brier(preds, gt, k_eval), abs=1e-12)
        assert agent_metrics(preds, gt, k_eval, literal=True)[2] == pytest.approx(
            _oracle_brier(preds, gt, k_eval, literal=True), abs=1e-12)


def test_metrics_monotone_in_k():
    rng = np.random.default_rng(7)
    for _ in range(100):
        preds, gt, K = random_case(rng)
        ades, fdes, _, _ = zip(*(agent_metrics(preds, gt, k) for k in range(1, K + 1)))
        assert all(a >= b - 1e-12 for a, b in zip(ades, ades[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(fdes, fdes[1:]))


def test_brier_lower_bounded_by_fde():
    rng = np.random.default_rng(8)
    for _ in range(200):
        preds, gt, K = random_case(rng)
        _, fde, bfde, _ = agent_metrics(preds, gt, K)
        assert bfde >= fde - 1e-12


# --- lane membership / offroad -------------------------------------------------

def test_trajectory_offroad(line_scene):
    polys = [l.polygon() for l in line_scene.lanes]
    on = np.stack([np.linspace(5, 170, 20), np.zeros(20)], axis=1)
    assert trajectory_offroad(on, polys) is False
    off = on.copy()
    off[10] = [30.0, 100.0]
    assert trajectory_offroad(off, polys) is True
    assert trajectory_offroad(np.stack([on, off, on]), polys).tolist() == [False, True, False]


def test_point_in_lanes(line_scene):
    """Lane membership of single points, as one-waypoint trajectories."""
    polys = [l.polygon() for l in line_scene.lanes]
    assert trajectory_offroad(np.array([[30.0, 0.0]]), polys) is False
    assert trajectory_offroad(np.array([[30.0, 50.0]]), polys) is True
    # just outside the boundary but within eps
    assert trajectory_offroad(np.array([[30.0, 1.85 + 0.05]]), polys) is False
    pts = np.array([[[30.0, 0.0]], [[30.0, 50.0]], [[30.0, 1.85 + 0.05]]])
    assert trajectory_offroad(pts, polys).tolist() == [False, True, False]
    assert trajectory_offroad(pts[None], polys).tolist() == [[False, True, False]]


def test_orr_invariant_under_transform():
    sc = gen_scene(STYLE_A, (9, 0), "s")
    m = Model(ModelConfig(d_h=32, heads=4, K=2, ffn_hidden=64, dropout=0.0), seed=0)
    r1 = evaluate(m, [sc], ks=(1,))
    r2 = evaluate(m, [sc.transformed(55.0, -8.0, 0.77)], ks=(1,))
    assert r1.ORR == pytest.approx(r2.ORR, abs=1e-9)


def test_synthetic_gt_orr_zero():
    """Vehicle ground-truth futures stay on-lane by construction."""
    for i in range(5):
        sc = gen_scene(STYLE_A, (10, i), f"s{i}")
        polys = [l.polygon() for l in sc.lanes]
        for a in sc.agents:
            if not a.road_bound:
                continue
            fut = a.states[sc.t_history:, :2]
            assert not trajectory_offroad(fut, polys), f"{sc.id}/{a.id}"


# --- evaluate aggregation -------------------------------------------------------

def test_evaluate_empty_dataset():
    m = Model(ModelConfig(d_h=32, heads=4, K=2, ffn_hidden=64), seed=0)
    with pytest.raises(DataError):
        evaluate(m, [], ks=(1,))


def test_evaluate_aggregation_oracle(small_mcfg):
    scenes = [gen_scene(STYLE_A, (12, i), f"s{i}") for i in range(3)]
    m = Model(small_mcfg, seed=1)
    rep = evaluate(m, scenes, ks=(1, 3))
    # recompute minFDE_3 by hand over all supervised agents
    vals = []
    for sc in scenes:
        preds = m.predict(sc)
        by_agent = {}
        for p in preds:
            by_agent.setdefault(p.agent_idx, []).append(p)
        for idx, pk in by_agent.items():
            fut = sc.agents[idx].states[sc.t_history:, :]
            if not (fut[:, 4] > 0.5).all():
                continue
            vals.append(agent_metrics(pk, fut[:, :2], 3)[1])
    assert rep.minFDE[3] == pytest.approx(float(np.mean(vals)), abs=1e-12)
    assert rep.n_agents == len(vals)


def test_report_files(tmp_path, small_mcfg):
    sc = gen_scene(STYLE_A, (13, 0), "s0")
    m = Model(small_mcfg, seed=0)
    rep = evaluate(m, [sc], ks=(1,))
    csv_p, json_p = str(tmp_path / "r.csv"), str(tmp_path / "r.json")
    write_report(rep, csv_p, json_p, dataset_name="d", variant="goal")
    import json as _json
    d = _json.loads(open(json_p).read())
    assert "minFDE" in d and "ORR" in d
    lines = open(csv_p).read().splitlines()
    assert len(lines) == 2
    assert lines[0] == "dataset,variant,K,minADE,minFDE,b_minFDE,minMR,missRateTopK_2,ORR,n_agents"


# --- evaluate against the per-mode oracle ---------------------------------------
# The per-mode metric functions and evaluate loop that evaluate() replaced,
# kept here unchanged as the oracle: evaluate's report must equal theirs under ==.

def _pm_top_k(preds_k, K):
    order = sorted(range(len(preds_k)), key=lambda i: (-preds_k[i].score, i))
    return [preds_k[i] for i in order[:K]]


def _pm_min_ade(preds_k, gt, K):
    best = math.inf
    for p in _pm_top_k(preds_k, K):
        best = min(best, float(np.hypot(*(p.traj_scene - gt).T).mean()))
    return best


def _pm_min_fde(preds_k, gt, K):
    best = math.inf
    for p in _pm_top_k(preds_k, K):
        best = min(best, float(np.hypot(*(p.traj_scene[-1] - gt[-1]))))
    return best


def _pm_miss_top2(preds_k, gt, K):
    for p in _pm_top_k(preds_k, K):
        if (np.hypot(*(p.traj_scene - gt).T) <= MISS_THRESHOLD).all():
            return False
    return True


def _pm_brier(preds_k, gt, K, literal):
    top = _pm_top_k(preds_k, K)
    fdes = [float(np.hypot(*(p.traj_scene[-1] - gt[-1]))) for p in top]
    best = min(range(len(top)), key=lambda i: (fdes[i], -top[i].score))
    s = top[best].score
    return fdes[best] + ((1.0 - s * s) if literal else (1.0 - s) ** 2)


def _pm_offroad(traj, lane_polys, eps=0.1):
    covered = np.zeros(len(traj), dtype=bool)
    for poly in lane_polys:
        covered |= points_in_polygon(traj, poly)
        covered |= points_near_polygon_boundary(traj, poly, eps)
    return not covered.all()


def _pm_report(dataset, preds_per_scene, ks, literal):
    """evaluate()'s to_dict(), one metric function call per agent and K and
    one lane test per road-bound mode."""
    acc = {k: {"ade": [], "fde": [], "bfde": [], "mr": [], "miss": []} for k in ks}
    per_class, n_agents, hits, total = {}, 0, 0, 0
    for scene, preds in zip(dataset, preds_per_scene):
        by_agent = {}
        for p in preds:
            by_agent.setdefault(p.agent_idx, []).append(p)
        polys = [l.polygon() for l in scene.lanes]
        for ai, pk in sorted(by_agent.items()):
            agent = scene.agents[ai]
            if not agent.valid[scene.t_history:].all():
                continue
            gt = agent.states[scene.t_history:, 0:2]
            n_agents += 1
            cls = per_class.setdefault(agent.agent_class, {k: {"ade": [], "fde": []} for k in ks})
            for k in ks:
                ade, fde = _pm_min_ade(pk, gt, k), _pm_min_fde(pk, gt, k)
                for name, v in (("ade", ade), ("fde", fde), ("bfde", _pm_brier(pk, gt, k, literal)),
                                ("mr", 1.0 if fde > MISS_THRESHOLD else 0.0),
                                ("miss", 1.0 if _pm_miss_top2(pk, gt, k) else 0.0)):
                    acc[k][name].append(v)
                cls[k]["ade"].append(ade)
                cls[k]["fde"].append(fde)
            if agent.road_bound:
                for p in pk:
                    total += 1
                    hits += _pm_offroad(p.traj_scene, polys)
    out = {"n_agents": n_agents, "n_scenes": len(dataset),
           "ORR": hits / total if total else 0.0,
           "per_class": {c: {str(k): {"minADE": float(np.mean(v[k]["ade"])),
                                      "minFDE": float(np.mean(v[k]["fde"]))} for k in ks}
                         for c, v in per_class.items()}}
    for name, key in (("minADE", "ade"), ("minFDE", "fde"), ("b_minFDE", "bfde"),
                      ("minMR", "mr"), ("missRateTopK_2", "miss")):
        out[name] = {str(k): float(np.mean(acc[k][key])) if acc[k][key] else math.nan
                     for k in ks}
    return out


class _NoisyFutures:
    """Stands in for a model: K modes for every agent, each its ground-truth
    future plus noise of a per-mode scale, with tied scores. Gives on-road and
    off-road modes, hits and misses, where an untrained model misses always."""

    def __init__(self, K=6, seed=0):
        self.K, self.rng = K, np.random.default_rng(seed)

    def predict(self, scene):
        preds = []
        for ai, a in enumerate(scene.agents):
            scores = self.rng.choice([0.1, 0.25, 0.4], size=self.K)
            for k, s in enumerate((0.0, 0.2, 0.6, 1.5, 4.0, 0.6)[:self.K]):
                fut = a.states[scene.t_history:, 0:2]
                traj = fut + self.rng.normal(0.0, s, fut.shape) + self.rng.normal(0.0, s, 2)
                preds.append(ModePrediction(a.id, ai, k, float(scores[k]), traj,
                                            np.ones_like(traj), traj))
        return preds


class _Replay:
    """Stands in for a model: returns predictions made beforehand."""

    def __init__(self, by_id):
        self.by_id = by_id

    def predict(self, scene):
        return self.by_id[scene.id]


def _oracle_scenes():
    return ([gen_scene(STYLE_A, (14, i), f"a{i}") for i in range(3)]
            + [gen_scene(STYLE_B, (15, i), f"b{i}") for i in range(3)]
            + [dense_overlay(STYLE_B, 16, tiles=4)])


@pytest.mark.parametrize("kind", ["goal", "baseline", "noisy"])
def test_evaluate_matches_per_mode_oracle(kind):
    scenes = _oracle_scenes()
    if kind == "noisy":
        model = _NoisyFutures()
    else:
        model = Model(ModelConfig(d_h=16, heads=4, K=6, ffn_hidden=32, dropout=0.0,
                                  variant=kind), seed=0)
    preds = [model.predict(s) for s in scenes]
    replay = _Replay({s.id: p for s, p in zip(scenes, preds)})
    ks = (1, 3, 6)
    for literal in (False, True):
        assert evaluate(replay, scenes, ks, literal).to_dict() == \
            _pm_report(scenes, preds, ks, literal), literal


def test_trajectory_offroad_stacked_matches_per_trajectory():
    """One stacked call per scene gives the per-trajectory verdicts, on
    perturbed ground-truth futures of road-bound agents."""
    rng = np.random.default_rng(17)
    on = off = 0
    for scene in _oracle_scenes():
        polys = [l.polygon() for l in scene.lanes]
        futs = [a.states[scene.t_history:, 0:2] for a in scene.agents
                if a.road_bound and a.valid[scene.t_history:].all()]
        trajs = np.stack([f + rng.normal(0.0, s, f.shape) + rng.normal(0.0, s, 2)
                          for f in futs for s in (0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 1.0, 3.0)])
        oracle = [_pm_offroad(t, polys) for t in trajs]
        assert [bool(trajectory_offroad(t, polys)) for t in trajs] == oracle
        assert trajectory_offroad(trajs, polys).tolist() == oracle
        off += sum(oracle)
        on += len(oracle) - sum(oracle)
    assert on > 50 and off > 50, (on, off)
