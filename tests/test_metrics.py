import math

import numpy as np
import pytest

from goalgraph.errors import ConfigError, DataError
from goalgraph.metrics import (
    LANE_EPS,
    MISS_THRESHOLD,
    agent_metrics,
    evaluate,
    trajectory_offroad,
    write_report,
)
from goalgraph.graph import GraphConfig, _seed_lanes
from goalgraph.model import Model, ModelConfig, ModePrediction
from goalgraph.scene import LaneDef, Scene
from goalgraph.synthgen import STYLE_A, STYLE_B, gen_scene

from conftest import (dense_overlay, make_line_scene, points_in_polygon,
                      points_near_polygon_boundary, seed_lanes_per_lane, straight_lane)


def mk(mode, traj, score):
    traj = np.asarray(traj, dtype=float)
    return ModePrediction(agent_id="a", agent_idx=0, mode=mode, score=score,
                          traj_mu_local=traj, traj_b=np.ones_like(traj),
                          traj_scene=traj)


def agent_row(preds, gt, K):
    """agent_metrics of one agent's list of modes, as Python scalars."""
    trajs = np.stack([p.traj_scene for p in preds])[None]
    scores = np.array([[p.score for p in preds]])
    return tuple(v.item() for v in agent_metrics(trajs, scores, np.asarray(gt)[None], K))


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


def _oracle_brier(preds, gt, K):
    top = _oracle_topk(preds, K)
    fdes = [np.linalg.norm(p.traj_scene[-1] - gt[-1]) for p in top]
    best = min(range(len(top)), key=lambda i: (fdes[i], -top[i].score))
    return fdes[best] + (1.0 - top[best].score) ** 2


def test_perfect_prediction_zero():
    gt = np.random.default_rng(0).normal(0, 5, (10, 2))
    preds = [mk(0, gt, 1.0)]
    assert agent_row(preds, gt, 1) == (0.0, 0.0, 0.0, False)  # s=1 -> no penalty


def test_three_four_five():
    gt = np.zeros((6, 2))
    preds = [mk(0, np.tile([3.0, 4.0], (6, 1)), 1.0)]
    ade, fde, _, _ = agent_row(preds, gt, 1)
    assert ade == pytest.approx(5.0, abs=1e-12)
    assert fde == pytest.approx(5.0, abs=1e-12)


def test_brier_half_score():
    gt = np.zeros((4, 2))
    preds = [mk(0, np.tile([1.0, 0.0], (4, 1)), 0.5)]
    assert agent_row(preds, gt, 1)[2] == pytest.approx(1.25, abs=1e-12)


def test_miss_threshold_exact():
    gt = np.zeros((4, 2))
    hit = [mk(0, np.tile([1.9, 0.0], (4, 1)), 1.0)]
    miss = [mk(0, np.tile([2.1, 0.0], (4, 1)), 1.0)]
    assert not agent_row(hit, gt, 1)[3]
    assert agent_row(miss, gt, 1)[3]
    assert MISS_THRESHOLD == 2.0


def test_topk_uses_highest_scores():
    gt = np.zeros((4, 2))
    good = mk(0, gt, 0.1)                          # perfect but low score
    bad = mk(1, np.tile([9.0, 0.0], (4, 1)), 0.9)  # poor but high score
    assert agent_row([good, bad], gt, 1)[1] == pytest.approx(9.0)
    assert agent_row([good, bad], gt, 2)[1] == 0.0


def test_shape_mismatch_raises():
    gt = np.zeros((5, 2))
    with pytest.raises(DataError):
        agent_row([mk(0, np.zeros((4, 2)), 1.0)], gt, 1)
    # evaluate checks every mode, one outside the top K too, before it stacks them
    sc = make_line_scene(n_vehicles=2)
    fut = sc.agents[0].states[sc.t_history:, 0:2]
    for short in (fut[:-1], fut[:, :1]):
        preds = [mk(0, fut, 1.0), mk(1, short, 0.5)]
        with pytest.raises(DataError, match="modes of shape"):
            evaluate(_Replay({sc.id: preds}), [sc], ks=(1,))
    # and that every agent has as many modes as the first
    other = ModePrediction(sc.agents[1].id, 1, 0, 1.0, fut, np.ones_like(fut), fut)
    with pytest.raises(DataError, match="every agent needs 2 modes"):
        evaluate(_Replay({sc.id: [mk(0, fut, 1.0), mk(1, fut, 0.5), other]}), [sc], ks=(1,))


def test_agent_metrics_on_stacked_agents():
    """Scoring A agents from one (A, M, T, 2) array gives each agent's own
    row, bit for bit, with tied scores and FDE ties among them."""
    rng = np.random.default_rng(5)
    for _ in range(50):
        A, M, T = int(rng.integers(1, 6)), int(rng.integers(1, 7)), int(rng.integers(1, 9))
        trajs = np.round(rng.normal(0, 3, (A, M, T, 2)) * 2) / 2
        scores = rng.choice([0.1, 0.25, 0.4, 1.0], (A, M))
        gt = np.round(rng.normal(0, 3, (A, T, 2)) * 2) / 2
        for K in range(1, M + 2):
            rows = list(zip(*(v.tolist() for v in agent_metrics(trajs, scores, gt, K))))
            for i in range(A):
                preds = [mk(k, trajs[i, k], float(scores[i, k])) for k in range(M)]
                assert rows[i] == agent_row(preds, gt[i], K)
                assert rows[i][:3] == pytest.approx(
                    (_oracle_ade(preds, gt[i], K), _oracle_fde(preds, gt[i], K),
                     _oracle_brier(preds, gt[i], K)), abs=1e-12)
                assert rows[i][3] == _oracle_miss_top2(preds, gt[i], K)
    # the Brier penalty squares as the per-mode report did, in Python floats:
    # numpy's square rounds about one score in a thousand the other way. Mode
    # 0 ends on the ground truth, so that brier-minFDE is its penalty alone.
    trajs = rng.normal(0, 3, (4000, 3, 2, 2))
    gt, scores = trajs[:, 0].copy(), rng.random((4000, 3))
    bfde = agent_metrics(trajs, scores, gt, 3)[2].tolist()
    assert bfde == [_pm_brier([mk(k, t[k], float(s[k])) for k in range(3)], g, 3)
                    for t, s, g in zip(trajs, scores, gt)]


def test_metrics_match_oracles_1000():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        preds, gt, K = random_case(rng)
        k_eval = int(rng.integers(1, K + 1))
        ade, fde, bfde, miss = agent_row(preds, gt, k_eval)
        assert ade == pytest.approx(_oracle_ade(preds, gt, k_eval), abs=1e-12)
        assert fde == pytest.approx(_oracle_fde(preds, gt, k_eval), abs=1e-12)
        assert miss == _oracle_miss_top2(preds, gt, k_eval)
        assert bfde == pytest.approx(_oracle_brier(preds, gt, k_eval), abs=1e-12)


def test_metrics_monotone_in_k():
    rng = np.random.default_rng(7)
    for _ in range(100):
        preds, gt, K = random_case(rng)
        ades, fdes, _, _ = zip(*(agent_row(preds, gt, k) for k in range(1, K + 1)))
        assert all(a >= b - 1e-12 for a, b in zip(ades, ades[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(fdes, fdes[1:]))


def test_brier_lower_bounded_by_fde():
    rng = np.random.default_rng(8)
    for _ in range(200):
        preds, gt, K = random_case(rng)
        _, fde, bfde, _ = agent_row(preds, gt, K)
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


def test_evaluate_no_scorable_agent(tmp_path, small_mcfg):
    """A set in which no agent has a fully valid future is a DataError, as an
    empty one is: its means would be NaN, which strict JSON cannot hold.
    One scorable agent anywhere in the set makes a finite report."""
    m = Model(small_mcfg, seed=0)
    sc = gen_scene(STYLE_A, (12, 0), "s0")
    for a in sc.agents:
        a.states[-1, 4] = 0.0
    with pytest.raises(DataError, match="no agent could be scored"):
        evaluate(m, [sc], ks=(1,))
    rep = evaluate(m, [sc, gen_scene(STYLE_A, (12, 1), "s1")], ks=(1,))
    write_report(rep, str(tmp_path / "r.csv"), str(tmp_path / "r.json"))
    import json as _json
    d = _json.loads((tmp_path / "r.json").read_text(),
                    parse_constant=lambda c: pytest.fail(f"non-standard JSON constant {c}"))
    assert rep.n_agents > 0 and all(math.isfinite(v) for v in d["minFDE"].values())


def test_evaluate_k_below_one(small_mcfg):
    m = Model(small_mcfg, seed=0)
    scenes = [gen_scene(STYLE_A, (12, 0), "s0")]
    for ks in ((0,), (1, -1)):
        with pytest.raises(ConfigError):
            evaluate(m, scenes, ks=ks)
    # a k above the model's K uses all of its modes
    assert evaluate(m, scenes, ks=(9,)).minFDE[9] == evaluate(m, scenes, ks=(3,)).minFDE[3]


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
            vals.append(agent_row(pk, fut[:, :2], 3)[1])
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


def _pm_brier(preds_k, gt, K):
    top = _pm_top_k(preds_k, K)
    fdes = [float(np.hypot(*(p.traj_scene[-1] - gt[-1]))) for p in top]
    best = min(range(len(top)), key=lambda i: (fdes[i], -top[i].score))
    return fdes[best] + (1.0 - top[best].score) ** 2


def _pm_offroad(traj, lane_polys, eps=0.1):
    covered = np.zeros(len(traj), dtype=bool)
    for poly in lane_polys:
        covered |= points_in_polygon(traj, poly)
        covered |= points_near_polygon_boundary(traj, poly, eps)
    return not covered.all()


def _pm_report(dataset, preds_per_scene, ks):
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
                for name, v in (("ade", ade), ("fde", fde), ("bfde", _pm_brier(pk, gt, k)),
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
    assert evaluate(replay, scenes, ks).to_dict() == _pm_report(scenes, preds, ks)


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


# --- the lane test against the unculled per-lane loop ---------------------------

def _all_lanes_offroad(trajs, lane_polys, eps=LANE_EPS):
    """trajectory_offroad with no box pre-test: every waypoint against every
    edge of every lane polygon. Kept as the oracle."""
    trajs = np.asarray(trajs, dtype=float)
    pts = trajs.reshape(-1, 2)
    on = np.zeros(len(pts), dtype=bool)
    for poly in lane_polys:
        on |= points_in_polygon(pts, poly)
        on |= points_near_polygon_boundary(pts, poly, eps)
    off = ~on.reshape(trajs.shape[:-1]).all(axis=-1)
    return off if off.ndim else bool(off)


def _adversarial_points(polys, eps=LANE_EPS, tiny=1e-12):
    """Points where a box pre-test padded too little, a bisection of the
    wrong inclusivity or a pair test that skips a deciding edge would change
    a verdict: polygon vertices; points eps and 2 eps +- tiny outside each
    side of each lane's box, level with its extreme vertices and spread along
    the side; columns of points that share an x, on the padded box's x-bounds
    exactly as the lane test computes them, at a vertex and across the box;
    points eps (1 +- tiny) from each edge midpoint along the edge normal, on
    both sides; points 2 eps and 2 eps +- tiny outside each edge's own box;
    points level with each vertex's y, left of, across and right of the box
    (the points left of it cross the whole polygon)."""
    out = []
    for poly in polys:
        poly = np.asarray(poly, dtype=float)
        lo, hi = poly.min(axis=0), poly.max(axis=0)
        out.append(poly)
        for o in (eps, 2 * eps - tiny, 2 * eps, 2 * eps + tiny):
            for ax in (0, 1):
                other = 1 - ax
                along = np.concatenate([np.linspace(lo[other], hi[other], 5),
                                        poly[poly[:, ax] == lo[ax], other],
                                        poly[poly[:, ax] == hi[ax], other]])
                for edge, sign in ((lo[ax], -1.0), (hi[ax], 1.0)):
                    p = np.empty((len(along), 2))
                    p[:, ax], p[:, other] = edge + sign * o, along
                    out.append(p)
        plo, phi = lo - 2 * eps, hi + 2 * eps
        ys = np.concatenate([np.linspace(plo[1], phi[1], 7), poly[:3, 1]])
        for x in (plo[0], phi[0], poly[0, 0], 0.5 * (lo[0] + hi[0])):
            out.append(np.stack([np.full(len(ys), x), ys], axis=1))
        a, b = poly, np.roll(poly, -1, axis=0)
        ab = b - a
        length = np.hypot(ab[:, 0], ab[:, 1])
        keep = length > 0
        normal = np.stack([-ab[keep, 1], ab[keep, 0]], axis=1) / length[keep, None]
        mid = 0.5 * (a[keep] + b[keep])
        for f in (1.0 - tiny, 1.0 + tiny):
            out += [mid + f * eps * normal, mid - f * eps * normal]
        elo, ehi, emid = np.minimum(a, b), np.maximum(a, b), 0.5 * (a + b)
        for o in (2 * eps - tiny, 2 * eps, 2 * eps + tiny):
            for ax, bound, sign in ((0, elo, -1.0), (0, ehi, 1.0), (1, elo, -1.0), (1, ehi, 1.0)):
                p = emid.copy()
                p[:, ax] = bound[:, ax] + sign * o
                out.append(p)
        for x in np.concatenate([[lo[0] - 7.0], np.linspace(lo[0] - 1.0, hi[0] + 1.0, 7)]):
            ys = np.concatenate([np.linspace(lo[1], hi[1], 9), poly[:, 1]])
            out.append(np.stack([np.full(len(ys), x), ys], axis=1))
    return np.concatenate(out)


def _offroad_cases():
    """(name, lanes, points) per case: synthgen A and B scenes, a dense
    overlay, a zero-width lane next to a normal one, and a lane that tapers
    to a point, whose polygon repeats a vertex at the tip and, by hand, one
    more on its left boundary. Axis-aligned lanes have horizontal edges."""
    scenes = ([gen_scene(STYLE_A, (18, i), f"a{i}") for i in range(3)]
              + [gen_scene(STYLE_B, (19, i), f"b{i}") for i in range(3)]
              + [dense_overlay(STYLE_B, 20, tiles=6)])
    lane_sets = [(s.id, s.lanes) for s in scenes]
    flat = straight_lane("flat", 0.0, 0.0, 20.0, width=0.0)
    wide = straight_lane("wide", 0.0, 10.0, 20.0, heading=0.3)
    lane_sets.append(("zero-width", [flat, wide]))
    center = np.stack([np.linspace(0.0, 20.0, 11), np.full(11, -20.0)], axis=1)
    half = np.stack([np.zeros(11), np.linspace(1.5, 0.0, 11)], axis=1)
    left = np.insert(center + half, 4, (center + half)[4], axis=0)
    taper = LaneDef("taper", "lane", center, left, center - half)
    lane_sets.append(("repeated-vertex", [taper, straight_lane("beside", 0.0, -16.0, 20.0)]))
    return [(name, lanes, _adversarial_points([l.polygon() for l in lanes]))
            for name, lanes in lane_sets]


def test_trajectory_offroad_matches_per_lane_oracle():
    """The lane test's verdicts equal the unculled loop's under ==, per
    waypoint (as one-waypoint trajectories) and per trajectory, on points
    chosen at the edge of each lane's padded box and of its eps band."""
    rng = np.random.default_rng(21)
    on = off = traj_on = traj_off = 0
    for name, lanes, pts in _offroad_cases():
        polys = [l.polygon() for l in lanes]
        oracle = _all_lanes_offroad(pts[:, None, :], polys)
        assert trajectory_offroad(pts[:, None, :], polys).tolist() == oracle.tolist(), name
        on += int((~oracle).sum())
        off += int(oracle.sum())
        # trajectories of 6 waypoints: on-lane points, then one of them swapped
        # for any point of the case
        trajs = pts[~oracle][rng.integers(0, int((~oracle).sum()), (200, 6))]
        trajs[100:, 3] = pts[rng.integers(0, len(pts), 100)]
        expect = _all_lanes_offroad(trajs, polys)
        assert trajectory_offroad(trajs, polys).tolist() == expect.tolist(), name
        for t, e in zip(trajs[98:103], expect[98:103]):
            assert trajectory_offroad(t, polys) is bool(e), name
        traj_on += int((~expect).sum())
        traj_off += int(expect.sum())
    assert on > 1000 and off > 1000, (on, off)
    assert traj_on > 500 and traj_off > 300, (traj_on, traj_off)
    # with no lane every trajectory is off, and a single (T, 2) input gives a bool
    assert trajectory_offroad(trajs, []).tolist() == [True] * len(trajs)
    assert trajectory_offroad(trajs[0], []) is True


def test_seed_lanes_match_per_lane_oracle():
    """graph._seed_lanes, one even-odd pass over every lane's edges, gives the
    seeds of the per-lane points_in_polygon loop, on the vertices, edge
    midpoints and box corners of every lane of every lane test case."""
    cfg = GraphConfig()
    inside = 0
    for name, lanes, _ in _offroad_cases():
        scene = Scene(name, 0.1, 10, 30, [], lanes)
        xy = []
        for poly in (l.polygon() for l in lanes):
            (x0, y0), (x1, y1) = poly.min(axis=0), poly.max(axis=0)
            xy += [poly, 0.5 * (poly + np.roll(poly, -1, axis=0)),
                   [[x0, y0], [x0, y1], [x1, y0], [x1, y1]]]
        xy = np.concatenate(xy)
        want = seed_lanes_per_lane(scene, xy, cfg)
        assert _seed_lanes(scene, xy, cfg) == want, name
        inside += sum(int(points_in_polygon(xy, l.polygon()).sum()) for l in lanes)
    assert inside > 1000, inside
