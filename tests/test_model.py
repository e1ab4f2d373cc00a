import math

import numpy as np
import pytest

import goalgraph.autodiff as ad
from goalgraph.autodiff import Tensor
from goalgraph.errors import ConfigError
from goalgraph.model import Model, ModelConfig, _local_to_scene, scene_to_local

from conftest import const_vel_track, make_line_scene, straight_lane
from goalgraph.scene import Scene


def small_model(variant="goal", K=3, seed=0):
    cfg = ModelConfig(d_h=32, heads=4, K=K, T_h=10, T_f=30,
                      ffn_hidden=64, dropout=0.0, variant=variant)
    return Model(cfg, seed=seed)


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(d_h=30, heads=4)
    with pytest.raises(ConfigError):
        ModelConfig(K=0)
    with pytest.raises(ConfigError):
        ModelConfig(variant="other")


def test_config_roundtrip():
    cfg = ModelConfig(d_h=64, heads=8, K=6, brier_literal=True)
    cfg2 = ModelConfig.from_dict(cfg.to_dict())
    assert cfg2 == cfg


def test_prediction_counts(synth_scene):
    m = small_model(K=3)
    preds = m.predict(synth_scene)
    n_pred = len(synth_scene.predicted_agents())
    assert len(preds) == 3 * n_pred


def test_scores_sum_to_one(synth_scene):
    m = small_model(K=3)
    preds = m.predict(synth_scene)
    by_agent = {}
    for p in preds:
        by_agent.setdefault(p.agent_idx, []).append(p.score)
    for scores in by_agent.values():
        assert sum(scores) == pytest.approx(1.0, abs=1e-6)
        assert all(s > 0 for s in scores)


def test_trajectory_scale_floor(synth_scene):
    m = small_model(K=2)
    for p in m.predict(synth_scene):
        assert (p.traj_b >= 1e-3).all()


def test_rb_predictions_have_goal_stages(line_scene):
    m = small_model(K=2)
    preds = m.predict(line_scene)
    for p in preds:
        assert p.selected_lane_id in {"L0", "L1", "L2"}
        assert p.selected_point_idx is not None
        assert p.goal_scene is not None
        # offset-addition arithmetic: goal = point pose (+) rotated offset
        c, s = math.cos(p.selected_point_pose[2]), math.sin(p.selected_point_pose[2])
        gx = p.selected_point_pose[0] + c * p.goal_offset[0] - s * p.goal_offset[1]
        gy = p.selected_point_pose[1] + s * p.goal_offset[0] + c * p.goal_offset[1]
        assert (gx, gy) == pytest.approx(tuple(p.goal_scene), abs=1e-9)


def test_nrb_agent_uses_candidate_circle():
    T = 40
    lane = straight_lane("L0", 0, 0, 60.0)
    v = const_vel_track("v", "vehicle", 2, 0, 10, 0, T)
    p = const_vel_track("p", "pedestrian", 5, 8, 1.0, 0.2, T)
    sc = Scene("s", 0.1, 10, 30, [v, p], [lane])
    m = small_model(K=2)
    preds = [q for q in m.predict(sc) if q.agent_id == "p"]
    assert preds and all(q.selected_lane_id is None for q in preds)
    assert all(q.goal_scene is not None for q in preds)


def test_baseline_no_goal_fields(synth_scene):
    m = small_model(variant="baseline", K=3)
    preds = m.predict(synth_scene)
    assert len(preds) == 3 * len(synth_scene.predicted_agents())
    for p in preds:
        assert p.selected_lane_id is None and p.goal_scene is None
    by_agent = {}
    for p in preds:
        by_agent.setdefault(p.agent_idx, []).append(p.score)
    for scores in by_agent.values():
        assert sum(scores) == pytest.approx(1.0, abs=1e-6)


def test_deterministic_forward(synth_scene):
    m1, m2 = small_model(seed=5), small_model(seed=5)
    p1, p2 = m1.predict(synth_scene), m2.predict(synth_scene)
    for a, b in zip(p1, p2):
        assert np.array_equal(a.traj_scene, b.traj_scene)
        assert a.score == b.score


def test_embedding_purity(line_scene):
    """Two identical raw point features embed identically."""
    m = small_model()
    g = m.get_graph(line_scene)
    emb = m.embed_nodes(g)["point"].value
    # find two center points with the same seg length and type
    pts = line_scene.points
    pairs = [(i, j) for i in range(len(pts)) for j in range(i + 1, len(pts))
             if pts[i].side == pts[j].side
             and abs(pts[i].seg_length - pts[j].seg_length) < 1e-12]
    assert pairs
    i, j = pairs[0]
    assert np.allclose(emb[i], emb[j], atol=1e-12)


def test_side_category_changes_embedding(line_scene):
    m = small_model()
    g = m.get_graph(line_scene)
    emb = m.embed_nodes(g)["point"].value
    pts = line_scene.points
    left = next(i for i, p in enumerate(pts) if p.side == "left")
    right = next(i for i, p in enumerate(pts) if p.side == "right"
                 and abs(pts[i].seg_length - pts[left].seg_length) < 1e-9)
    assert not np.allclose(emb[left], emb[right])


def test_mode_queries_differ(line_scene):
    m = small_model(K=2)
    fr = m.forward(line_scene, train=False)
    q = fr.query_feats.value
    assert not np.allclose(q[0], q[1])


def test_softmax_arithmetic_oracle():
    # logits {2, 0, 0} -> scores {0.787, 0.107, 0.107}
    out = ad.softmax_grouped(Tensor(np.array([2.0, 0.0, 0.0])), np.zeros(3, int))
    assert np.allclose(out.value, [0.787, 0.107, 0.107], atol=1e-3)


def test_local_scene_roundtrip():
    pose = np.array([3.0, -2.0, 0.7])
    pts = np.random.default_rng(0).standard_normal((10, 2)) * 5
    back = scene_to_local(_local_to_scene(pts, pose), pose)
    assert np.allclose(back, pts, atol=1e-9)


def test_se2_invariance_full_model(synth_scene):
    m = small_model(K=3)
    p0 = m.predict(synth_scene)
    sc2 = synth_scene.transformed(41.0, -17.0, 1.31)
    p1 = m.predict(sc2)
    assert len(p0) == len(p1)
    for a, b in zip(p0, p1):
        assert a.agent_id == b.agent_id and a.mode == b.mode
        assert a.selected_lane_id == b.selected_lane_id
        assert a.selected_point_idx == b.selected_point_idx
        assert abs(a.score - b.score) < 1e-6
        assert np.allclose(a.traj_mu_local, b.traj_mu_local, atol=1e-6)
        assert np.allclose(a.traj_b, b.traj_b, atol=1e-6)


def test_se2_invariance_baseline(synth_scene):
    m = small_model(variant="baseline", K=2)
    p0 = m.predict(synth_scene)
    p1 = m.predict(synth_scene.transformed(-9.0, 23.0, -2.5))
    for a, b in zip(p0, p1):
        assert abs(a.score - b.score) < 1e-6
        assert np.allclose(a.traj_mu_local, b.traj_mu_local, atol=1e-6)


def test_agent_permutation_equivariance():
    T = 40
    lane = straight_lane("L0", 0, 0, 80.0)
    a = const_vel_track("a", "vehicle", 2, 0, 10, 0, T)
    b = const_vel_track("b", "vehicle", 10, 1.0, 9, 0, T)
    sc1 = Scene("s1", 0.1, 10, 30, [a, b], [lane])
    sc2 = Scene("s2", 0.1, 10, 30, [b, a], [lane])
    m = small_model(K=2)
    p1 = {(p.agent_id, p.mode): p for p in m.predict(sc1)}
    p2 = {(p.agent_id, p.mode): p for p in m.predict(sc2)}
    assert p1.keys() == p2.keys()
    for k in p1:
        assert np.allclose(p1[k].traj_mu_local, p2[k].traj_mu_local, atol=1e-9)
        assert abs(p1[k].score - p2[k].score) < 1e-9


@pytest.mark.parametrize("variant", ["goal", "baseline"])
def test_predict_equals_taped_forward(synth_scene, variant):
    """predict (no tape) and a grad-enabled forward run the same arithmetic."""
    m = small_model(variant=variant, K=3)
    for sc in (synth_scene, make_line_scene(n_vehicles=2, n_peds=1)):
        fast = m.predict(sc)
        taped = m.forward(sc, train=False).preds
        assert len(fast) == len(taped) > 0
        for a, b in zip(fast, taped):
            assert a.score == b.score
            assert np.array_equal(a.traj_scene, b.traj_scene)
            assert np.array_equal(a.traj_b, b.traj_b)
            assert a.selected_lane_idx == b.selected_lane_idx
            assert a.selected_point_idx == b.selected_point_idx
            if variant == "goal":
                assert np.array_equal(a.goal_scene, b.goal_scene)


def test_argmax_tie_break_first_position():
    scores = np.array([0.25, 0.25, 0.25, 0.25, 0.4, 0.6])
    groups = np.array([0, 0, 0, 0, 1, 1])
    sel = Model.argmax_per_group(scores, groups)
    # group 0 ties everywhere -> first edge position wins (edges are built in
    # ascending candidate order, so this is the lowest candidate id)
    assert sel == {0: 0, 1: 5}


def test_argmax_per_group_matches_loop():
    r = np.random.default_rng(4)
    for _ in range(50):
        groups = r.integers(0, 6, size=int(r.integers(1, 40)))
        scores = r.integers(0, 4, size=len(groups)) / 4.0  # many ties
        ref = {}
        for pos, gid in enumerate(groups.tolist()):
            if gid not in ref or scores[pos] > scores[ref[gid]]:
                ref[gid] = pos
        assert Model.argmax_per_group(scores, groups) == ref


def test_completion_cumsum_semantics():
    # delta-mu of (0.1, 0) per step must integrate to a straight ramp
    t = Tensor(np.tile([0.1, 0.0], (30, 1)))
    mu = ad.cumsum_axis(t, 0).value
    assert np.allclose(mu[:, 0], 0.1 * np.arange(1, 31))
    assert np.allclose(mu[:, 1], 0.0)
