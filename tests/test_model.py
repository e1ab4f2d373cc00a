import copy
import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

import goalgraph.autodiff as ad
import goalgraph.graph as graph_mod
import goalgraph.model as model_mod
import goalgraph.training as training_mod
from goalgraph.autodiff import Tensor
from goalgraph.errors import ConfigError
from goalgraph.graph import EdgeSet, GraphConfig, build_graph
from goalgraph.geometry import to_local, to_scene
from goalgraph.model import Model, ModelConfig, ModePrediction, mode_predictions
from goalgraph.synthgen import STYLE_A, STYLE_B
from goalgraph.training import TrainConfig, compute_scene_loss

from conftest import const_vel_track, dense_overlay, make_line_scene, straight_lane
from goalgraph.scene import SIDES, Scene


def small_model(variant="goal", K=3, seed=0):
    cfg = ModelConfig(d_h=32, heads=4, K=K, T_f=30, ffn_hidden=64, dropout=0.0,
                      variant=variant)
    return Model(cfg, seed=seed)


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(d_h=30, heads=4)
    with pytest.raises(ConfigError):
        ModelConfig(K=0)
    with pytest.raises(ConfigError):
        ModelConfig(variant="other")
    for bad in (-0.1, 1.0, math.nan):
        with pytest.raises(ConfigError, match="dropout must be in"):
            ModelConfig(dropout=bad)
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        TrainConfig(seed=-1)


def test_config_roundtrip():
    """from_dict(to_dict(c)) == c through JSON for each config, at its
    defaults and with every field away from its default."""
    graph = GraphConfig(**{f.name: f.default + 1 for f in dataclasses.fields(GraphConfig)})
    changed = [
        graph,
        ModelConfig(d_h=64, heads=4, K=2, T_f=12, dropout=0.25, variant="baseline",
                    ffn_hidden=32, graph=graph),
        TrainConfig(lr_peak=1e-3, beta1=0.8, beta2=0.9, weight_decay=0.0, warmup_epochs=2,
                    total_epochs=5, batch_size=3, aug_scale_min=0.9, aug_scale_max=1.1,
                    aug_drop_frac=0.0, traj_loss_weight=2.0, focal_alpha=0.5,
                    focal_gamma=1.0, huber_delta=0.5, seed=7, adam_eps=1e-6),
    ]
    for cfg in changed:
        default = type(cfg)()
        assert all(getattr(cfg, f.name) != getattr(default, f.name)
                   for f in dataclasses.fields(cfg))
        for c in (default, cfg):
            assert type(c).from_dict(json.loads(json.dumps(c.to_dict()))) == c


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
    g = build_graph(line_scene, m.cfg.K, m.cfg.graph)
    emb = m.embed_nodes(g)["point"].value
    # find two center points with the same seg length and type
    side, length = line_scene.points["side"], line_scene.points["length"]
    pairs = [(i, j) for i in range(len(side)) for j in range(i + 1, len(side))
             if side[i] == side[j] and abs(length[i] - length[j]) < 1e-12]
    assert pairs
    i, j = pairs[0]
    assert np.allclose(emb[i], emb[j], atol=1e-12)


def test_side_category_changes_embedding(line_scene):
    m = small_model()
    g = build_graph(line_scene, m.cfg.K, m.cfg.graph)
    emb = m.embed_nodes(g)["point"].value
    side, length = line_scene.points["side"], line_scene.points["length"]
    left = next(i for i, s in enumerate(side) if SIDES[s] == "left")
    right = next(i for i, s in enumerate(side) if SIDES[s] == "right"
                 and abs(length[i] - length[left]) < 1e-9)
    assert not np.allclose(emb[left], emb[right])


@pytest.mark.parametrize("graph_K", [2, 4])
def test_forward_rejects_graph_built_for_other_K(line_scene, graph_K):
    """A graph built for another K is a config error in both directions: a
    larger K would index past the mode embeddings, a smaller one mis-assemble
    the modes."""
    m = small_model(K=3)
    g = build_graph(line_scene, graph_K, m.cfg.graph)
    with pytest.raises(ConfigError, match="K=3"):
        m.forward(line_scene, graph=g)
    assert len(m.forward(line_scene, graph=build_graph(line_scene, 3, m.cfg.graph)).score) == 3


def test_mode_queries_differ(line_scene):
    m = small_model(K=2)
    fr = m.forward(line_scene)
    q = fr.query_feats.value
    assert not np.allclose(q[0], q[1])


def test_softmax_arithmetic_oracle():
    # logits {2, 0, 0} -> scores {0.787, 0.107, 0.107}
    out = ad.softmax_grouped(Tensor(np.array([2.0, 0.0, 0.0])), ad.Segments(np.zeros(3, int)), 1)
    assert np.allclose(out.value, [0.787, 0.107, 0.107], atol=1e-3)


def test_local_scene_roundtrip():
    pose = np.array([3.0, -2.0, 0.7])
    pts = np.random.default_rng(0).standard_normal((10, 2)) * 5
    back = to_local(to_scene(pts, pose), pose)
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
        taped = mode_predictions(m.forward(sc))
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
    sel = Model.argmax_per_group(scores, groups, 3)
    # group 0 ties everywhere -> first edge position wins (edges are built in
    # ascending candidate order, so this is the lowest candidate id); group 2
    # has no edges
    assert sel.tolist() == [0, 5, -1]


def test_argmax_per_group_matches_loop():
    r = np.random.default_rng(4)
    for _ in range(50):
        groups = r.integers(0, 6, size=int(r.integers(1, 40)))
        scores = r.integers(0, 4, size=len(groups)) / 4.0  # many ties
        ref = [-1] * 6
        for pos, gid in enumerate(groups.tolist()):
            if ref[gid] < 0 or scores[pos] > scores[ref[gid]]:
                ref[gid] = pos
        assert Model.argmax_per_group(scores, groups, 6).tolist() == ref


def test_completion_cumsum_semantics():
    # delta-mu of (0.1, 0) per step must integrate to a straight ramp
    t = Tensor(np.tile([0.1, 0.0], (30, 1)))
    mu = ad.cumsum_axis(t, 0).value
    assert np.allclose(mu[:, 0], 0.1 * np.arange(1, 31))
    assert np.allclose(mu[:, 1], 0.0)


# -- shared edge feature rows against a per-edge reference

def _per_edge(e: EdgeSet) -> EdgeSet:
    """The set with its own feature row for every edge."""
    return EdgeSet(e.src, e.dst, e.feat[e.row], None if e.rel is None else e.rel[e.row],
                   np.arange(e.count))


def _run_forward_and_loss(m, scene, g):
    """Untaped predictions, then the taped training loss and every gradient."""
    with ad.no_grad():
        preds = mode_predictions(m.forward(scene, graph=g))
    m.ps.zero_grad()
    fr = m.forward(scene, rng=np.random.default_rng(0), graph=g)
    loss = compute_scene_loss(m, fr, scene, TrainConfig())[0]
    loss.backward()
    grads = {n: t.grad.copy() for n, t in m.ps.params.items() if t.grad is not None}
    return preds, float(loss.value), grads


@pytest.mark.parametrize("variant", ["goal", "baseline"])
@pytest.mark.parametrize("kind", ["pedestrians", "dense"])
def test_shared_edge_rows_match_per_edge_reference(kind, variant, monkeypatch):
    """Embedding each distinct edge feature row once and gathering it per edge
    gives bitwise the predictions of one row per edge; the taped loss and
    gradients differ only in summation order."""
    scene = (make_line_scene(n_vehicles=2, n_peds=2) if kind == "pedestrians"
             else dense_overlay(STYLE_B, 41, tiles=4))
    m = Model(ModelConfig(d_h=32, heads=4, K=6, ffn_hidden=64, dropout=0.0, variant=variant),
              seed=2)
    g = build_graph(scene, m.cfg.K, m.cfg.graph)
    ref = copy.copy(g)
    ref.edges = {et: _per_edge(e) for et, e in g.edges.items()}
    assert sum(len(e.feat) for e in g.edges.values()) < sum(len(e.feat) for e in ref.edges.values())
    shared = _run_forward_and_loss(m, scene, g)
    with monkeypatch.context() as mp:
        for mod in (model_mod, training_mod):  # teacher-forced and predicted point stages
            mp.setattr(mod, "build_decide_point_edges",
                       lambda gr, qs, lanes: _per_edge(
                           graph_mod.build_decide_point_edges(gr, qs, lanes)))
        want = _run_forward_and_loss(m, scene, ref)

    (preds, loss, grads), (preds_ref, loss_ref, grads_ref) = shared, want
    assert len(preds) == len(preds_ref) == m.cfg.K * len(g.predicted) > 0
    for a, b in zip(preds, preds_ref):
        for f in dataclasses.fields(ModePrediction):
            x, y = getattr(a, f.name), getattr(b, f.name)
            if isinstance(x, np.ndarray):
                assert x.tobytes() == y.tobytes(), f.name
            else:
                assert x == y, f.name
    assert abs(loss - loss_ref) <= 1e-12 * abs(loss_ref)
    assert grads.keys() == grads_ref.keys()
    for n in grads:
        assert np.abs(grads[n] - grads_ref[n]).max() <= 1e-12 * np.abs(grads_ref[n]).max(), n


def test_tape_peak_memory_dense_scene():
    """The tracemalloc peak of one taped forward, loss and backward on a
    fixed dense scene (23 agents, 32 lanes, 23,940 edges of which 8,640
    decide-nrb) at d_h=32 with dropout on. tracemalloc counts the arrays
    numpy allocates, so the figure does not depend on the machine.

    Measured: 135.8 MB when the attention op kept its per-edge q, k and v
    rows, the decide-edge hidden layer its gathers and sums, dropout a float
    mask and each MLP its pre-activation; 99.3 MB with the attention op's
    edge rows put back on the tape; 78.6 MB with each op keeping only what
    its backward needs, while the tape still held every op output until the
    backward reached it; 54.8 MB with a tape of grad nodes, where an op
    output that no backward reads goes with its Tensor; 34.9 MB with each
    MLP one op that rebuilds its hidden layer in the backward from its
    input. The bound lies between the last two."""
    scene = dense_overlay(STYLE_A, 1)
    cfg = ModelConfig(d_h=32)
    m = Model(cfg, seed=0)
    g = build_graph(scene, cfg.K, cfg.graph)
    assert g.edges["dec_nrb"].count == 8640
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fr = m.forward(scene, rng=np.random.default_rng(0), graph=g)
        loss = compute_scene_loss(m, fr, scene, TrainConfig(seed=0))[0]
        del fr
        loss.backward()
        peak_mb = (tracemalloc.get_traced_memory()[1] - base) / 1e6
    finally:
        tracemalloc.stop()
    assert peak_mb < 45.0, f"taped step peaked at {peak_mb:.1f} MB"


@pytest.mark.parametrize("variant", ["goal", "baseline"])
def test_tape_closures_hold_no_tensor(synth_scene, variant):
    """Every backward closure on a scene loss's tape saves arrays, never a
    Tensor, so an op output lives on the tape only where a backward saved
    its value; the tape's grad nodes hold no value either."""
    m = Model(ModelConfig(d_h=16, heads=4, K=2, ffn_hidden=16, variant=variant), seed=0)
    fr = m.forward(synth_scene, rng=np.random.default_rng(0))
    loss = compute_scene_loss(m, fr, synth_scene, TrainConfig(seed=0))[0]
    del fr
    seen, stack, ops = {id(loss.node)}, [loss.node], 0
    while stack:
        node = stack.pop()
        assert not hasattr(node, "value")
        if node._backward is not None:
            ops += 1
            cells = [c.cell_contents for c in node._backward.__closure__ or ()]
            assert not any(isinstance(c, Tensor) for c in cells), node._backward
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    assert ops > 100
    loss.backward()
