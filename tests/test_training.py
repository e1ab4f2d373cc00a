import copy
import functools
import math
import tracemalloc
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import goalgraph.autodiff as ad
import goalgraph.model as model_mod
import goalgraph.nn as nn
import goalgraph.training as training
from goalgraph.autodiff import Tensor
from goalgraph.errors import ConfigError
from goalgraph.geometry import polyline_distances
from goalgraph.graph import HeteroGraph, build_graph, reachable_lanes
from goalgraph.model import Model, ModelConfig, ModePrediction
from goalgraph.scene import AgentTrack, LaneDef, Scene
from goalgraph.synthgen import STYLE_A, STYLE_B, gen_scene
from goalgraph.training import (
    AdamW,
    TrainConfig,
    augment_scene,
    compute_scene_loss,
    focal_loss_tensor,
    huber_loss_tensor,
    laplace_nll_tensor,
    load_model,
    lr_schedule,
    nearest_decide_edges,
    save_model,
    select_winners,
    train,
)

from conftest import (
    const_vel_track,
    dense_overlay,
    make_line_scene,
    nearest_candidate,
    nearest_lanes,
    point_to_polyline_distance,
    stage_targets_loop,
    straight_lane,
    winner_of,
)


# --- the taped losses training runs, against closed forms ----------------------

def focal(p_t, alpha, gamma):
    return float(focal_loss_tensor(Tensor(np.array([p_t])), alpha, gamma).value)


def huber(pred, gt, delta):
    return float(huber_loss_tensor(Tensor(np.asarray(pred) - np.asarray(gt)), delta).value)


def laplace(mu, b, gt):
    return float(laplace_nll_tensor(Tensor(mu), Tensor(b), gt).value)


def test_focal_loss_values():
    assert focal(1.0, 0.75, 2.0) == pytest.approx(0.0, abs=1e-12)
    # p_t = 0.5, alpha 0.75, gamma 2 -> 0.75 * 0.25 * log 2
    expected = 0.75 * 0.25 * math.log(2.0)
    assert focal(0.5, 0.75, 2.0) == pytest.approx(expected, abs=1e-12)


@settings(max_examples=100)
@given(st.floats(1e-6, 1.0 - 1e-9))
def test_focal_gamma0_is_cross_entropy(p):
    assert focal(p, 1.0, 0.0) == pytest.approx(-math.log(p), abs=1e-10)


def test_huber_values():
    assert huber(np.zeros(2), np.zeros(2), 1.0) == 0.0
    assert huber(np.array([0.5]), np.array([0.0]), 1.0) == pytest.approx(0.125, abs=1e-12)
    assert huber(np.array([3.0]), np.array([0.0]), 1.0) == pytest.approx(2.5, abs=1e-12)


def test_laplace_nll_values():
    mu = np.zeros((4, 2))
    gt = np.zeros((4, 2))
    assert laplace(mu, np.full((4, 2), 0.5), gt) == pytest.approx(0.0, abs=1e-12)
    assert laplace(mu, np.ones((4, 2)), gt) == pytest.approx(math.log(2.0), abs=1e-12)
    assert laplace(mu, np.ones((4, 2)), gt + 1.0) == pytest.approx(math.log(2.0) + 1.0, abs=1e-12)


@settings(max_examples=50)
@given(st.floats(-5, 5), st.floats(0.05, 3.0), st.floats(-5, 5))
def test_laplace_nll_closed_form(mu, b, gt):
    got = laplace(np.array([[mu]]), np.array([[b]]), np.array([[gt]]))
    assert got == pytest.approx(math.log(2 * b) + abs(gt - mu) / b, abs=1e-12)


# --- schedule / optimizer ----------------------------------------------------

def test_lr_schedule_endpoints():
    total, warm, peak = 400, 40, 5e-4
    assert lr_schedule(0, total, warm, peak) == 0.0
    assert lr_schedule(warm, total, warm, peak) == pytest.approx(peak, abs=1e-15)
    assert lr_schedule(total, total, warm, peak) == pytest.approx(0.0, abs=1e-12)


def test_lr_schedule_continuous_at_junction():
    total, warm, peak = 1000, 100, 5e-4
    below = lr_schedule(warm - 1, total, warm, peak)
    at = lr_schedule(warm, total, warm, peak)
    assert at - below < peak / warm + 1e-12
    assert abs(at - peak) < 1e-12


def test_lr_schedule_monotone_segments():
    total, warm, peak = 200, 20, 5e-4
    vals = [lr_schedule(s, total, warm, peak) for s in range(total + 1)]
    assert all(a <= b + 1e-15 for a, b in zip(vals[:warm], vals[1:warm + 1]))
    assert all(a >= b - 1e-15 for a, b in zip(vals[warm:-1], vals[warm + 1:]))


def test_adamw_decays_affine_weights_only():
    ps = nn.ParamStore(seed=0)
    nn.create_affine(ps, "a", 3, 3)
    cfg = TrainConfig(weight_decay=0.5, lr_peak=1.0)
    opt = AdamW(ps, cfg)
    w0 = ps["a.W"].value.copy()
    b0 = ps["a.b"].value.copy()
    ps["a.W"].grad = np.zeros((3, 3))
    ps["a.b"].grad = np.zeros(3)
    opt.step(lr=0.1)
    assert np.allclose(ps["a.W"].value, w0 * (1 - 0.1 * 0.5))
    assert np.array_equal(ps["a.b"].value, b0)


def test_adamw_single_step_matches_formula():
    ps = nn.ParamStore(seed=0)
    w = ps.create("w", (2,), init="zeros")
    w.value[:] = [1.0, -2.0]
    g = np.array([0.3, -0.1])
    w.grad = g.copy()
    cfg = TrainConfig(weight_decay=0.0)
    opt = AdamW(ps, cfg)
    opt.step(lr=1e-3)
    b1, b2, eps = 0.9, 0.95, 1e-8
    m = (1 - b1) * g / (1 - b1)
    v = (1 - b2) * g * g / (1 - b2)
    expected = np.array([1.0, -2.0]) - 1e-3 * m / (np.sqrt(v) + eps)
    assert np.allclose(w.value, expected, atol=1e-15)


def test_train_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        TrainConfig.from_dict({"learning_rate": 1.0})


# --- winner selection ---------------------------------------------------------

def _mk_pred(mode, lane_idx, point_xy, goal_xy, endpoint=None):
    T = 5
    traj = np.zeros((T, 2))
    if endpoint is not None:
        traj[-1] = endpoint
    return ModePrediction(
        agent_id="a", agent_idx=0, mode=mode, score=1.0,
        traj_mu_local=traj, traj_b=np.ones((T, 2)), traj_scene=traj,
        selected_lane_idx=lane_idx,
        selected_point_pose=np.array([*point_xy, 0.0]),
        goal_scene=np.asarray(goal_xy, dtype=float))


def _lane_mid(scene):
    """Each lane's midpoint, the rows the lane stage's distances read."""
    return np.array([[m.x, m.y] for m in (lane.midpoint_pose() for lane in scene.lanes)])


def _winner_oracle(preds, gt, scene, rb):
    """Brute-force lexicographic (lane dist, point dist, goal dist, index)."""
    keys = []
    for p in preds:
        lane_d = 0.0
        if rb:
            mp = scene.lanes[p.selected_lane_idx].midpoint_pose()
            lane_d = math.hypot(mp.x - gt[0], mp.y - gt[1])
        pt_d = math.hypot(p.selected_point_pose[0] - gt[0],
                          p.selected_point_pose[1] - gt[1])
        g_d = math.hypot(p.goal_scene[0] - gt[0], p.goal_scene[1] - gt[1])
        keys.append((lane_d, pt_d, g_d, p.mode))
    return min(range(len(preds)), key=lambda k: keys[k])


def test_winner_distinct_lanes_stage1(line_scene):
    gt = np.array([55.0, 0.0])  # near L0 end; lane midpoints at x=30, 90, 150
    preds = [_mk_pred(0, 1, (80, 0), (80, 0)),
             _mk_pred(1, 0, (50, 0), (50, 0)),
             _mk_pred(2, 2, (140, 0), (140, 0))]
    assert winner_of(preds, gt, _lane_mid(line_scene)) == (1, 1)


def test_winner_identical_modes_tie(line_scene):
    preds = [_mk_pred(k, 0, (50, 0), (50, 0)) for k in range(3)]
    assert winner_of(preds, np.array([55.0, 0.0]), _lane_mid(line_scene)) == (0, 3)


def test_winner_stage_progression(line_scene):
    gt = np.array([55.0, 0.0])
    # same lane, different points -> stage 2
    preds = [_mk_pred(0, 0, (40, 0), (40, 0)), _mk_pred(1, 0, (54, 0), (54, 0))]
    assert winner_of(preds, gt, _lane_mid(line_scene)) == (1, 2)
    # same lane + same point, different goals -> stage 3
    preds = [_mk_pred(0, 0, (50, 0), (48, 0)), _mk_pred(1, 0, (50, 0), (54.5, 0))]
    assert winner_of(preds, gt, _lane_mid(line_scene)) == (1, 3)


def test_winner_matches_oracle_random(line_scene):
    rng = np.random.default_rng(123)
    for _ in range(300):
        K = int(rng.integers(1, 7))
        preds = []
        for k in range(K):
            lane = int(rng.integers(0, 3))
            pt = rng.uniform(0, 180, 2) * [1, 0.05]
            goal = pt + rng.normal(0, 1, 2)
            preds.append(_mk_pred(k, lane, pt, goal))
        # force occasional exact ties
        if K > 2 and rng.random() < 0.5:
            preds[1] = _mk_pred(1, preds[0].selected_lane_idx,
                                preds[0].selected_point_pose[:2],
                                preds[0].goal_scene)
        gt = rng.uniform(0, 180, 2) * [1, 0.05]
        rb = bool(rng.random() < 0.8)
        got, _ = winner_of(preds, gt, _lane_mid(line_scene), rb=rb)
        assert got == _winner_oracle(preds, gt, line_scene, rb)


def test_winner_baseline_endpoint():
    preds = [_mk_pred(0, None, (0, 0), (0, 0), endpoint=(10, 0)),
             _mk_pred(1, None, (0, 0), (0, 0), endpoint=(5, 0)),
             _mk_pred(2, None, (0, 0), (0, 0), endpoint=(7, 0))]
    assert winner_of(preds, np.array([4.0, 0.0]), np.zeros((0, 2)), rb=False, goal=False) == (1, 3)


def test_select_winners_stage_rule():
    """Rows are agents: each column keeps the modes at its minimum, and the
    stage is the first column after which one mode is left."""
    d = np.array([[[0, 5, 1], [0, 4, 9]],   # nrb, lane column 0: the point decides
                  [[2, 5, 1], [1, 5, 1]],   # the lane decides
                  [[1, 5, 1], [1, 5, 1]]],  # a residual tie goes to the lowest mode
                 dtype=float)
    modes, stages = select_winners(d)
    assert modes.tolist() == [1, 1, 0] and stages.tolist() == [2, 1, 3]
    assert select_winners(np.zeros((2, 1, 3)))[1].tolist() == [1, 1]  # one mode: stage 1


def nearest_lanes_by_rule(scene, points, candidates: list) -> list:
    """nearest_decide_edges over edges from point i to each lane index in
    candidates[i], keyed by the points' distances to the centerlines."""
    d = polyline_distances(points, [lane.centerline for lane in scene.lanes])
    e = SimpleNamespace(src=np.repeat(np.arange(len(candidates)), list(map(len, candidates))),
                        dst=np.concatenate([np.asarray(c, dtype=int) for c in candidates]))
    return e.dst[nearest_decide_edges(e, np.arange(len(candidates)),
                                      lambda w, c: d[w, c])].tolist()


def test_nearest_lane(line_scene):
    assert nearest_lanes_by_rule(line_scene, [(65.0, 1.0)], [[0, 2]]) == [0]
    assert nearest_lanes_by_rule(line_scene, [(65.0, 1.0)], [[0, 1, 2]]) == [1]


def _nearest_lane_loop(scene, xy, candidates):
    """The nearest of the candidate lanes, one lane at a time: the oracle."""
    best, best_d = None, math.inf
    for i in candidates:
        d = point_to_polyline_distance(xy, scene.lanes[i].centerline)
        if d < best_d:
            best, best_d = i, d
    return best


@pytest.mark.parametrize("kind", ["A", "B", "dense"])
def test_nearest_lanes_matches_loop(kind):
    if kind == "dense":
        scenes = [dense_overlay(STYLE_A, 31)]
    else:
        style = STYLE_A if kind == "A" else STYLE_B
        scenes = [gen_scene(style, (32, i), f"s{i}") for i in range(4)]
    n = 0
    for s in scenes:  # one call per scene, with all its points
        every = list(range(len(s.lanes)))
        points, cands = [], []
        for i, a in enumerate(s.agents):
            cand = (reachable_lanes(s, i) if a.road_bound else None) or every
            for xy in np.vstack([a.states[::4, 0:2], a.states[-1:, 0:2]]):
                points.append(xy)
                cands.append(cand)
        points = np.array(points)
        for c in (cands, [every] * len(points)):
            expected = [_nearest_lane_loop(s, xy, ci) for xy, ci in zip(points, c)]
            assert nearest_lanes_by_rule(s, points, c) == expected
        n += len(points)
    assert n >= 40


def test_nearest_lanes_exact_tie_goes_first(line_scene):
    xy = (60.0, 1.0)  # as far from the end of L0 as from the start of L1
    d = polyline_distances([xy], [l.centerline for l in line_scene.lanes])[0]
    assert d[0] == d[1]
    assert _nearest_lane_loop(line_scene, xy, [1, 0]) == 1
    assert nearest_lanes(line_scene, [xy, xy], [[1, 0], [0, 1]]) == ([1, 0], [0, 0])
    assert nearest_lanes_by_rule(line_scene, [xy, xy], [[1, 0], [0, 1]]) == [1, 0]
    assert nearest_lanes_by_rule(line_scene, [xy, xy], [[0, 1, 2]] * 2) == [0, 0]


def test_nearest_decide_edges_tie_goes_to_first_edge():
    """Edges of winners and of other queries interleave; each winner gets
    its nearest candidate's edge, the first of an exact tie."""
    cand = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [3.0, 0.0, 0.0],
                     [0.0, -1.0, 0.0]])
    ends = np.array([[0.0, 0.0], [2.0, 0.0]])
    edges = SimpleNamespace(src=np.array([5, 3, 4, 5, 3, 5, 3, 5]),
                            dst=np.array([0, 1, 3, 3, 2, 4, 0, 1]))
    q = np.array([3, 5])

    def dist(w, c):
        return np.hypot(cand[c, 0] - ends[w, 0], cand[c, 1] - ends[w, 1])

    # query 3: candidates 1, 2 and 0 lie 1 m away -> edge 1;
    # query 5: candidates 0 and 3 lie 1 m away -> edge 0
    assert nearest_decide_edges(edges, q, dist).tolist() == [1, 0]
    assert [nearest_candidate(edges, cand, qi, xy) for qi, xy in zip(q, ends)] == [1, 0]


def _drift_scene():
    """A vehicle drifting off its lane: its endpoint lies nearest an
    unconnected oncoming lane, so its teacher lane is not a reachable one."""
    lanes = [straight_lane("east", 0.0, 0.0, 120.0),
             straight_lane("west", 120.0, 3.5, 120.0, heading=math.pi)]
    agents = [const_vel_track("veh", "vehicle", 2.0, 0.0, 10.0, 0.8, 40),
              const_vel_track("ped", "pedestrian", 5.0, 8.0, 1.0, 0.5, 40)]
    return Scene("drift", 0.1, 10, 30, agents, lanes)


@pytest.mark.parametrize("kind", ["A", "B", "dense", "drift"])
def test_loss_stage_targets_match_loop_oracle(kind, small_mcfg, monkeypatch):
    """The loss's lane, teacher lane, point and ring targets are those of the
    per-winner loops."""
    if kind == "dense":
        scenes = [dense_overlay(STYLE_A, 31), dense_overlay(STYLE_B, 41, tiles=4)]
    elif kind == "drift":
        scenes = [_drift_scene()]
    else:
        style = STYLE_A if kind == "A" else STYLE_B
        scenes = [gen_scene(style, (44, i), f"s{i}") for i in range(6)]
    calls, build = {}, training.build_decide_point_edges

    def spy_nearest(edges, q, dist):  # g: the graph of the scene in the loop below
        pos = nearest_decide_edges(edges, q, dist)
        stage = {id(e): et for et, e in g.edges.items()}.get(id(edges), "dec_point")
        calls[stage.removeprefix("dec_")] = pos.tolist()
        return pos

    def spy_build(g_, q, lanes):
        calls["teacher"] = lanes.tolist()
        return build(g_, q, lanes)

    monkeypatch.setattr(training, "nearest_decide_edges", spy_nearest)
    monkeypatch.setattr(training, "build_decide_point_edges", spy_build)
    m = Model(small_mcfg, seed=4)
    counts = dict.fromkeys(("lane", "point", "nrb"), 0)
    for s in scenes:
        g = build_graph(s, m.cfg.K, m.cfg.graph)
        calls.clear()
        with ad.no_grad():
            _, _, assign = compute_scene_loss(m, m.forward(s, graph=g), s, TrainConfig())
        got = {"lane": [], "teacher": [], "point": [], "nrb": [], **calls}
        q = np.sort([g.predicted.index(a) * m.cfg.K + k for a, k in assign.winners.items()])
        ends = np.array([s.agents[g.query_agent[qi]].states[-1, 0:2] for qi in q])
        want = stage_targets_loop(g, s, q, ends)
        assert got == want, s.id
        if kind == "drift":
            assert want["teacher"] == [1] and g.edges["dec_lane"].dst.tolist() == [0] * m.cfg.K
        for k in counts:
            counts[k] += len(want[k])
    assert min(counts.values()) > 0, counts


# --- augmentation -------------------------------------------------------------

def test_augment_identity():
    sc = make_line_scene(n_vehicles=3)

    class FixedRng:
        def uniform(self, lo, hi):
            return 1.0

        def permutation(self, n):
            return np.arange(n)

    sc2 = augment_scene(sc, FixedRng(), 1.0, 1.0, 0.0)
    assert len(sc2.agents) == len(sc.agents)
    for a, b in zip(sc.agents, sc2.agents):
        assert np.array_equal(a.states, b.states)


def test_augment_scales_distances():
    sc = make_line_scene(n_vehicles=2)

    class FixedRng:
        def uniform(self, lo, hi):
            return 1.2

        def permutation(self, n):
            return np.arange(n)

    sc2 = augment_scene(sc, FixedRng(), 1.2, 1.2, 0.0)
    d0 = np.hypot(*(sc.agents[0].states[0, :2] - sc.agents[1].states[0, :2]))
    d1 = np.hypot(*(sc2.agents[0].states[0, :2] - sc2.agents[1].states[0, :2]))
    assert d1 == pytest.approx(1.2 * d0, abs=1e-9)
    l0 = sc.lanes[0].length
    assert sc2.lanes[0].length == pytest.approx(1.2 * l0, abs=1e-9)


def test_augment_drops_floor_fraction():
    sc = make_line_scene(n_vehicles=10)
    rng = np.random.default_rng(0)
    sc2 = augment_scene(sc, rng, 1.0, 1.0, 0.10)
    assert len(sc2.agents) == 9
    # agent 0 (focal) never dropped
    assert sc2.agents[0].id == "veh0" or any(a.id == "veh0" for a in sc2.agents)


# --- scene loss and training loop ---------------------------------------------

def test_scene_loss_terms_finite(synth_scene, small_mcfg):
    m = Model(small_mcfg, seed=0)
    fr = m.forward(synth_scene)
    tcfg = TrainConfig(seed=0)
    loss, terms, assign = compute_scene_loss(m, fr, synth_scene, tcfg)
    assert loss is not None and np.isfinite(loss.value)
    assert set(terms) >= {"l_lane", "l_point", "l_goal", "l_traj"}
    assert all(np.isfinite(v) for v in terms.values())
    assert assign.winners  # at least one supervised agent


def test_forward_and_loss_add_no_attributes(synth_scene, small_mcfg):
    """No memo is left on a lane or on the graph: forward and loss add no
    attribute to any LaneDef and none outside HeteroGraph's fields."""
    before = [set(vars(lane)) for lane in synth_scene.lanes]
    m = Model(small_mcfg, seed=0)
    fr = m.forward(synth_scene)
    loss, _, assign = compute_scene_loss(m, fr, synth_scene, TrainConfig(seed=0))
    g = fr.graph
    assert loss is not None and any(g.rb[g.predicted.index(a)] for a in assign.winners)
    assert [set(vars(lane)) for lane in synth_scene.lanes] == before
    assert set(vars(fr.graph)) <= set(HeteroGraph.__dataclass_fields__)


@pytest.mark.parametrize("variant", ["goal", "baseline"])
def test_training_forward_builds_no_mode_predictions(synth_scene, small_mcfg, variant,
                                                    monkeypatch):
    """A training step (taped forward, loss, backward) keeps the predictions
    as arrays; only predict builds ModePredictions, K per predicted agent."""
    m = Model(replace(small_mcfg, variant=variant), seed=0)

    def forbidden(**fields):
        raise AssertionError("a ModePrediction built outside predict")

    monkeypatch.setattr(model_mod, "ModePrediction", forbidden)
    fr = m.forward(synth_scene, rng=np.random.default_rng(0))
    loss, _, assign = compute_scene_loss(m, fr, synth_scene, TrainConfig(seed=0))
    loss.backward()
    assert assign.winners
    built = []
    monkeypatch.setattr(model_mod, "ModePrediction",
                        lambda **fields: built.append(ModePrediction(**fields)) or built[-1])
    preds = m.predict(synth_scene)
    assert len(preds) == len(built) == m.cfg.K * len(synth_scene.predicted_agents()) > 0
    assert all(p is b for p, b in zip(preds, built))


def test_parameters_stay_tape_leaves(synth_scene, small_mcfg):
    """Ops link only their outputs into the tape, so after a taped forward,
    loss and backward, and again after a second pass, every parameter is
    still a leaf: nothing needs detaching between passes."""
    m = Model(small_mcfg, seed=0)
    for _ in range(2):
        fr = m.forward(synth_scene, rng=np.random.default_rng(0))
        loss, _, _ = compute_scene_loss(m, fr, synth_scene, TrainConfig(seed=0))
        loss.backward()
        assert all(t.node._parents == () and t.node._backward is None
                   for t in m.ps.params.values())
        assert sum(t.grad is not None for t in m.ps.params.values()) > 0


def test_backward_memory_bounded_by_tape(synth_scene):
    """backward frees the tape as it sweeps it: at d_h=16, its peak stays
    within 1.25x the memory the forward tape holds, and it leaves at most
    0.1x of it behind while the loss is still alive. A sweep that keeps every
    op's grad and closure until the loss goes peaks and holds about 2x."""
    m = Model(ModelConfig(d_h=16, heads=4, K=3, ffn_hidden=32, dropout=0.0), seed=0)
    with ad.no_grad():
        g = m.forward(synth_scene).graph

    def scene_loss():
        return compute_scene_loss(m, m.forward(synth_scene, graph=g), synth_scene,
                                  TrainConfig(seed=0))[0]
    scene_loss().backward()  # the parameter grads exist, as for later scenes of a batch
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = scene_loss()
        tape = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        loss.backward()
        held, peak = (b - base for b in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * tape, (peak, tape)
    assert held <= 0.1 * tape, (held, tape)
    assert np.isfinite(loss.value)


def test_gradient_isolation_single_agent():
    """Non-winner trajectory-head gradients are exactly zero on a 1-agent scene."""
    sc = make_line_scene(n_vehicles=1)
    cfg = ModelConfig(d_h=32, heads=4, K=3, ffn_hidden=64, dropout=0.0)
    m = Model(cfg, seed=0)
    fr = m.forward(sc)
    tcfg = TrainConfig(seed=0)
    loss, _, assign = compute_scene_loss(m, fr, sc, tcfg)
    loss.backward()
    # the nrb trajectory head is untouched by an rb-only scene
    g = m.ps.params["traj.nrb.l0.W"].grad
    assert g is None or not g.any()


def test_short_training_deterministic(tmp_path, small_mcfg):
    scenes = [gen_scene(STYLE_A, (3, i), f"s{i}") for i in range(3)]
    tcfg = TrainConfig(seed=2, total_epochs=2, warmup_epochs=1, batch_size=4)
    mcfg = replace(small_mcfg, dropout=0.1)
    m1, log1 = train(scenes, tcfg, mcfg, augment=True)
    m2, log2 = train(scenes, tcfg, mcfg, augment=True)
    for n in m1.ps.names():
        assert np.array_equal(m1.ps[n].value, m2.ps[n].value)
    assert log1 == log2


def test_train_leaves_caller_config_unchanged(small_mcfg):
    """The model trains with the caller's config, dropout included."""
    scenes = [gen_scene(STYLE_A, (3, 0), "s0")]
    tcfg = TrainConfig(seed=0, total_epochs=2, warmup_epochs=1, batch_size=1)
    mcfg = replace(small_mcfg, dropout=0.3)
    before = replace(mcfg)
    model, _ = train(scenes, tcfg, mcfg, augment=False)
    assert mcfg == before and model.cfg == mcfg


def test_training_reduces_loss(small_mcfg):
    scenes = [gen_scene(STYLE_A, (5, i), f"s{i}") for i in range(2)]
    tcfg = TrainConfig(seed=1, total_epochs=8, warmup_epochs=1, batch_size=2)
    _, log = train(scenes, tcfg, replace(small_mcfg, dropout=0.1), augment=False)
    assert log[-1]["loss"] < log[0]["loss"]


def test_baseline_training_runs(small_mcfg):
    scenes = [gen_scene(STYLE_A, (6, i), f"s{i}") for i in range(2)]
    mcfg = ModelConfig.from_dict({**small_mcfg.to_dict(), "variant": "baseline", "dropout": 0.1})
    tcfg = TrainConfig(seed=1, total_epochs=2, warmup_epochs=1, batch_size=2)
    m, log = train(scenes, tcfg, mcfg, augment=False)
    assert all(np.isfinite(r["loss"]) for r in log)


def test_batch_frees_each_scene_tape(monkeypatch, small_mcfg):
    """A scene's tape (its loss and decoder output) is freed after its
    backward, before the next scene's forward: a batch holds one tape."""
    scenes = [gen_scene(STYLE_A, (8, i), f"s{i}") for i in range(3)]
    refs, alive = [], []
    forward, scene_loss = Model.forward, training.compute_scene_loss

    def tracked_forward(self, *args, **kwargs):
        alive.extend(r() is not None for r in refs)
        return forward(self, *args, **kwargs)

    def tracked_loss(model, fr, scene, tcfg):
        out = scene_loss(model, fr, scene, tcfg)
        if out[0] is not None:
            refs.extend([weakref.ref(out[0]), weakref.ref(fr.query_feats)])
        return out

    monkeypatch.setattr(Model, "forward", tracked_forward)
    monkeypatch.setattr(training, "compute_scene_loss", tracked_loss)
    tcfg = TrainConfig(seed=0, total_epochs=2, warmup_epochs=1, batch_size=3)
    train(scenes, tcfg, replace(small_mcfg, dropout=0.1), augment=False)
    assert len(refs) >= 4 and alive
    assert not any(alive)


def test_unaugmented_training_keys_graphs_by_dataset_index(monkeypatch, small_mcfg):
    """Two different scenes with one id each train on their own graph, in
    every epoch: each step's loss and gradient equal a fresh forward's."""
    scenes = [gen_scene(STYLE_A, (12, i), "same-id") for i in range(2)]
    tcfg = TrainConfig(seed=0, total_epochs=2, warmup_epochs=1, batch_size=1)
    last, checked = [], []
    scene_loss, step = training.compute_scene_loss, AdamW.step

    def tracked_loss(model, fr, scene, tcfg):
        out = scene_loss(model, fr, scene, tcfg)
        last[:] = [model, scene, out[0] is not None and float(out[0].value)]
        return out

    def checked_step(opt, lr):
        model, scene, loss = last
        ref = Model(model.cfg, ps=copy.deepcopy(model.ps))
        ref.ps.zero_grad()
        ref_loss = scene_loss(ref, ref.forward(scene), scene, tcfg)[0]
        assert float(ref_loss.value) == loss
        ref_loss.backward()
        for n, t in model.ps.params.items():
            ref_grad = ref.ps[n].grad
            assert (t.grad is None) == (ref_grad is None), n
            assert t.grad is None or np.array_equal(t.grad, ref_grad), n
        checked.append(scene)
        return step(opt, lr)

    monkeypatch.setattr(training, "compute_scene_loss", tracked_loss)
    monkeypatch.setattr(AdamW, "step", checked_step)
    train(scenes, tcfg, small_mcfg, augment=False)
    assert len(checked) == 4 and {id(s) for s in checked} == {id(s) for s in scenes}


def test_batch_gradient_is_mean_of_scene_gradients(small_mcfg, monkeypatch):
    scenes = [gen_scene(STYLE_A, (9, i), f"s{i}") for i in range(3)]
    tcfg = TrainConfig(seed=4, total_epochs=2, warmup_epochs=1, batch_size=3)
    grads, step = {}, AdamW.step

    def first_step(opt, lr):
        if not grads:
            grads.update({n: t.grad.copy() for n, t in opt.ps.params.items()
                          if t.grad is not None})
        return step(opt, lr)

    monkeypatch.setattr(AdamW, "step", first_step)
    train(scenes, tcfg, small_mcfg, augment=False)
    ref = Model(small_mcfg, seed=tcfg.seed)
    losses = [compute_scene_loss(ref, ref.forward(s), s, tcfg)[0] for s in scenes]
    losses = [l for l in losses if l is not None]
    assert len(losses) >= 2
    ad.scalar_mul(functools.reduce(ad.add, losses), 1.0 / len(losses)).backward()
    assert grads.keys() == {n for n, t in ref.ps.params.items() if t.grad is not None}
    # summation order differs; some grads (key biases) are exactly 0 up to noise
    scale = max(np.abs(g).max() for g in grads.values())
    for n, g in grads.items():
        assert np.allclose(g, ref.ps[n].grad, rtol=1e-9, atol=1e-12 * scale), n


def test_loss_log_format(tmp_path, small_mcfg):
    scenes = [gen_scene(STYLE_A, (7, 0), "s0")]
    tcfg = TrainConfig(seed=0, total_epochs=2, warmup_epochs=1, batch_size=1)
    mcfg = replace(small_mcfg, dropout=0.1)
    train(scenes, tcfg, mcfg, out_dir=str(tmp_path), augment=False)
    header = (tmp_path / "loss_log.csv").read_text().splitlines()[0]
    assert header == "epoch,loss,l_lane,l_point,l_goal,l_traj,lr"
    for ckpt in ("model.ckpt", "ckpt_latest.ckpt"):
        assert (tmp_path / ckpt).exists()
        assert load_model(str(tmp_path / ckpt)).cfg == mcfg


def test_save_load_model_roundtrip(tmp_path, small_mcfg, synth_scene):
    m = Model(small_mcfg, seed=9)
    path = str(tmp_path / "m.ckpt")
    save_model(m, path)
    m2 = load_model(path)
    assert m2.cfg == m.cfg
    p1, p2 = m.predict(synth_scene), m2.predict(synth_scene)
    for a, b in zip(p1, p2):
        assert np.array_equal(a.traj_scene, b.traj_scene)
