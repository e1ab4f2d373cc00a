import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import goalgraph.autodiff as ad
import goalgraph.nn as nn
import goalgraph.training as training
from goalgraph.errors import ConfigError
from goalgraph.model import Model, ModelConfig, ModePrediction
from goalgraph.synthgen import STYLE_A, gen_scene
from goalgraph.training import (
    AdamW,
    TrainConfig,
    augment_scene,
    compute_scene_loss,
    focal_loss,
    huber_loss,
    laplace_nll,
    load_model,
    lr_schedule,
    nearest_lane_to_point,
    save_model,
    select_winner_baseline,
    select_winner_mode,
    train,
)

from conftest import make_line_scene


# --- loss oracles -----------------------------------------------------------

def test_focal_loss_values():
    assert focal_loss(np.array([1.0]), 0, 0.75, 2.0) == pytest.approx(0.0, abs=1e-12)
    # p_t = 0.5, alpha 0.75, gamma 2 -> 0.75 * 0.25 * log 2
    expected = 0.75 * 0.25 * math.log(2.0)
    assert focal_loss(np.array([0.5, 0.5]), 0, 0.75, 2.0) == pytest.approx(expected, abs=1e-12)


@settings(max_examples=100)
@given(st.floats(1e-6, 1.0 - 1e-9))
def test_focal_gamma0_is_cross_entropy(p):
    scores = np.array([p, 1.0 - p])
    assert focal_loss(scores, 0, 1.0, 0.0) == pytest.approx(-math.log(p), abs=1e-10)


def test_huber_values():
    assert huber_loss(np.zeros(2), np.zeros(2), 1.0) == 0.0
    assert huber_loss(np.array([0.5]), np.array([0.0]), 1.0) == pytest.approx(0.125, abs=1e-12)
    assert huber_loss(np.array([3.0]), np.array([0.0]), 1.0) == pytest.approx(2.5, abs=1e-12)


def test_laplace_nll_values():
    mu = np.zeros((4, 2))
    gt = np.zeros((4, 2))
    assert laplace_nll(mu, np.full((4, 2), 0.5), gt) == pytest.approx(0.0, abs=1e-12)
    assert laplace_nll(mu, np.ones((4, 2)), gt) == pytest.approx(math.log(2.0), abs=1e-12)
    assert laplace_nll(mu, np.ones((4, 2)), gt + 1.0) == pytest.approx(math.log(2.0) + 1.0, abs=1e-12)


@settings(max_examples=50)
@given(st.floats(-5, 5), st.floats(0.05, 3.0), st.floats(-5, 5))
def test_laplace_nll_closed_form(mu, b, gt):
    got = laplace_nll(np.array([[mu]]), np.array([[b]]), np.array([[gt]]))
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
    mode, stage = select_winner_mode(preds, gt, line_scene, rb=True)
    assert (mode, stage) == (1, 1)


def test_winner_identical_modes_tie(line_scene):
    preds = [_mk_pred(k, 0, (50, 0), (50, 0)) for k in range(3)]
    mode, stage = select_winner_mode(preds, np.array([55.0, 0.0]), line_scene, rb=True)
    assert mode == 0


def test_winner_stage_progression(line_scene):
    gt = np.array([55.0, 0.0])
    # same lane, different points -> stage 2
    preds = [_mk_pred(0, 0, (40, 0), (40, 0)), _mk_pred(1, 0, (54, 0), (54, 0))]
    assert select_winner_mode(preds, gt, line_scene, rb=True) == (1, 2)
    # same lane + same point, different goals -> stage 3
    preds = [_mk_pred(0, 0, (50, 0), (48, 0)), _mk_pred(1, 0, (50, 0), (54.5, 0))]
    assert select_winner_mode(preds, gt, line_scene, rb=True) == (1, 3)


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
        got, _ = select_winner_mode(preds, gt, line_scene, rb=rb)
        assert got == _winner_oracle(preds, gt, line_scene, rb)


def test_winner_baseline_endpoint():
    preds = [_mk_pred(0, None, (0, 0), (0, 0), endpoint=(10, 0)),
             _mk_pred(1, None, (0, 0), (0, 0), endpoint=(5, 0)),
             _mk_pred(2, None, (0, 0), (0, 0), endpoint=(7, 0))]
    assert select_winner_baseline(preds, np.array([4.0, 0.0])) == 1


def test_nearest_lane(line_scene):
    assert nearest_lane_to_point(line_scene, (65.0, 1.0)) == 1
    assert nearest_lane_to_point(line_scene, (65.0, 1.0), candidates=[0, 2]) == 0


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
    m1, log1 = train(scenes, tcfg, small_mcfg, augment=True)
    m2, log2 = train(scenes, tcfg, small_mcfg, augment=True)
    for n in m1.ps.names():
        assert np.array_equal(m1.ps[n].value, m2.ps[n].value)
    assert log1 == log2


def test_training_reduces_loss(small_mcfg):
    scenes = [gen_scene(STYLE_A, (5, i), f"s{i}") for i in range(2)]
    tcfg = TrainConfig(seed=1, total_epochs=8, warmup_epochs=1, batch_size=2)
    _, log = train(scenes, tcfg, small_mcfg, augment=False)
    assert log[-1]["loss"] < log[0]["loss"]


def test_baseline_training_runs(small_mcfg):
    scenes = [gen_scene(STYLE_A, (6, i), f"s{i}") for i in range(2)]
    mcfg = ModelConfig.from_dict({**small_mcfg.to_dict(), "variant": "baseline"})
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
    train(scenes, tcfg, small_mcfg, augment=False)
    assert len(refs) >= 4 and alive
    assert not any(alive)


def test_batch_gradient_is_mean_of_scene_gradients(small_mcfg):
    scenes = [gen_scene(STYLE_A, (9, i), f"s{i}") for i in range(3)]
    tcfg = TrainConfig(seed=4, total_epochs=2, warmup_epochs=1, batch_size=3, dropout=0.0)
    grads = {}

    def first_epoch(epoch, model):
        grads.update({n: t.grad.copy() for n, t in model.ps.params.items()
                      if t.grad is not None})
        return True

    train(scenes, tcfg, small_mcfg, augment=False, callback=first_epoch)
    ref = Model(small_mcfg, seed=tcfg.seed)
    losses = [compute_scene_loss(ref, ref.forward(s), s, tcfg)[0] for s in scenes]
    losses = [l for l in losses if l is not None]
    assert len(losses) >= 2
    ad.scalar_mul(sum(losses[1:], losses[0]), 1.0 / len(losses)).backward()
    assert grads.keys() == {n for n, t in ref.ps.params.items() if t.grad is not None}
    # summation order differs; some grads (key biases) are exactly 0 up to noise
    scale = max(np.abs(g).max() for g in grads.values())
    for n, g in grads.items():
        assert np.allclose(g, ref.ps[n].grad, rtol=1e-9, atol=1e-12 * scale), n


def test_loss_log_format(tmp_path, small_mcfg):
    scenes = [gen_scene(STYLE_A, (7, 0), "s0")]
    tcfg = TrainConfig(seed=0, total_epochs=2, warmup_epochs=1, batch_size=1)
    train(scenes, tcfg, small_mcfg, out_dir=str(tmp_path), augment=False)
    header = (tmp_path / "loss_log.csv").read_text().splitlines()[0]
    assert header == "epoch,loss,l_lane,l_point,l_goal,l_traj,lr"
    for ckpt in ("model.ckpt", "ckpt_latest.ckpt"):
        assert (tmp_path / ckpt).exists()
        assert load_model(str(tmp_path / ckpt)).cfg == small_mcfg


def test_save_load_model_roundtrip(tmp_path, small_mcfg, synth_scene):
    m = Model(small_mcfg, seed=9)
    path = str(tmp_path / "m.ckpt")
    save_model(m, path)
    m2 = load_model(path)
    assert m2.cfg == m.cfg
    p1, p2 = m.predict(synth_scene), m2.predict(synth_scene)
    for a, b in zip(p1, p2):
        assert np.array_equal(a.traj_scene, b.traj_scene)
