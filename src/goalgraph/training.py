"""Losses, winner-takes-all assignment, AdamW with warmup/cosine, augmentation,
and the training loop."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .errors import ConfigError, DataError, NumericError
from .geometry import point_to_polyline_distance
from .graph import build_decide_point_edges
from .model import ForwardResult, Model, ModelConfig, scene_to_local
from .scene import AgentTrack, Scene


@dataclass
class TrainConfig:
    lr_peak: float = 5e-4
    beta1: float = 0.9
    beta2: float = 0.95
    weight_decay: float = 1e-4
    warmup_epochs: int = 1
    total_epochs: int = 40
    batch_size: int = 64
    dropout: float = 0.1
    aug_scale_min: float = 0.8
    aug_scale_max: float = 1.2
    aug_drop_frac: float = 0.10
    traj_loss_weight: float = 10.0
    focal_alpha: float = 0.75
    focal_gamma: float = 2.0
    huber_delta: float = 1.0
    seed: int = 0
    adam_eps: float = 1e-8

    def __post_init__(self):
        if self.warmup_epochs >= self.total_epochs:
            raise ConfigError("warmup_epochs must be < total_epochs")
        for f_ in ("lr_peak", "batch_size", "total_epochs", "traj_loss_weight",
                   "focal_alpha", "huber_delta"):
            if getattr(self, f_) <= 0:
                raise ConfigError(f"{f_} must be positive")

    def to_dict(self):
        return self.__dict__.copy()

    @classmethod
    def from_dict(cls, d):
        known = set(cls.__dataclass_fields__)
        bad = set(d) - known
        if bad:
            raise ConfigError(f"unknown train config keys: {sorted(bad)}")
        return cls(**d)


@dataclass
class WinnerAssignment:
    winners: dict = field(default_factory=dict)  # agent idx -> mode
    stages: dict = field(default_factory=dict)   # agent idx -> stage (1..3)


# ---------------------------------------------------------------------------
# loss primitives

def focal_loss_tensor(p_t: Tensor, alpha: float, gamma: float) -> Tensor:
    """-alpha (1 - p)^gamma log p, mean over the supervised groups."""
    p = ad.clamp_min(p_t, 1e-12)
    om = ad.sub(Tensor(np.ones(p.shape)), p)
    return ad.scalar_mul(ad.mean_all(ad.mul(ad.pow_const(om, gamma), ad.log(p))), -alpha)


def focal_loss(scores: np.ndarray, target_index: int, alpha: float, gamma: float) -> float:
    p = max(float(scores[target_index]), 1e-12)
    return -alpha * (1.0 - p) ** gamma * math.log(p)


def huber_loss_tensor(residual: Tensor, delta: float) -> Tensor:
    return ad.mean_all(ad.huber_elts(residual, delta))


def huber_loss(pred_xy, gt_xy, delta: float) -> float:
    e = np.abs(np.asarray(pred_xy, dtype=float) - np.asarray(gt_xy, dtype=float))
    return float(np.mean(np.where(e <= delta, 0.5 * e ** 2, delta * (e - 0.5 * delta))))


def laplace_nll_tensor(mu: Tensor, b: Tensor, gt: np.ndarray) -> Tensor:
    err = ad.abs_(ad.sub(mu, Tensor(gt)))
    return ad.mean_all(ad.add(ad.log(ad.scalar_mul(b, 2.0)), ad.div(err, b)))


def laplace_nll(mu, b, gt) -> float:
    mu, b, gt = (np.asarray(x, dtype=float) for x in (mu, b, gt))
    return float(np.mean(np.log(2.0 * b) + np.abs(gt - mu) / b))


# ---------------------------------------------------------------------------
# optimizer + schedule

def lr_schedule(step: int, total_steps: int, warmup_steps: int, lr_peak: float) -> float:
    """Linear warmup to lr_peak, cosine decay to 0 at total_steps."""
    if step <= warmup_steps:
        return lr_peak * step / warmup_steps if warmup_steps else lr_peak
    frac = (step - warmup_steps) / (total_steps - warmup_steps)
    return lr_peak * 0.5 * (1.0 + math.cos(math.pi * min(frac, 1.0)))


class AdamW:
    """Decoupled weight decay applied to affine weights only."""

    def __init__(self, ps: nn.ParamStore, cfg: TrainConfig):
        self.ps = ps
        self.cfg = cfg
        self.m = {n: np.zeros_like(t.value) for n, t in ps.params.items()}
        self.v = {n: np.zeros_like(t.value) for n, t in ps.params.items()}
        self.t = 0

    def step(self, lr: float):
        c = self.cfg
        self.t += 1
        b1c = 1.0 - c.beta1 ** self.t
        b2c = 1.0 - c.beta2 ** self.t
        for name, p in self.ps.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.value)
            m = self.m[name]
            v = self.v[name]
            m += (1.0 - c.beta1) * (g - m)
            v += (1.0 - c.beta2) * (g * g - v)
            upd = (m / b1c) / (np.sqrt(v / b2c) + c.adam_eps)
            if self.ps.decay[name]:
                upd = upd + c.weight_decay * p.value
            p.value -= lr * upd


# ---------------------------------------------------------------------------
# winner-takes-all

def select_winner_mode(preds_k: list, gt_endpoint: np.ndarray, scene: Scene,
                       rb: bool) -> tuple[int, int]:
    """Hierarchical winner: lane distance (rb only), then selected point,
    then regressed goal; residual ties go to the lowest mode index."""
    gt = np.asarray(gt_endpoint, dtype=float)
    alive = list(range(len(preds_k)))
    stage_reached = 1

    def keep_min(dists, stage):
        nonlocal alive, stage_reached
        dmin = min(dists[k] for k in alive)
        alive = [k for k in alive if dists[k] == dmin]
        stage_reached = stage

    if rb:
        lane_d = {}
        for k in alive:
            p = scene.lanes[preds_k[k].selected_lane_idx].midpoint_pose()
            lane_d[k] = math.hypot(p.x - gt[0], p.y - gt[1])
        keep_min(lane_d, 1)
    if len(alive) > 1:
        pt_d = {k: math.hypot(preds_k[k].selected_point_pose[0] - gt[0],
                              preds_k[k].selected_point_pose[1] - gt[1]) for k in alive}
        keep_min(pt_d, 2)
    if len(alive) > 1:
        goal_d = {k: math.hypot(preds_k[k].goal_scene[0] - gt[0],
                                preds_k[k].goal_scene[1] - gt[1]) for k in alive}
        keep_min(goal_d, 3)
    return min(alive), stage_reached


def select_winner_baseline(preds_k: list, gt_endpoint: np.ndarray) -> int:
    d = [math.hypot(p.traj_scene[-1, 0] - gt_endpoint[0],
                    p.traj_scene[-1, 1] - gt_endpoint[1]) for p in preds_k]
    return int(np.argmin(d))


# ---------------------------------------------------------------------------
# combined scene loss

def _supervised_agents(scene: Scene, graph) -> list:
    """Predicted agents with a fully valid future."""
    out = []
    for i in graph.predicted:
        fut = scene.agents[i].valid[scene.t_history:]
        if fut.all():
            out.append(i)
    return out


def nearest_lane_to_point(scene: Scene, xy, candidates=None) -> int:
    idxs = range(len(scene.lanes)) if candidates is None else candidates
    best, best_d = None, math.inf
    for i in idxs:
        d = point_to_polyline_distance(xy, scene.lanes[i].centerline)
        if d < best_d:
            best, best_d = i, d
    return best


def compute_scene_loss(model: Model, fr: ForwardResult, scene: Scene,
                       tcfg: TrainConfig):
    """Winner-takes-all combined loss for one scene. Returns
    (loss Tensor or None, terms dict, WinnerAssignment)."""
    if model.cfg.variant == "baseline":
        return _baseline_scene_loss(model, fr, scene, tcfg)
    g = fr.graph
    K = model.cfg.K
    sup = _supervised_agents(scene, g)
    assign = WinnerAssignment()
    if not sup:
        return None, {}, assign

    agent_base = {a: base for base, a in
                  ((b, int(g.query_agent[b])) for b in range(0, g.n_queries, K))}
    a, gm = tcfg.focal_alpha, tcfg.focal_gamma

    lane_pts, point_pts = [], []      # target p_t tensors (1-row gathers)
    tf_lane_per_query = {}            # winner query -> teacher lane idx
    rb_qs, rb_endpoints = [], []
    nrb_positions, nrb_qs, nrb_endpoints = [], [], []

    for ai in sup:
        base = agent_base[ai]
        preds_k = fr.preds[base:base + K]
        endpoint = scene.agents[ai].states[-1, 0:2]
        rb = g.goal_rb[ai]
        winner, stage = select_winner_mode(preds_k, endpoint, scene, rb)
        assign.winners[ai] = winner
        assign.stages[ai] = stage
        qi = base + winner
        # target selections are pure functions of static scene/graph geometry,
        # so they are memoized on the graph across repeated loss evaluations
        statics = getattr(g, "_loss_statics", None)
        if statics is None:
            statics = g._loss_statics = {}
        if rb:
            hit = statics.get(("lane", qi))
            if hit is None:
                pos = np.nonzero(fr.lane_edges.src == qi)[0]
                cand = fr.lane_edges.dst[pos]
                target_lane = nearest_lane_to_point(scene, endpoint, cand.tolist())
                tpos = np.array([pos[np.nonzero(cand == target_lane)[0][0]]])
                hit = statics[("lane", qi)] = (tpos, int(nearest_lane_to_point(scene, endpoint)))
            tpos, tf_lane = hit
            lane_pts.append(ad.gather_rows(fr.lane_scores, tpos))
            tf_lane_per_query[qi] = tf_lane
            rb_qs.append(qi)
            rb_endpoints.append(endpoint)
        else:
            tpos = statics.get(("nrb", qi))
            if tpos is None:
                pos = np.nonzero(fr.nrb_edges.src == qi)[0]
                cand_xy = g.nrb_pose[fr.nrb_edges.dst[pos], 0:2]
                d = np.hypot(cand_xy[:, 0] - endpoint[0], cand_xy[:, 1] - endpoint[1])
                tpos = statics[("nrb", qi)] = pos[int(np.argmin(d))]
            point_pts.append(ad.gather_rows(fr.nrb_scores, np.array([tpos])))
            nrb_positions.append(tpos)
            nrb_qs.append(qi)
            nrb_endpoints.append(endpoint)

    terms = {}
    losses = []

    def add_term(name, t, weight=1.0):
        terms[name] = float(t.value)
        losses.append(ad.scalar_mul(t, weight) if weight != 1.0 else t)

    # teacher-forced point stage, offsets and trajectories for rb winners
    off_rows, goal_poses, q_rows_idx, endpoints = [], [], [], []
    if rb_qs:
        tf_edges = build_decide_point_edges(g, tf_lane_per_query)
        tf_scores, tf_fe = model.score_decide_edges("point", "dec_point", fr.query_feats,
                                                    fr.enc["point"], tf_edges, g.n_queries)
        statics = g._loss_statics
        tf_key = tuple(sorted(tf_lane_per_query.items()))
        sel_positions = []
        for qi, endpoint in zip(rb_qs, rb_endpoints):
            tpos = statics.get(("tf", tf_key, qi))
            if tpos is None:
                pos = np.nonzero(tf_edges.src == qi)[0]
                cand_xy = g.point_pose[tf_edges.dst[pos], 0:2]
                d = np.hypot(cand_xy[:, 0] - endpoint[0], cand_xy[:, 1] - endpoint[1])
                tpos = statics[("tf", tf_key, qi)] = pos[int(np.argmin(d))]
            point_pts.append(ad.gather_rows(tf_scores, np.array([tpos])))
            sel_positions.append(tpos)
        sel_positions = np.array(sel_positions, dtype=int)
        off_rb = model.regress_offset("rb", fr.query_feats, fr.enc["point"], tf_fe,
                                      tf_edges, sel_positions)
        goal_pose_rb = g.point_pose[tf_edges.dst[sel_positions]]
        _goal_losses(model, fr, "rb", off_rb, goal_pose_rb, rb_qs, rb_endpoints,
                     scene, tcfg, add_term)
    if nrb_qs:
        sel_positions = np.array(nrb_positions, dtype=int)
        off_nrb = model.regress_offset("nrb", fr.query_feats, fr.enc["nrb"], fr.nrb_fe,
                                       fr.nrb_edges, sel_positions)
        goal_pose_nrb = g.nrb_pose[fr.nrb_edges.dst[sel_positions]]
        _goal_losses(model, fr, "nrb", off_nrb, goal_pose_nrb, nrb_qs, nrb_endpoints,
                     scene, tcfg, add_term)

    if lane_pts:
        add_term("l_lane", focal_loss_tensor(ad.concat(lane_pts, axis=0), a, gm))
    if point_pts:
        add_term("l_point", focal_loss_tensor(ad.concat(point_pts, axis=0), a, gm))

    total = losses[0]
    for t in losses[1:]:
        total = ad.add(total, t)
    # merge duplicated rb/nrb goal/traj terms for the log
    terms = _merge_terms(terms)
    return total, terms, assign


def _goal_losses(model, fr, grp, offset, goal_pose, qs, endpoints, scene, tcfg, add_term):
    """Huber goal loss (in goal frames) + weighted Laplace trajectory NLL."""
    g = fr.graph
    qs = np.array(qs, dtype=int)
    endpoints = np.array(endpoints, dtype=float)
    # target offset in the goal node's frame
    c, s = np.cos(-goal_pose[:, 2]), np.sin(-goal_pose[:, 2])
    ex, ey = endpoints[:, 0] - goal_pose[:, 0], endpoints[:, 1] - goal_pose[:, 1]
    t_off = np.stack([c * ex - s * ey, s * ex + c * ey], axis=1)
    add_term(f"l_goal_{grp}", huber_loss_tensor(ad.sub(offset, Tensor(t_off)), tcfg.huber_delta))

    pose_q = fr.agent_pose_q[qs]
    goal_local = model.goal_local_tensor(offset, goal_pose, pose_q)
    mu, b = model.complete_trajectory(grp, ad.gather_rows(fr.query_feats, qs), goal_local)
    statics = g._loss_statics
    gt = statics.get(("gt", grp, tuple(qs)))
    if gt is None:
        gt = np.stack([
            scene_to_local(scene.agents[int(g.query_agent[qi])].states[scene.t_history:, 0:2],
                           pose_q[j])
            for j, qi in enumerate(qs)
        ])
        statics[("gt", grp, tuple(qs))] = gt
    add_term(f"l_traj_{grp}", laplace_nll_tensor(mu, b, gt), tcfg.traj_loss_weight)


def _merge_terms(terms: dict) -> dict:
    out = {"l_lane": terms.get("l_lane", 0.0), "l_point": terms.get("l_point", 0.0)}
    for key in ("l_goal", "l_traj"):
        vals = [v for k, v in terms.items() if k.startswith(key)]
        out[key] = float(np.mean(vals)) if vals else 0.0
    return out


def _baseline_scene_loss(model, fr, scene, tcfg):
    g = fr.graph
    K = model.cfg.K
    sup = _supervised_agents(scene, g)
    assign = WinnerAssignment()
    if not sup:
        return None, {}, assign
    agent_base = {int(g.query_agent[b]): b for b in range(0, g.n_queries, K)}
    pts, mus, bs, gts = [], [], [], []
    for ai in sup:
        base = agent_base[ai]
        endpoint = scene.agents[ai].states[-1, 0:2]
        winner = select_winner_baseline(fr.preds[base:base + K], endpoint)
        assign.winners[ai] = winner
        assign.stages[ai] = 3
        qi = base + winner
        pts.append(ad.gather_rows(fr.base_scores, np.array([qi])))
        mus.append(qi)
        gts.append(scene_to_local(scene.agents[ai].states[scene.t_history:, 0:2],
                                  fr.agent_pose_q[qi]))
    qs = np.array(mus, dtype=int)
    l_score = focal_loss_tensor(ad.concat(pts, axis=0), tcfg.focal_alpha, tcfg.focal_gamma)
    l_traj = laplace_nll_tensor(ad.gather_rows(fr.base_mu, qs), ad.gather_rows(fr.base_b, qs),
                                np.stack(gts))
    total = ad.add(l_score, ad.scalar_mul(l_traj, tcfg.traj_loss_weight))
    terms = {"l_lane": 0.0, "l_point": float(l_score.value), "l_goal": 0.0,
             "l_traj": float(l_traj.value)}
    return total, terms, assign


# ---------------------------------------------------------------------------
# augmentation

def augment_scene(scene: Scene, rng: np.random.Generator,
                  scale_min: float, scale_max: float, drop_frac: float) -> Scene:
    """Scale the scene by one sigma and drop floor(drop_frac * N) non-focal agents."""
    sigma = float(rng.uniform(scale_min, scale_max))
    n_drop = int(drop_frac * len(scene.agents))
    keep = list(range(len(scene.agents)))
    droppable = keep[1:]  # agent 0 is the focal agent and is never removed
    if n_drop and droppable:
        drop = set(rng.choice(droppable, size=min(n_drop, len(droppable)),
                              replace=False).tolist())
        keep = [i for i in keep if i not in drop]
    agents = []
    for i in keep:
        a = scene.agents[i]
        st = a.states.copy()
        st[:, 0:4] *= sigma
        agents.append(AgentTrack(a.id, a.agent_class, st))
    lanes = [
        type(l)(l.id, l.lane_type, l.centerline * sigma, l.left_boundary * sigma,
                l.right_boundary * sigma, list(l.successors), list(l.predecessors),
                l.left_neighbor, l.right_neighbor)
        for l in scene.lanes
    ]
    return Scene(scene.id, scene.dt, scene.t_history, scene.t_future, agents, lanes)


# ---------------------------------------------------------------------------
# training loop

def train(dataset: list, tcfg: TrainConfig, mcfg: ModelConfig, out_dir: str | None = None,
          augment: bool = True, log_every: int = 0, callback=None) -> tuple[Model, list]:
    """Returns (model, per-epoch log rows). Deterministic for a fixed seed.

    callback(epoch, model), when given, runs after every epoch; a truthy
    return stops training early.
    """
    if not dataset:
        raise ConfigError("empty dataset")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    mcfg.dropout = tcfg.dropout
    model = Model(mcfg, seed=tcfg.seed)
    opt = AdamW(model.ps, tcfg)
    ss = np.random.SeedSequence(tcfg.seed)
    shuffle_rng, aug_rng, drop_rng = (np.random.default_rng(s) for s in ss.spawn(3))

    n = len(dataset)
    batches_per_epoch = math.ceil(n / tcfg.batch_size)
    total_steps = tcfg.total_epochs * batches_per_epoch
    warmup_steps = tcfg.warmup_epochs * batches_per_epoch

    log_rows = []
    step = 0
    for epoch in range(tcfg.total_epochs):
        order = shuffle_rng.permutation(n)
        ep_terms = {"loss": [], "l_lane": [], "l_point": [], "l_goal": [], "l_traj": []}
        lr = 0.0
        for b0 in range(0, n, tcfg.batch_size):
            batch = order[b0:b0 + tcfg.batch_size]
            model.ps.zero_grad()
            n_contrib = 0
            for si in batch:
                scene = dataset[si]
                if augment:
                    scene = augment_scene(scene, aug_rng, tcfg.aug_scale_min,
                                          tcfg.aug_scale_max, tcfg.aug_drop_frac)
                loss, terms = _scene_backward(model, scene, tcfg, drop_rng, not augment)
                if loss is None:
                    continue
                if not np.isfinite(loss):
                    raise NumericError(
                        f"non-finite loss in scene {scene.id} (epoch {epoch}, step {step}): {terms}")
                n_contrib += 1
                ep_terms["loss"].append(loss)
                for k in ("l_lane", "l_point", "l_goal", "l_traj"):
                    ep_terms[k].append(terms.get(k, 0.0))
            # the batch loss is the mean over contributing scenes
            for t in model.ps.params.values():
                if t.grad is not None:
                    t.grad *= 1.0 / max(n_contrib, 1)
            step += 1
            lr = lr_schedule(step, total_steps, warmup_steps, tcfg.lr_peak)
            opt.step(lr)
        row = {"epoch": epoch,
               "loss": float(np.mean(ep_terms["loss"])) if ep_terms["loss"] else 0.0,
               **{k: (float(np.mean(v)) if v else 0.0)
                  for k, v in ep_terms.items() if k != "loss"},
               "lr": lr}
        log_rows.append(row)
        if log_every and epoch % log_every == 0:
            print(f"epoch {epoch}: loss={row['loss']:.4f} lr={lr:.2e}", flush=True)
        if out_dir:
            save_model(model, os.path.join(out_dir, "ckpt_latest.ckpt"))
        if callback and callback(epoch, model):
            break
    if out_dir:
        save_model(model, os.path.join(out_dir, "model.ckpt"))
        write_loss_log(log_rows, os.path.join(out_dir, "loss_log.csv"))
    return model, log_rows


def _scene_backward(model: Model, scene: Scene, tcfg: TrainConfig, rng, cache_graph: bool):
    """Forward, loss and backward of one scene, accumulating into the
    parameter grads. Returns (loss value, terms), or (None, {}) without a
    supervised agent. The scene's tape is released on return, so a batch
    holds one tape at a time."""
    fr = model.forward(scene, train=tcfg.dropout > 0, rng=rng, cache_graph=cache_graph)
    loss, terms, _ = compute_scene_loss(model, fr, scene, tcfg)
    if loss is None:
        return None, {}
    loss.backward()
    return float(loss.value), terms


def write_loss_log(rows: list, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("epoch,loss,l_lane,l_point,l_goal,l_traj,lr\n")
        for r in rows:
            f.write(f"{r['epoch']},{r['loss']:.10g},{r['l_lane']:.10g},{r['l_point']:.10g},"
                    f"{r['l_goal']:.10g},{r['l_traj']:.10g},{r['lr']:.10g}\n")


def save_model(model: Model, path: str) -> None:
    """Checkpoint with the model config embedded as an extra manifest entry."""
    nn.save_checkpoint(model.ps, path)
    with open(path + ".config.json", "w", encoding="utf-8") as f:
        json.dump(model.cfg.to_dict(), f, sort_keys=True)
        f.write("\n")


def load_model(path: str) -> Model:
    """Raises DataError when the checkpoint or its .config.json sidecar is
    missing, unreadable or malformed."""
    ps = nn.load_checkpoint(path)
    cfg_path = path + ".config.json"
    try:
        with open(cfg_path, encoding="utf-8") as f:
            cfg = ModelConfig.from_dict(json.load(f))
    except OSError as e:
        raise DataError(f"cannot read model config {cfg_path}: {e.strerror}") from e
    except (ValueError, TypeError, ConfigError) as e:
        raise DataError(f"{cfg_path}: malformed model config: {e}") from e
    return Model(cfg, ps=ps)
