"""Losses, winner-takes-all assignment, AdamW with warmup/cosine, augmentation,
and the training loop."""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .config import Config
from .errors import ConfigError, DataError, NumericError
from .files import read_json, write_csv, write_json
from .geometry import polyline_distances, to_local
from .graph import build_decide_point_edges
from .model import ForwardResult, Model, ModelConfig
from .scene import AgentTrack, Scene


@dataclass
class TrainConfig(Config):
    lr_peak: float = 5e-4
    beta1: float = 0.9
    beta2: float = 0.95
    weight_decay: float = 1e-4
    warmup_epochs: int = 1
    total_epochs: int = 40
    batch_size: int = 64
    aug_scale_min: float = 0.8
    aug_scale_max: float = 1.2
    aug_drop_frac: float = 0.10
    traj_loss_weight: float = 10.0
    focal_alpha: float = 0.75
    focal_gamma: float = 2.0
    huber_delta: float = 1.0
    seed: int = 0
    adam_eps: float = 1e-8

    def check(self):
        if self.warmup_epochs >= self.total_epochs:
            raise ConfigError("warmup_epochs must be < total_epochs")
        for f_ in ("lr_peak", "batch_size", "total_epochs", "traj_loss_weight",
                   "focal_alpha", "huber_delta"):
            if getattr(self, f_) <= 0:
                raise ConfigError(f"{f_} must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


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


def huber_loss_tensor(residual: Tensor, delta: float) -> Tensor:
    return ad.mean_all(ad.huber_elts(residual, delta))


def laplace_nll_tensor(mu: Tensor, b: Tensor, gt: np.ndarray) -> Tensor:
    err = ad.abs_(ad.sub(mu, Tensor(gt)))
    return ad.mean_all(ad.add(ad.log(ad.scalar_mul(b, 2.0)), ad.div(err, b)))


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
            # in place, in this order:
            #   m += (1 - beta1) (g - m);  v += (1 - beta2) (g g - v)
            #   upd = (m / b1c) / (sqrt(v / b2c) + eps) [+ weight_decay p];  p -= lr upd
            s, upd = np.empty((2,) + g.shape)
            np.subtract(g, m, out=s)
            s *= 1.0 - c.beta1
            m += s
            np.multiply(g, g, out=s)
            s -= v
            s *= 1.0 - c.beta2
            v += s
            np.divide(v, b2c, out=s)
            np.sqrt(s, out=s)
            s += c.adam_eps
            np.divide(m, b1c, out=upd)
            upd /= s
            if self.ps.decay[name]:
                np.multiply(p.value, c.weight_decay, out=s)
                upd += s
            upd *= lr
            p.value -= upd


# ---------------------------------------------------------------------------
# winner-takes-all

def select_winners(dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hierarchical winners of M agents from (M, K, S) distances of each
    agent's K modes to its ground-truth endpoint, one column per goal stage.
    Each column in turn keeps the modes at its minimum (exact ==); a residual
    tie goes to the lowest mode. Returns each agent's mode and stage: the
    first column after which one mode is left, else S."""
    alive = np.ones(dist.shape[:2], dtype=bool)
    stage = np.ones(len(dist), dtype=int)
    for s in range(dist.shape[2]):
        if s:
            stage += alive.sum(axis=1) > 1
        d = np.where(alive, dist[..., s], np.inf)
        alive &= d == d.min(axis=1, keepdims=True)
    return alive.argmax(axis=1), stage


def winner_distances(fr: ForwardResult, q: np.ndarray, endpoints: np.ndarray) -> np.ndarray:
    """(M, K, 3) distances from M agents' (M, 2) ground-truth endpoints to
    their modes, the (M, K) queries q, at each goal stage: the selected lane's
    midpoint (row i of HeteroGraph.lane_pose starts with lane i's), the
    selected point and the goal. A stage that selects nothing reads 0: the
    lane for nrb agents, lane and point for the baseline, whose goal is its
    trajectory's endpoint."""
    gt = np.broadcast_to(endpoints[:, None, :], q.shape + (2,))

    def dist(xy, at):
        return np.hypot(xy[..., 0] - at[..., 0], xy[..., 1] - at[..., 1])

    d = np.zeros(q.shape + (3,))
    if fr.point is None:
        d[..., 2] = dist(fr.traj_scene[q, -1], gt)
        return d
    rb = fr.lane[q] >= 0
    d[rb, 0] = dist(fr.graph.lane_pose[fr.lane[q[rb]]], gt[rb])
    d[..., 1] = dist(fr.point_pose[q], gt)
    d[..., 2] = dist(fr.goal_scene[q], gt)
    return d


# ---------------------------------------------------------------------------
# combined scene loss

def nearest_decide_edges(edges, q: np.ndarray, dist) -> np.ndarray:
    """Edge position of each winning query's decide edge whose candidate lies
    nearest its ground-truth endpoint, by Model.argmax_per_group, so a tie
    goes to the first edge. q holds the ascending winning queries, and
    dist(w, c) the distances from winners q[w] to candidates c."""
    w = np.searchsorted(q, edges.src)
    pos = np.nonzero(q[np.minimum(w, len(q) - 1)] == edges.src)[0]
    w = w[pos]
    return pos[Model.argmax_per_group(-dist(w, edges.dst[pos]), w, len(q))]


def compute_scene_loss(model: Model, fr: ForwardResult, scene: Scene,
                       tcfg: TrainConfig):
    """Winner-takes-all combined loss for one scene, over the predicted agents
    with a fully valid future. Returns (loss Tensor or None, terms dict,
    WinnerAssignment)."""
    g, K = fr.graph, model.cfg.K
    rows = np.array([m for m, i in enumerate(g.predicted)
                     if scene.agents[i].valid[scene.t_history:].all()], dtype=int)
    if not len(rows):
        return None, {}, WinnerAssignment()
    agents = [g.predicted[m] for m in rows]
    tracks = np.stack([scene.agents[a].states for a in agents])
    endpoints = tracks[:, -1, 0:2]
    modes, stages = select_winners(
        winner_distances(fr, rows[:, None] * K + np.arange(K), endpoints))
    assign = WinnerAssignment(dict(zip(agents, modes.tolist())),
                              dict(zip(agents, stages.tolist())))
    qs = rows * K + modes  # each agent's winning query
    gt = to_local(tracks[:, scene.t_history:, 0:2], g.query_pose[qs][:, None, :])
    if model.cfg.variant == "baseline":
        l_score = focal_loss_tensor(ad.gather_rows(fr.base_scores, qs),
                                    tcfg.focal_alpha, tcfg.focal_gamma)
        l_traj = laplace_nll_tensor(ad.gather_rows(fr.base_mu, qs),
                                    ad.gather_rows(fr.base_b, qs), gt)
        terms = {"l_lane": 0.0, "l_point": float(l_score.value), "l_goal": 0.0,
                 "l_traj": float(l_traj.value)}
        return ad.add(l_score, ad.scalar_mul(l_traj, tcfg.traj_loss_weight)), terms, assign

    losses, lane_p, point_p, goal_terms = [], [], {}, {"l_goal": [], "l_traj": []}
    rb = g.rb[rows]
    for grp, sel in (("rb", rb), ("nrb", ~rb)):
        if not sel.any():
            continue
        q, ends = qs[sel], endpoints[sel]
        if grp == "rb":
            # lane target among each winner's reachable lanes; the point stage
            # is teacher-forced on the lane nearest of all
            d = polyline_distances(ends, [lane.centerline for lane in scene.lanes])
            lane_p.append(ad.gather_rows(fr.lane_scores, nearest_decide_edges(
                g.edges["dec_lane"], q, lambda w, c: d[w, c])))
            edges = build_decide_point_edges(g, q, np.argmin(d, axis=1))
            scores, fe = model.score_decide_edges("point", "dec_point", fr.query_feats,
                                                  fr.enc["point"], edges, g.n_queries)
            cand_pose = g.point_pose
        else:
            edges, scores, fe, cand_pose = g.edges["dec_nrb"], fr.nrb_scores, fr.nrb_fe, g.nrb_pose
        positions = nearest_decide_edges(edges, q, lambda w, c: np.hypot(
            cand_pose[c, 0] - ends[w, 0], cand_pose[c, 1] - ends[w, 1]))
        point_p[grp] = ad.gather_rows(scores, positions)
        goal_pose, offset, _, mu, b = model.goal_head(grp, fr, fe, edges, positions, q)

        # Huber loss on the offset in the goal node's frame, Laplace NLL on the trajectory
        l_goal = huber_loss_tensor(ad.sub(offset, Tensor(to_local(ends, goal_pose))),
                                   tcfg.huber_delta)
        l_traj = laplace_nll_tensor(mu, b, gt[sel])
        losses += [l_goal, ad.scalar_mul(l_traj, tcfg.traj_loss_weight)]
        goal_terms["l_goal"].append(float(l_goal.value))
        goal_terms["l_traj"].append(float(l_traj.value))

    # the point stage's targets, nrb ring candidates before rb points: this
    # order of the focal mean's float sum keeps trained weights bit-identical
    stage_p = {"l_lane": lane_p,
               "l_point": [point_p[grp] for grp in ("nrb", "rb") if grp in point_p]}
    terms = {"l_lane": 0.0, "l_point": 0.0}
    for name, p in stage_p.items():
        if p:
            losses.append(focal_loss_tensor(ad.concat(p, axis=0),
                                            tcfg.focal_alpha, tcfg.focal_gamma))
            terms[name] = float(losses[-1].value)
    terms.update({k: float(np.mean(v)) for k, v in goal_terms.items()})
    return functools.reduce(ad.add, losses), terms, assign


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
          augment: bool = True, log_every: int = 0) -> tuple[Model, list]:
    """Returns (model, per-epoch log rows). Deterministic for a fixed seed. A
    scene whose future is not mcfg.T_f steps is a DataError before any step."""
    if not dataset:
        raise ConfigError("empty dataset")
    for scene in dataset:
        if scene.t_future != mcfg.T_f:
            raise DataError(f"scene {scene.id} has a future of {scene.t_future} steps, "
                            f"the model config T_f={mcfg.T_f}")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    model = Model(mcfg, seed=tcfg.seed)
    opt = AdamW(model.ps, tcfg)
    ss = np.random.SeedSequence(tcfg.seed)
    shuffle_rng, aug_rng, drop_rng = (np.random.default_rng(s) for s in ss.spawn(3))

    n = len(dataset)
    batches_per_epoch = math.ceil(n / tcfg.batch_size)
    total_steps = tcfg.total_epochs * batches_per_epoch
    warmup_steps = tcfg.warmup_epochs * batches_per_epoch

    graphs = {}  # dataset index -> graph, reused by every epoch when not augmenting
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
                loss, terms, graph = _scene_backward(model, scene, tcfg, drop_rng, graphs.get(si))
                if not augment:
                    graphs[si] = graph
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
        row = {"epoch": epoch, **{k: float(np.mean(v)) if v else 0.0 for k, v in ep_terms.items()},
               "lr": lr}
        log_rows.append(row)
        if log_every and epoch % log_every == 0:
            print(f"epoch {epoch}: loss={row['loss']:.4f} lr={lr:.2e}", flush=True)
        if out_dir:
            save_model(model, os.path.join(out_dir, "ckpt_latest.ckpt"))
    if out_dir:
        save_model(model, os.path.join(out_dir, "model.ckpt"))
        cols = ("epoch", "loss", "l_lane", "l_point", "l_goal", "l_traj", "lr")
        write_csv(os.path.join(out_dir, "loss_log.csv"), cols,
                  ([r[c] for c in cols] for r in log_rows))
    return model, log_rows


def _scene_backward(model: Model, scene: Scene, tcfg: TrainConfig, rng, graph):
    """Forward (on `graph` when given), loss and backward of one scene,
    accumulating into the parameter grads. Returns (loss value, terms, graph),
    with (None, {}) first without a supervised agent. The forward's outputs
    are dropped before the backward, so it holds only what the backward
    closures saved, and the scene's tape is released on return, so a batch
    holds one tape at a time."""
    fr = model.forward(scene, rng=rng, graph=graph)
    graph = fr.graph
    loss, terms, _ = compute_scene_loss(model, fr, scene, tcfg)
    del fr
    if loss is None:
        return None, {}, graph
    loss.backward()
    return float(loss.value), terms, graph


def save_model(model: Model, path: str) -> None:
    """Checkpoint at `path`, and the model config in the sidecar
    `path`.config.json; each is written whole, then moved in place."""
    nn.save_checkpoint(model.ps, path)
    write_json(path + ".config.json", model.cfg.to_dict())


def load_model(path: str) -> Model:
    """Raises DataError when the checkpoint or its .config.json sidecar is
    missing, unreadable or malformed."""
    ps = nn.load_checkpoint(path)
    cfg_path = path + ".config.json"
    try:
        cfg = ModelConfig.from_dict(read_json(cfg_path))
    except ConfigError as e:
        raise DataError(f"{cfg_path}: malformed model config: {e}") from e
    return Model(cfg, ps=ps)
