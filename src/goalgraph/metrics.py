"""Motion-forecasting metrics and lane-membership geometry."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .files import write_csv, write_json
from .geometry import points_in_polygon, points_near_polygon_boundary

MISS_THRESHOLD = 2.0  # meters
LANE_EPS = 0.1        # boundary tolerance absorbing polygonization error
# the per-K metrics: MetricsReport fields, report columns and compare columns, in order
METRICS = ("minADE", "minFDE", "b_minFDE", "minMR", "missRateTopK_2")


def agent_metrics(preds_k: list, gt_scene: np.ndarray, K: int):
    """(minADE, minFDE, brier-minFDE, miss) of one agent's K highest-scoring
    modes (a tie keeps mode order), all from one (K, T_f) distance array.

    The Brier penalty is (1 - s)^2 for the score s of the minFDE mode (the
    higher score on a tie). A miss is every top-K mode having some waypoint
    further than 2 m from GT.
    """
    for p in preds_k:
        if p.traj_scene.shape != gt_scene.shape:
            raise DataError(f"trajectory length mismatch {p.traj_scene.shape} vs {gt_scene.shape}")
    top = sorted(range(len(preds_k)), key=lambda i: -preds_k[i].score)[:K]
    diff = np.stack([preds_k[i].traj_scene for i in top]) - gt_scene
    dist = np.hypot(diff[..., 0], diff[..., 1])
    fde = dist[:, -1]
    best = min(range(len(top)), key=lambda i: (fde[i], -preds_k[top[i]].score))
    penalty = (1.0 - preds_k[top[best]].score) ** 2
    miss = not (dist <= MISS_THRESHOLD).all(axis=1).any()
    return float(dist.mean(axis=1).min()), float(fde[best]), float(fde[best]) + penalty, miss


def trajectory_offroad(trajs, lane_polys: list, eps: float = LANE_EPS):
    """Per trajectory of a (..., T, 2) array: True if any waypoint lies outside
    every lane polygon (and further than eps from its boundary). A single
    (T, 2) trajectory gives one bool.

    Each lane tests only the waypoints not yet on a lane that lie in its
    vertex box padded by 2 eps: a point outside that box is more than eps
    from every edge, and its ray crosses the polygon an even number of times
    or not at all, so skipping it changes no verdict."""
    trajs = np.asarray(trajs, dtype=float)
    pts = trajs.reshape(-1, 2)
    on = np.zeros(len(pts), dtype=bool)
    for poly in lane_polys:
        lo, hi = np.min(poly, axis=0) - 2 * eps, np.max(poly, axis=0) + 2 * eps
        idx = np.flatnonzero(~on & (pts >= lo).all(axis=1) & (pts <= hi).all(axis=1))
        near = pts[idx]
        on[idx] = points_in_polygon(near, poly) | points_near_polygon_boundary(near, poly, eps)
    off = ~on.reshape(trajs.shape[:-1]).all(axis=-1)
    return off if off.ndim else bool(off)


@dataclass
class MetricsReport:
    n_agents: int = 0
    n_scenes: int = 0
    minADE: dict = field(default_factory=dict)       # K -> meters
    minFDE: dict = field(default_factory=dict)
    b_minFDE: dict = field(default_factory=dict)
    minMR: dict = field(default_factory=dict)
    missRateTopK_2: dict = field(default_factory=dict)
    ORR: float = 0.0
    per_class: dict = field(default_factory=dict)

    def to_dict(self):
        return {"n_agents": self.n_agents, "n_scenes": self.n_scenes,
                **{m: {str(k): v for k, v in getattr(self, m).items()} for m in METRICS},
                "ORR": self.ORR, "per_class": self.per_class}


def evaluate(model, dataset: list, ks=(1, 6)) -> MetricsReport:
    """Aggregate all metrics over a dataset; deterministic. ORR counts every
    mode of the road-bound agents, with one lane test per scene. A k above
    the model's K uses all its modes; a k below 1 is a ConfigError."""
    if any(k < 1 for k in ks):
        raise ConfigError(f"every k must be >= 1, got {list(ks)}")
    if not dataset:
        raise DataError("cannot evaluate on an empty dataset")
    rep = MetricsReport(n_scenes=len(dataset))
    acc = {(m, k): [] for m in METRICS for k in ks}
    per_class: dict = {}
    orr_hits, orr_total = 0, 0
    for scene in dataset:
        by_agent: dict = {}
        for p in model.predict(scene):
            by_agent.setdefault(p.agent_idx, []).append(p)
        road = []
        for ai, preds_k in sorted(by_agent.items()):
            agent = scene.agents[ai]
            if not agent.valid[scene.t_history:].all():
                continue
            gt = agent.states[scene.t_history:, 0:2]
            rep.n_agents += 1
            cls_acc = per_class.setdefault(agent.agent_class, {k: ([], []) for k in ks})
            for k in ks:
                ade, fde, bfde, miss = agent_metrics(preds_k, gt, k)
                row = (ade, fde, bfde, float(fde > MISS_THRESHOLD), float(miss))
                for m, v in zip(METRICS, row):
                    acc[m, k].append(v)
                cls_acc[k][0].append(ade)
                cls_acc[k][1].append(fde)
            if agent.road_bound:
                road += [p.traj_scene for p in preds_k]
        if road:
            off = trajectory_offroad(np.stack(road), [l.polygon() for l in scene.lanes])
            orr_hits += int(off.sum())
            orr_total += len(road)
    for m in METRICS:
        getattr(rep, m).update({k: float(np.mean(acc[m, k])) if acc[m, k] else math.nan
                                for k in ks})
    rep.ORR = orr_hits / orr_total if orr_total else 0.0
    rep.per_class = {
        cls: {str(k): {"minADE": float(np.mean(v[k][0])), "minFDE": float(np.mean(v[k][1]))}
              for k in ks}
        for cls, v in per_class.items()
    }
    return rep


def write_report(rep: MetricsReport, csv_path: str, json_path: str,
                 dataset_name: str = "", variant: str = "") -> None:
    write_csv(csv_path, ("dataset", "variant", "K", *METRICS, "ORR", "n_agents"),
              ([dataset_name, variant, k, *(getattr(rep, m)[k] for m in METRICS),
                rep.ORR, rep.n_agents] for k in sorted(rep.minADE)))
    write_json(json_path, rep.to_dict(), indent=1)
