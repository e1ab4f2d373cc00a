"""Motion-forecasting metrics and lane-membership geometry."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .files import write_csv, write_json
from .geometry import near_segments, polygon_edges, ray_crossings

MISS_THRESHOLD = 2.0  # meters
LANE_EPS = 0.1        # boundary tolerance absorbing polygonization error
# the per-K metrics: MetricsReport fields, report columns and compare columns, in order
METRICS = ("minADE", "minFDE", "b_minFDE", "minMR", "missRateTopK_2")


def agent_metrics(trajs: np.ndarray, scores: np.ndarray, gt: np.ndarray, K: int):
    """(minADE, minFDE, brier-minFDE, miss), each an (A,) array, of the K
    highest-scoring modes of each of A agents (a tie keeps mode order), from
    (A, M, T, 2) mode trajectories, (A, M) scores and (A, T, 2) ground truth.

    The Brier penalty is (1 - s)^2 for the score s of the minFDE mode (the
    higher score on a tie). A miss is every top-K mode having some waypoint
    further than 2 m from GT.
    """
    if trajs.shape[2:] != gt.shape[1:]:
        raise DataError(f"trajectory length mismatch {trajs.shape[2:]} vs {gt.shape[1:]}")
    top = np.argsort(-scores, axis=1, kind="stable")[:, :K]
    agent = np.arange(len(top))
    diff = trajs[agent[:, None], top] - gt[:, None]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    top_scores = scores[agent[:, None], top]
    best = np.lexsort((-top_scores, dist[..., -1]))[:, 0]
    fde = dist[agent, best, -1]
    # Python's float power, as the report has always squared: numpy's square
    # rounds about one score in a thousand the other way
    penalty = [(1.0 - s) ** 2 for s in top_scores[agent, best].tolist()]
    miss = ~(dist <= MISS_THRESHOLD).all(axis=-1).any(axis=-1)
    return dist.mean(axis=-1).min(axis=-1), fde, fde + penalty, miss


def trajectory_offroad(trajs, lane_polys: list, eps: float = LANE_EPS):
    """Per trajectory of a (..., T, 2) array: True if any waypoint lies outside
    every lane polygon (and further than eps from its boundary). A single
    (T, 2) trajectory gives one bool.

    The waypoints are sorted by x once. Each lane tests only the waypoints not
    yet on a lane that lie in its vertex box padded by 2 eps, found by
    bisection in x and a test of y: a point outside that box is more than eps
    from every edge, and its ray crosses the polygon an even number of times
    or not at all, so skipping it changes no verdict. The ray cast visits only
    the edges that span a waypoint's y, and the eps band is measured only for
    the waypoints outside the polygon."""
    trajs = np.asarray(trajs, dtype=float)
    pts = trajs.reshape(-1, 2)
    by_x = np.argsort(pts[:, 0], kind="stable")
    xs = pts[by_x, 0]
    a, b, _ = polygon_edges(lane_polys)
    ends = np.cumsum([len(p) for p in lane_polys]).tolist()
    on = np.zeros(len(pts), dtype=bool)
    for lane in map(slice, [0] + ends, ends):
        lo, hi = a[lane].min(axis=0) - 2 * eps, a[lane].max(axis=0) + 2 * eps
        idx = by_x[np.searchsorted(xs, lo[0]):np.searchsorted(xs, hi[0], side="right")]
        y = pts[idx, 1]
        idx = idx[~on[idx] & (y >= lo[1]) & (y <= hi[1])]
        if not len(idx):
            continue
        cand, edges = pts[idx], (a[lane], b[lane])
        inside = np.bincount(ray_crossings(cand, *edges)[0], minlength=len(idx)) % 2 == 1
        out = np.flatnonzero(~inside)
        inside[out] = near_segments(cand[out], *edges, eps)
        on[idx] = inside
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


def _stack_modes(scene_id: str, modes: list, shape: tuple):
    """(A, M, T, 2) trajectories and (A, M) scores of A agents' mode lists;
    every agent must have M modes, each trajectory of the given shape."""
    found = {(len(ps), p.traj_scene.shape) for ps in modes for p in ps}
    if found != {(len(modes[0]), shape)}:
        raise DataError(f"scene {scene_id}: every agent needs {len(modes[0])} modes of shape "
                        f"{shape}, got (modes, shape) {sorted(found)}")
    return (np.array([[p.traj_scene for p in ps] for ps in modes], dtype=float),
            np.array([[p.score for p in ps] for ps in modes], dtype=float))


def evaluate(model, dataset: list, ks=(1, 6)) -> MetricsReport:
    """Aggregate all metrics over a dataset; deterministic. ORR counts every
    mode of the road-bound agents, with one lane test per scene. A k above
    the model's K uses all its modes; a k below 1 is a ConfigError, and a
    dataset with no agent to score (none has a fully valid future) a DataError."""
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
        th = scene.t_history
        scored = [ai for ai in sorted(by_agent) if scene.agents[ai].valid[th:].all()]
        if not scored:
            continue
        gt = np.stack([scene.agents[ai].states[th:, 0:2] for ai in scored])
        trajs, scores = _stack_modes(scene.id, [by_agent[ai] for ai in scored], gt.shape[1:])
        rep.n_agents += len(scored)
        classes = [scene.agents[ai].agent_class for ai in scored]
        for k in ks:
            ade, fde, bfde, miss = agent_metrics(trajs, scores, gt, k)
            for m, v in zip(METRICS, (ade, fde, bfde, fde > MISS_THRESHOLD, miss)):
                acc[m, k].append(v.astype(float))
            for cls, a, f in zip(classes, ade.tolist(), fde.tolist()):
                cls_acc = per_class.setdefault(cls, {k: ([], []) for k in ks})[k]
                cls_acc[0].append(a)
                cls_acc[1].append(f)
        road = [scene.agents[ai].road_bound for ai in scored]
        if any(road):
            off = trajectory_offroad(trajs[road], [l.polygon() for l in scene.lanes])
            orr_hits += int(off.sum())
            orr_total += off.size
    if not rep.n_agents:
        raise DataError(f"no agent could be scored: none of the {len(dataset)} scenes "
                        f"has an agent with a prediction and a fully valid future")
    for m in METRICS:
        getattr(rep, m).update({k: float(np.mean(np.concatenate(acc[m, k]))) for k in ks})
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
