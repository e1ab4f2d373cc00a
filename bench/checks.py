"""Correctness checks computed apart from the package.

Every check takes plain data (scenes, predictions, reports, counts) and
returns a list of error strings; an empty list means the check passed. The
geometry here (polygon membership, boundary distance, lane midpoints, the
reachable-lane search, radius counts) is written from the method's
definitions, not by calling the package's own helpers, so a fault in one of
those helpers shows as a disagreement.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

LANE_EPS = 0.1         # on-road tolerance at a lane polygon's boundary (m)
BOUNDARY_TIE = 1e-6    # a point this close to a lane edge may fall either side


# ---------------------------------------------------------------------------
# geometry

def lane_polygon(lane) -> np.ndarray:
    """Lane area: left boundary, then the right boundary walked backwards."""
    return np.concatenate([np.asarray(lane.left_boundary, float),
                           np.asarray(lane.right_boundary, float)[::-1]])


def inside(pts: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Even-odd rule: count the polygon edges crossed by a ray towards +x."""
    pts = np.atleast_2d(pts)
    a, b = poly, np.roll(poly, -1, axis=0)
    px, py = pts[:, 0:1], pts[:, 1:2]
    straddle = (a[None, :, 1] <= py) != (b[None, :, 1] <= py)
    dy = b[:, 1] - a[:, 1]
    t = (py - a[None, :, 1]) / np.where(dy == 0.0, np.inf, dy)[None, :]
    x_cross = a[None, :, 0] + t * (b[:, 0] - a[:, 0])[None, :]
    return (np.count_nonzero(straddle & (x_cross > px), axis=1) % 2) == 1


def boundary_distance(pts: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Distance from each point to the closest polygon edge (closing edge too)."""
    return segment_distance(np.atleast_2d(pts), poly, np.roll(poly, -1, axis=0))


def segment_distance(pts, a, b) -> np.ndarray:
    """Min distance from each point to the segments a[i]-b[i]."""
    ab = b - a
    len2 = np.maximum((ab * ab).sum(axis=1), 1e-300)
    rel = pts[:, None, :] - a[None, :, :]
    t = np.clip((rel * ab[None]).sum(axis=2) / len2[None], 0.0, 1.0)
    gap = rel - t[..., None] * ab[None]
    return np.sqrt((gap * gap).sum(axis=2)).min(axis=1)


def polyline_distance(pt, line) -> float:
    line = np.asarray(line, float)
    return float(segment_distance(np.atleast_2d(pt), line[:-1], line[1:])[0])


def lane_midpoint(lane) -> np.ndarray:
    """The centerline point at half the lane's arc length."""
    c = np.asarray(lane.centerline, float)
    seg = np.sqrt(((c[1:] - c[:-1]) ** 2).sum(axis=1))
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    half = 0.5 * cum[-1]
    i = min(int(np.searchsorted(cum, half, side="right")) - 1, len(seg) - 1)
    frac = (half - cum[i]) / seg[i] if seg[i] > 0 else 0.0
    return c[i] + frac * (c[i + 1] - c[i])


# ---------------------------------------------------------------------------
# structure of one scene's predictions

def check_predictions(scene, preds, K: int, T_f: int) -> list:
    """K modes per predicted agent, scores positive and summing to 1, finite
    trajectories with T_f rows, and exactly the agents seen at the last
    observed step."""
    errs = []
    by_agent = {}
    for p in preds:
        by_agent.setdefault(p.agent_idx, []).append(p)
    t_last = scene.t_history - 1
    expected = {i for i, a in enumerate(scene.agents) if a.states[t_last, 4] > 0.5}
    if set(by_agent) != expected:
        errs.append(f"{scene.id}: predicted agents {sorted(by_agent)} "
                    f"!= visible {sorted(expected)}")
    for ai, modes in sorted(by_agent.items()):
        if len(modes) != K or sorted(p.mode for p in modes) != list(range(K)):
            errs.append(f"{scene.id}/agent {ai}: {len(modes)} modes, expected {K}")
        scores = np.array([p.score for p in modes])
        if not (scores > 0).all() or abs(scores.sum() - 1.0) > 1e-12:
            errs.append(f"{scene.id}/agent {ai}: scores {scores.tolist()} not positive "
                        f"with sum 1 (sum - 1 = {scores.sum() - 1.0:.2e})")
        for p in modes:
            tr = np.asarray(p.traj_scene)
            if tr.shape != (T_f, 2) or not np.isfinite(tr).all():
                errs.append(f"{scene.id}/agent {ai} mode {p.mode}: trajectory shape "
                            f"{tr.shape}, finite={bool(np.isfinite(tr).all())}")
    return errs


# ---------------------------------------------------------------------------
# reachable lanes (Dijkstra over successor and lateral-neighbour links)

def reachable(scene, agent_idx: int, seed_radius: float, cap: float):
    """Lanes reachable from the agent's last observed position.

    Returns (lanes, may_fall_back): `lanes` is the reachable set from every
    lane that could seed the search, or an empty set when none can;
    `may_fall_back` says whether the agent may legitimately get no lane at
    all (no lane clearly contains it and no centerline is clearly within
    the seed radius).
    """
    xy = np.asarray(scene.agents[agent_idx].states[scene.t_history - 1, 0:2], float)
    contains, touches = set(), set()
    for i, lane in enumerate(scene.lanes):
        poly = lane_polygon(lane)
        if boundary_distance(xy, poly)[0] <= BOUNDARY_TIE:
            touches.add(i)
        elif inside(xy, poly)[0]:
            contains.add(i)
    seeds = contains | touches
    may_fall_back = False
    if not contains:
        d = np.array([polyline_distance(xy, l.centerline) for l in scene.lanes])
        dmin = float(d.min())
        if dmin <= seed_radius + BOUNDARY_TIE:
            seeds |= {int(i) for i in np.nonzero(d <= dmin + 1e-9)[0]}
        may_fall_back = dmin > seed_radius - BOUNDARY_TIE
    index = {l.id: i for i, l in enumerate(scene.lanes)}
    cost = {s: 0.0 for s in seeds}
    heap = [(0.0, s) for s in sorted(seeds)]
    while heap:
        c, u = heapq.heappop(heap)
        if c > cost.get(u, math.inf):
            continue
        lane = scene.lanes[u]
        length = float(np.sqrt(((np.diff(np.asarray(lane.centerline, float), axis=0)) ** 2)
                               .sum(axis=1)).sum())
        steps = [(index[s], c + length) for s in lane.successors]
        steps += [(index[n], c) for n in (lane.left_neighbor, lane.right_neighbor) if n]
        for v, cv in steps:
            if cv <= cap + 1e-9 and cv < cost.get(v, math.inf):
                cost[v] = cv
                heapq.heappush(heap, (cv, v))
    return set(cost), may_fall_back


def check_selected_lanes(scene, preds, seed_radius: float, cap: float) -> list:
    """Road-bound agents pick a reachable lane (or none, only when no lane is
    near); pedestrians never pick a lane."""
    errs = []
    done = {}
    for p in preds:
        agent = scene.agents[p.agent_idx]
        if agent.agent_class == "pedestrian":
            if p.selected_lane_idx is not None:
                errs.append(f"{scene.id}/agent {p.agent_idx}: pedestrian selected a lane")
            continue
        if p.agent_idx not in done:
            done[p.agent_idx] = reachable(scene, p.agent_idx, seed_radius, cap)
        lanes, may_fall_back = done[p.agent_idx]
        if p.selected_lane_idx is None:
            if not may_fall_back:
                errs.append(f"{scene.id}/agent {p.agent_idx} mode {p.mode}: no lane selected "
                            "although a lane is within reach")
        elif p.selected_lane_idx not in lanes:
            errs.append(f"{scene.id}/agent {p.agent_idx} mode {p.mode}: lane "
                        f"{p.selected_lane_idx} is not reachable (reachable {sorted(lanes)})")
    return errs


# ---------------------------------------------------------------------------
# SE(2) invariance

def rigid(xy: np.ndarray, dx: float, dy: float, th: float) -> np.ndarray:
    c, s = math.cos(th), math.sin(th)
    xy = np.asarray(xy, float)
    return np.stack([c * xy[..., 0] - s * xy[..., 1] + dx,
                     s * xy[..., 0] + c * xy[..., 1] + dy], axis=-1)


def check_se2(preds, moved_preds, dx: float, dy: float, th: float, tol: float = 1e-6) -> list:
    """Predicting the moved scene gives the moved predictions."""
    ref = {(p.agent_idx, p.mode): p for p in preds}
    got = {(p.agent_idx, p.mode): p for p in moved_preds}
    if set(ref) != set(got):
        return [f"SE(2): mode sets differ ({len(ref)} vs {len(got)})"]
    errs = []
    for key, p in sorted(ref.items()):
        q = got[key]
        err = float(np.abs(rigid(p.traj_scene, dx, dy, th) - q.traj_scene).max())
        if err > tol or abs(p.score - q.score) > tol or p.selected_lane_idx != q.selected_lane_idx:
            errs.append(f"SE(2): agent {key[0]} mode {key[1]}: trajectory error {err:.2e}, "
                        f"score {p.score:.6f} vs {q.score:.6f}, "
                        f"lane {p.selected_lane_idx} vs {q.selected_lane_idx}")
    return errs


# ---------------------------------------------------------------------------
# evaluate() recomputed from the predictions it was given

def recompute_metrics(dataset, preds_per_scene, ks=(1, 6), eps: float = LANE_EPS) -> dict:
    """minADE/minFDE over the top-k modes by score (ties: lower mode first)
    of agents with a fully valid future; ORR over every mode of those
    agents that are road-bound, with a waypoint off-road when it is outside
    every lane polygon by more than eps."""
    ade = {k: [] for k in ks}
    fde = {k: [] for k in ks}
    off = total = 0
    for scene, preds in zip(dataset, preds_per_scene):
        by_agent = {}
        for p in preds:
            by_agent.setdefault(p.agent_idx, []).append(p)
        polys = [lane_polygon(l) for l in scene.lanes]
        for ai, modes in sorted(by_agent.items()):
            agent = scene.agents[ai]
            fut = agent.states[scene.t_history:]
            if not (fut[:, 4] > 0.5).all():
                continue
            gt = fut[:, 0:2]
            ranked = sorted(range(len(modes)), key=lambda i: (-modes[i].score, i))
            for k in ks:
                top = [modes[i] for i in ranked[:k]]
                ade[k].append(min(float(np.sqrt(((p.traj_scene - gt) ** 2).sum(axis=1)).mean())
                                  for p in top))
                fde[k].append(min(float(np.sqrt(((p.traj_scene[-1] - gt[-1]) ** 2).sum()))
                                  for p in top))
            if agent.agent_class == "pedestrian":
                continue
            for p in modes:
                on = np.zeros(len(p.traj_scene), bool)
                for poly in polys:
                    near = boundary_distance(p.traj_scene, poly) <= eps
                    on |= inside(p.traj_scene, poly) | near
                total += 1
                off += int(not on.all())
    out = {"n_agents": len(fde[ks[0]]), "ORR": off / total if total else 0.0}
    for k in ks:
        out[f"minADE{k}"] = float(np.mean(ade[k])) if ade[k] else math.nan
        out[f"minFDE{k}"] = float(np.mean(fde[k])) if fde[k] else math.nan
    return out


def check_report(rep, mine: dict, ks=(1, 6), tol: float = 1e-9) -> list:
    """evaluate()'s report equals the recomputation."""
    errs = []
    pairs = [("n_agents", rep.n_agents, mine["n_agents"]), ("ORR", rep.ORR, mine["ORR"])]
    for k in ks:
        pairs += [(f"minADE{k}", rep.minADE[k], mine[f"minADE{k}"]),
                  (f"minFDE{k}", rep.minFDE[k], mine[f"minFDE{k}"])]
    for name, theirs, ours in pairs:
        if not abs(theirs - ours) <= tol * max(1.0, abs(ours)):
            errs.append(f"evaluate {name} = {theirs!r}, recomputed {ours!r}")
    return errs


# ---------------------------------------------------------------------------
# radius-based edge counts

def radius_edge_counts(scene, K: int, gcfg) -> dict:
    """Brute-force counts of the radius edge types from scene coordinates."""
    th = scene.t_history
    mids = np.array([lane_midpoint(l) for l in scene.lanes])
    # agent nodes: every valid history step
    nodes = [(i, t, a.states[t, 0:2]) for i, a in enumerate(scene.agents)
             for t in range(th) if a.states[t, 4] > 0.5]
    npos = np.array([n[2] for n in nodes]).reshape(-1, 2)

    def near(p, q, r):
        if len(p) == 0 or len(q) == 0:
            return np.zeros((len(p), len(q)), bool)
        return np.sqrt(((p[:, None, :] - q[None, :, :]) ** 2).sum(axis=2)) <= r

    l2l = near(mids, mids, gcfg.lane_to_lane_radius)
    np.fill_diagonal(l2l, False)
    a_soc = 0
    for t in range(th):
        at = [(i, p) for i, tt, p in nodes if tt == t]
        for i, p in at:
            a_soc += sum(1 for j, q in at if j != i and math.dist(p, q) <= gcfg.social_radius)
    last = [(i, a.states[th - 1, 0:2]) for i, a in enumerate(scene.agents)
            if a.states[th - 1, 4] > 0.5]
    a_soc_q = sum(1 for i, p in last for j, q in last
                  if j != i and math.dist(p, q) <= gcfg.query_social_radius)
    qpos = np.array([p for _, p in last]).reshape(-1, 2)
    return {
        "l2l": int(l2l.sum()),
        "a_soc": a_soc,
        "l2a": int(near(mids, npos, gcfg.lane_to_agent_radius).sum()),
        "a_soc_q": K * a_soc_q,
        "l2q": K * int(near(mids, qpos, gcfg.query_lane_radius).sum()),
    }


def check_edge_counts(scene_id: str, graph_counts: dict, mine: dict) -> list:
    return [f"{scene_id}: {t} edges {graph_counts[t]} != brute force {n}"
            for t, n in sorted(mine.items()) if graph_counts[t] != n]


# ---------------------------------------------------------------------------
# training: finiteness and the tape gradient against central differences

def check_finite(log_rows, params: dict) -> list:
    errs = [f"epoch {r['epoch']}: non-finite {k} = {v}" for r in log_rows
            for k, v in r.items() if isinstance(v, float) and not math.isfinite(v)]
    errs += [f"parameter {n} has non-finite entries" for n, v in sorted(params.items())
             if not np.isfinite(v).all()]
    return errs


def central_difference(f, arr: np.ndarray, j: int, h: float) -> float:
    """(f(x + h e_j) - f(x - h e_j)) / 2h, perturbing arr in place."""
    flat = arr.reshape(-1)
    orig = flat[j]
    flat[j] = orig + h
    up = f()
    flat[j] = orig - h
    down = f()
    flat[j] = orig
    return (up - down) / (2.0 * h)


def check_gradient(f, coords, f0: float, tol: float = 1e-4,
                   steps=(1e-5, 1e-6, 1e-7, 1e-8, 1e-4)) -> list:
    """coords: (label, array, flat index, tape gradient). A coordinate passes
    when any step size agrees to tol relative. A step that crosses a
    LeakyReLU kink averages the two slopes, so the steps go down to 1e-8,
    below a kink seen 1e-7 to 1e-6 away; a wrong gradient disagrees at
    every step. Errors below the central-difference noise floor, about
    eps*|f|/h, pass."""
    errs = []
    for label, arr, j, g in coords:
        worst = []
        for h in steps:
            fd = central_difference(f, arr, j, h)
            floor = 10.0 * np.finfo(float).eps * abs(f0) / h / tol
            rel = abs(fd - g) / max(abs(fd), abs(g), floor)
            worst.append((rel, h, fd))
            if rel <= tol:
                break
        else:
            rel, h, fd = min(worst)
            errs.append(f"gradient {label}: tape {g:.9e}, central difference {fd:.9e} "
                        f"(h={h:g}, rel err {rel:.1e})")
    return errs
