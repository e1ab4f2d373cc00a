"""Heterogeneous scene-graph construction with relative (SE(2)-invariant) edge features."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Segments
from .errors import ConfigError, InvalidInputError, StructuralError
from .geometry import Pose2, point_to_polyline_distance, points_in_polygon
from .scene import AGENT_CLASSES, LANE_TYPES, SIDES, Scene

LANE_RELATIONS = ("none", "successor", "predecessor", "left-neighbor", "right-neighbor")

NRB_CIRCLES = 8
NRB_POINTS_PER_CIRCLE = 8  # circle i carries 8*i points
NRB_TOTAL = sum(NRB_POINTS_PER_CIRCLE * i for i in range(1, NRB_CIRCLES + 1))  # 288
NRB_MIN_SPEED = 0.5  # m/s clamp for the mean-velocity radius rule
NRB_CIRCLE_PERIOD = 1.0  # s per circle index


@dataclass(frozen=True)
class GraphConfig:
    """Connection radii and caps for graph construction (meters / steps)."""

    lane_to_lane_radius: float = 125.0
    social_radius: float = 50.0
    lane_to_agent_radius: float = 50.0
    max_successor_gap: int = 20
    query_social_radius: float = 100.0
    query_lane_radius: float = 150.0
    reach_distance_cap: float = 150.0
    seed_lane_radius: float = 50.0


def relative_edge_feature(pose_m: Pose2, pose_n: Pose2, dt=None):
    """Edge feature (sin a, cos a, sin phi, cos phi, d, dt) of n seen from frame m."""
    for p in (pose_m, pose_n):
        if not all(math.isfinite(v) for v in (p.x, p.y, p.heading)):
            raise InvalidInputError("non-finite pose in relative_edge_feature")
    if dt is not None and not math.isfinite(dt):
        raise InvalidInputError("non-finite dt in relative_edge_feature")
    a = pose_n.heading - pose_m.heading
    c, s = math.cos(-pose_m.heading), math.sin(-pose_m.heading)
    ex, ey = pose_n.x - pose_m.x, pose_n.y - pose_m.y
    dx, dy = c * ex - s * ey, s * ex + c * ey
    d = math.hypot(dx, dy)
    phi = 0.0 if d < 1e-9 else math.atan2(dy, dx)
    return np.array([math.sin(a), math.cos(a), math.sin(phi), math.cos(phi),
                     d, 0.0 if dt is None else dt])


def _rel_feat_arrays(pm: np.ndarray, pn: np.ndarray, dt: np.ndarray | None) -> np.ndarray:
    """Vectorized relative_edge_feature; pm, pn are (E, 3) pose arrays."""
    a = pn[:, 2] - pm[:, 2]
    c, s = np.cos(-pm[:, 2]), np.sin(-pm[:, 2])
    ex, ey = pn[:, 0] - pm[:, 0], pn[:, 1] - pm[:, 1]
    dx, dy = c * ex - s * ey, s * ex + c * ey
    d = np.hypot(dx, dy)
    phi = np.where(d < 1e-9, 0.0, np.arctan2(dy, np.where(d < 1e-9, 1.0, dx)))
    out = np.stack([np.sin(a), np.cos(a), np.sin(phi), np.cos(phi), d,
                    np.zeros_like(d) if dt is None else dt], axis=1)
    return out


@dataclass
class EdgeSet:
    src: np.ndarray
    dst: np.ndarray
    feat: np.ndarray
    rel: np.ndarray | None = None
    # segment layouts of src and dst, for the grouped softmax and sums over edges
    by_src: Segments = field(init=False, repr=False, compare=False)
    by_dst: Segments = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.by_src, self.by_dst = Segments(self.src), Segments(self.dst)

    @property
    def count(self) -> int:
        return len(self.src)


def _empty_edges(with_rel=False) -> EdgeSet:
    return EdgeSet(np.zeros(0, dtype=int), np.zeros(0, dtype=int),
                   np.zeros((0, 6)), np.zeros(0, dtype=int) if with_rel else None)


@dataclass
class HeteroGraph:
    """Typed node arrays plus typed edge lists for one scene."""

    scene: Scene
    cfg: GraphConfig
    K: int

    # agent nodes (history steps with valid state)
    agent_node_agent: np.ndarray = None
    agent_node_t: np.ndarray = None
    agent_pose: np.ndarray = None          # (Na, 3)
    agent_vel_local: np.ndarray = None     # (Na, 2)
    agent_class_id: np.ndarray = None

    # lane nodes
    lane_pose: np.ndarray = None           # (L, 3)
    lane_length: np.ndarray = None
    lane_type_id: np.ndarray = None

    # point nodes
    point_pose: np.ndarray = None          # (P, 3)
    point_seg_length: np.ndarray = None
    point_side_id: np.ndarray = None
    point_type_id: np.ndarray = None
    point_lane_idx: np.ndarray = None
    point_seg_index: np.ndarray = None

    # agent-query nodes (one per predicted agent per mode, agent-major order)
    query_agent: np.ndarray = None
    query_mode: np.ndarray = None
    query_pose: np.ndarray = None          # (Q, 3)

    # point-nrb candidate nodes
    nrb_owner: np.ndarray = None           # agent index per candidate
    nrb_pose: np.ndarray = None            # (M, 3)
    nrb_radius: np.ndarray = None
    nrb_circle: np.ndarray = None

    predicted: list = field(default_factory=list)       # agent indices
    goal_rb: dict = field(default_factory=dict)         # agent idx -> bool (rb goal pipeline)
    reachable: dict = field(default_factory=dict)       # agent idx -> sorted lane indices
    edges: dict = field(default_factory=dict)

    @property
    def n_agent_nodes(self):
        return len(self.agent_node_agent)

    @property
    def n_queries(self):
        return len(self.query_agent)

    def agent_node_id(self, agent_idx: int, t: int) -> int:
        return self._node_lookup.get((agent_idx, t), -1)


def assign_poses(scene: Scene):
    """Scene-frame poses for every node type.

    Returns (agent_poses, lane_poses, point info) where agent_poses is a
    (n_agents, T, 3) array (heading via the carry-forward rule) and lane_poses
    the arc-length-midpoint pose per lane.
    """
    T = scene.t_total
    agent_poses = np.zeros((len(scene.agents), T, 3))
    for i, a in enumerate(scene.agents):
        agent_poses[i, :, 0:2] = a.states[:, 0:2]
        agent_poses[i, :, 2] = a.headings()
    lane_poses = np.zeros((len(scene.lanes), 3))
    for i, lane in enumerate(scene.lanes):
        p = lane.midpoint_pose()
        lane_poses[i] = (p.x, p.y, p.heading)
    return agent_poses, lane_poses


def reachable_lanes(scene: Scene, agent_idx: int, cfg: GraphConfig = GraphConfig()):
    """Lane indices reachable from the agent's last observed position.

    BFS over successor and lateral-neighbor links from seed lanes, capped at
    150 m of accumulated centerline length. Returns None when no lane lies
    within the seed radius (the agent falls back to the nrb goal pipeline).
    """
    agent = scene.agents[agent_idx]
    xy = agent.states[scene.t_history - 1, 0:2]
    seeds = [i for i, lane in enumerate(scene.lanes)
             if points_in_polygon(xy[None, :], lane.polygon())[0]]
    if not seeds:
        dists = [(point_to_polyline_distance(xy, lane.centerline), i)
                 for i, lane in enumerate(scene.lanes)]
        dists = [(d, i) for d, i in dists if d <= cfg.seed_lane_radius]
        if not dists:
            return None
        seeds = [min(dists)[1]]

    best = {i: 0.0 for i in seeds}
    frontier = list(seeds)
    while frontier:
        nxt = []
        for u in frontier:
            lane = scene.lanes[u]
            moves = [(scene.lane_index[s], best[u] + lane.length) for s in lane.successors]
            for nb in (lane.left_neighbor, lane.right_neighbor):
                if nb is not None:
                    moves.append((scene.lane_index[nb], best[u]))
            for v, cost in moves:
                if cost <= cfg.reach_distance_cap and cost < best.get(v, math.inf):
                    best[v] = cost
                    nxt.append(v)
        frontier = nxt
    return sorted(best)


def nrb_goal_candidates(scene: Scene, agent_idx: int, query_pose: np.ndarray):
    """Concentric-circle goal candidates around the query pose.

    8 circles, radius i * mean speed * 1 s, 8*i points on circle i starting at
    the agent heading, headings pointing radially outward. Returns
    (poses (288, 3), radii, circle index).
    """
    agent = scene.agents[agent_idx]
    hist = agent.states[:scene.t_history]
    v = hist[agent.valid[:scene.t_history], 2:4]
    vbar = float(np.mean(np.hypot(v[:, 0], v[:, 1]))) if len(v) else 0.0
    vbar = max(vbar, NRB_MIN_SPEED)
    cx, cy, h0 = query_pose
    poses, radii, circles = [], [], []
    for i in range(1, NRB_CIRCLES + 1):
        r = i * vbar * NRB_CIRCLE_PERIOD
        n = NRB_POINTS_PER_CIRCLE * i
        ang = h0 + 2.0 * math.pi * np.arange(n) / n
        for theta in ang:
            poses.append((cx + r * math.cos(theta), cy + r * math.sin(theta), theta))
            radii.append(r)
            circles.append(i)
    return np.array(poses), np.array(radii), np.array(circles, dtype=int)


def build_graph(scene: Scene, K: int, cfg: GraphConfig = GraphConfig()) -> HeteroGraph:
    """Full encoder + decoder graph (decide-point edges are built later,
    after lane selection)."""
    if K < 1:
        raise ConfigError(f"K must be >= 1, got {K}")
    g = HeteroGraph(scene=scene, cfg=cfg, K=K)
    agent_poses, lane_poses = assign_poses(scene)
    _build_nodes(g, agent_poses, lane_poses)
    _build_map_edges(g)
    _build_agent_edges(g)
    _build_query_nodes_and_edges(g)
    _build_goal_candidates(g)
    return g


def _build_nodes(g: HeteroGraph, agent_poses, lane_poses):
    scene = g.scene
    aidx, ts, poses, vels, cls = [], [], [], [], []
    lookup = {}
    for i, a in enumerate(scene.agents):
        heads = agent_poses[i, :, 2]
        for t in range(scene.t_history):
            if not a.valid[t]:
                continue
            lookup[(i, t)] = len(aidx)
            aidx.append(i)
            ts.append(t)
            poses.append(agent_poses[i, t])
            c, s = math.cos(-heads[t]), math.sin(-heads[t])
            vx, vy = a.states[t, 2], a.states[t, 3]
            vels.append((c * vx - s * vy, s * vx + c * vy))
            cls.append(AGENT_CLASSES.index(a.agent_class))
    g.agent_node_agent = np.array(aidx, dtype=int)
    g.agent_node_t = np.array(ts, dtype=int)
    g.agent_pose = np.array(poses).reshape(-1, 3)
    g.agent_vel_local = np.array(vels).reshape(-1, 2)
    g.agent_class_id = np.array(cls, dtype=int)
    g._node_lookup = lookup

    g.lane_pose = lane_poses
    g.lane_length = np.array([l.length for l in scene.lanes])
    g.lane_type_id = np.array([LANE_TYPES.index(l.lane_type) for l in scene.lanes], dtype=int)

    g.point_pose = np.array([(p.pose.x, p.pose.y, p.pose.heading) for p in scene.points]).reshape(-1, 3)
    g.point_seg_length = np.array([p.seg_length for p in scene.points])
    g.point_side_id = np.array([SIDES.index(p.side) for p in scene.points], dtype=int)
    g.point_type_id = np.array([LANE_TYPES.index(p.point_type) for p in scene.points], dtype=int)
    g.point_lane_idx = np.array([scene.lane_index[p.lane_id] for p in scene.points], dtype=int)
    g.point_seg_index = np.array([p.seg_index for p in scene.points], dtype=int)

    g.predicted = scene.predicted_agents()


def _build_map_edges(g: HeteroGraph):
    scene, cfg = g.scene, g.cfg
    # (point, belongs-to, lane)
    src = np.arange(len(scene.points), dtype=int)
    dst = g.point_lane_idx
    feat = _rel_feat_arrays(g.point_pose, g.lane_pose[dst], None)
    g.edges["p2l"] = EdgeSet(src, dst, feat)

    # (lane, to, lane) with relation labels
    L = len(scene.lanes)
    ss, dd, rel = [], [], []
    for i in range(L):
        li = scene.lanes[i]
        for j in range(L):
            if i == j:
                continue
            d = math.hypot(g.lane_pose[i, 0] - g.lane_pose[j, 0],
                           g.lane_pose[i, 1] - g.lane_pose[j, 1])
            if d > cfg.lane_to_lane_radius:
                continue
            lj = scene.lanes[j].id
            if lj in li.successors:
                r = "successor"
            elif lj in li.predecessors:
                r = "predecessor"
            elif lj == li.left_neighbor:
                r = "left-neighbor"
            elif lj == li.right_neighbor:
                r = "right-neighbor"
            else:
                r = "none"
            ss.append(i)
            dd.append(j)
            rel.append(LANE_RELATIONS.index(r))
    if ss:
        src, dst = np.array(ss, dtype=int), np.array(dd, dtype=int)
        g.edges["l2l"] = EdgeSet(src, dst, _rel_feat_arrays(g.lane_pose[src], g.lane_pose[dst], None),
                                 np.array(rel, dtype=int))
    else:
        g.edges["l2l"] = _empty_edges(with_rel=True)


def _radius_pairs(pos_a: np.ndarray, pos_b: np.ndarray, radius: float):
    """Index pairs (i, j) with |pos_a[i] - pos_b[j]| <= radius."""
    if len(pos_a) == 0 or len(pos_b) == 0:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    d = np.hypot(pos_a[:, None, 0] - pos_b[None, :, 0],
                 pos_a[:, None, 1] - pos_b[None, :, 1])
    return np.nonzero(d <= radius)


def _build_agent_edges(g: HeteroGraph):
    scene, cfg = g.scene, g.cfg
    # (agent, suc, agent): within one agent, later nodes attend to earlier ones
    ss, dd, dts = [], [], []
    for i in range(len(scene.agents)):
        nodes = np.nonzero(g.agent_node_agent == i)[0]
        times = g.agent_node_t[nodes]
        for a_pos in range(len(nodes)):
            for b_pos in range(a_pos + 1, len(nodes)):
                gap = times[b_pos] - times[a_pos]
                if gap <= cfg.max_successor_gap:
                    ss.append(nodes[a_pos])
                    dd.append(nodes[b_pos])
                    dts.append(gap * scene.dt)
    if ss:
        src, dst = np.array(ss, dtype=int), np.array(dd, dtype=int)
        feat = _rel_feat_arrays(g.agent_pose[src], g.agent_pose[dst], np.array(dts))
        g.edges["a_suc"] = EdgeSet(src, dst, feat)
    else:
        g.edges["a_suc"] = _empty_edges()

    # (agent, social, agent): same timestep, distinct agents, within radius
    ss, dd = [], []
    for t in sorted(set(g.agent_node_t.tolist())):
        nodes = np.nonzero(g.agent_node_t == t)[0]
        ii, jj = _radius_pairs(g.agent_pose[nodes], g.agent_pose[nodes], cfg.social_radius)
        for a_pos, b_pos in zip(ii, jj):
            if g.agent_node_agent[nodes[a_pos]] != g.agent_node_agent[nodes[b_pos]]:
                ss.append(nodes[a_pos])
                dd.append(nodes[b_pos])
    if ss:
        src, dst = np.array(ss, dtype=int), np.array(dd, dtype=int)
        g.edges["a_soc"] = EdgeSet(src, dst, _rel_feat_arrays(g.agent_pose[src], g.agent_pose[dst], None))
    else:
        g.edges["a_soc"] = _empty_edges()

    # (lane, gives-traffic-info, agent)
    li, ai = _radius_pairs(g.lane_pose, g.agent_pose, cfg.lane_to_agent_radius)
    src, dst = np.asarray(li, dtype=int), np.asarray(ai, dtype=int)
    g.edges["l2a"] = EdgeSet(src, dst, _rel_feat_arrays(g.lane_pose[src], g.agent_pose[dst], None))


def _build_query_nodes_and_edges(g: HeteroGraph):
    scene, cfg, K = g.scene, g.cfg, g.K
    t_last = scene.t_history - 1
    qa, qm, qp = [], [], []
    for i in g.predicted:
        node = g.agent_node_id(i, t_last)
        for k in range(K):
            qa.append(i)
            qm.append(k)
            qp.append(g.agent_pose[node])
    g.query_agent = np.array(qa, dtype=int)
    g.query_mode = np.array(qm, dtype=int)
    g.query_pose = np.array(qp).reshape(-1, 3)

    # (agent, self, agent-query): all of the agent's history nodes -> each query
    ss, dd, dts = [], [], []
    for q in range(g.n_queries):
        i = g.query_agent[q]
        nodes = np.nonzero(g.agent_node_agent == i)[0]
        for n in nodes:
            ss.append(n)
            dd.append(q)
            dts.append((t_last - g.agent_node_t[n]) * scene.dt)
    src, dst = np.array(ss, dtype=int), np.array(dd, dtype=int)
    g.edges["a_self_q"] = EdgeSet(src, dst, _rel_feat_arrays(
        g.agent_pose[src], g.query_pose[dst], np.array(dts)))

    # (agent, social, agent-query): other agents' last-step nodes within radius
    last_nodes = np.nonzero(g.agent_node_t == t_last)[0]
    ss, dd = [], []
    for q in range(g.n_queries):
        for n in last_nodes:
            if g.agent_node_agent[n] == g.query_agent[q]:
                continue
            d = math.hypot(g.agent_pose[n, 0] - g.query_pose[q, 0],
                           g.agent_pose[n, 1] - g.query_pose[q, 1])
            if d <= cfg.query_social_radius:
                ss.append(n)
                dd.append(q)
    src, dst = np.array(ss, dtype=int), np.array(dd, dtype=int)
    g.edges["a_soc_q"] = EdgeSet(src, dst, _rel_feat_arrays(
        g.agent_pose[src], g.query_pose[dst], None) if len(src) else np.zeros((0, 6)))

    # (lane, gives-traffic-info, agent-query)
    li, qi = _radius_pairs(g.lane_pose, g.query_pose, cfg.query_lane_radius)
    src, dst = np.asarray(li, dtype=int), np.asarray(qi, dtype=int)
    g.edges["l2q"] = EdgeSet(src, dst, _rel_feat_arrays(g.lane_pose[src], g.query_pose[dst], None))

    # (agent-query, self, agent-query): fully connect the K queries of one agent
    ss, dd = [], []
    for base in range(0, g.n_queries, K):
        for k1 in range(K):
            for k2 in range(K):
                if k1 != k2:
                    ss.append(base + k1)
                    dd.append(base + k2)
    src, dst = np.array(ss, dtype=int), np.array(dd, dtype=int)
    g.edges["q2q"] = EdgeSet(src, dst, _rel_feat_arrays(
        g.query_pose[src], g.query_pose[dst], None) if len(src) else np.zeros((0, 6)))


def _build_goal_candidates(g: HeteroGraph):
    """Classify each predicted agent as rb/nrb for goal selection, compute
    reachable lanes, generate point-nrb nodes, and build the first-stage
    decide edges (decide-lane for rb, decide-nrb for nrb)."""
    scene = g.scene
    t_last = scene.t_history - 1
    nrb_poses, nrb_r, nrb_c, nrb_owner = [], [], [], []
    for i in g.predicted:
        agent = scene.agents[i]
        reach = reachable_lanes(scene, i, g.cfg) if agent.road_bound else None
        if agent.road_bound and reach:
            g.goal_rb[i] = True
            g.reachable[i] = reach
        else:
            g.goal_rb[i] = False  # nrb class or no lane nearby: nrb fallback
            node = g.agent_node_id(i, t_last)
            poses, radii, circles = nrb_goal_candidates(scene, i, g.agent_pose[node])
            nrb_owner.extend([i] * len(poses))
            nrb_poses.append(poses)
            nrb_r.append(radii)
            nrb_c.append(circles)
    g.nrb_owner = np.array(nrb_owner, dtype=int)
    g.nrb_pose = np.concatenate(nrb_poses, axis=0) if nrb_poses else np.zeros((0, 3))
    g.nrb_radius = np.concatenate(nrb_r) if nrb_r else np.zeros(0)
    g.nrb_circle = np.concatenate(nrb_c) if nrb_c else np.zeros(0, dtype=int)

    # (agent-query, decide, lane)
    ss, dd = [], []
    for q in range(g.n_queries):
        i = g.query_agent[q]
        if g.goal_rb[i]:
            for lane_idx in g.reachable[i]:
                ss.append(q)
                dd.append(lane_idx)
    src, dst = np.array(ss, dtype=int), np.array(dd, dtype=int)
    g.edges["dec_lane"] = EdgeSet(src, dst, _rel_feat_arrays(
        g.query_pose[src], g.lane_pose[dst], None) if len(src) else np.zeros((0, 6)))

    # (agent-query, decide, point-nrb)
    ss, dd = [], []
    for q in range(g.n_queries):
        i = g.query_agent[q]
        if not g.goal_rb[i]:
            cand = np.nonzero(g.nrb_owner == i)[0]
            ss.extend([q] * len(cand))
            dd.extend(cand.tolist())
    src, dst = np.array(ss, dtype=int), np.array(dd, dtype=int)
    g.edges["dec_nrb"] = EdgeSet(src, dst, _rel_feat_arrays(
        g.query_pose[src], g.nrb_pose[dst], None) if len(src) else np.zeros((0, 6)))


def center_points_of_lane(g: HeteroGraph, lane_idx: int) -> np.ndarray:
    """Point-node indices of a lane's centerline segments, in segment order."""
    cache = getattr(g, "_center_pts", None)
    if cache is None:
        cache = g._center_pts = {}
    pts = cache.get(lane_idx)
    if pts is None:
        mask = (g.point_lane_idx == lane_idx) & (g.point_side_id == SIDES.index("center"))
        idx = np.nonzero(mask)[0]
        pts = cache[lane_idx] = idx[np.argsort(g.point_seg_index[idx], kind="stable")]
    return pts


def build_decide_point_edges(g: HeteroGraph, lane_per_query: dict) -> EdgeSet:
    """(agent-query, decide, point) edges to the center segments of each
    query's selected (or teacher-forced) lane; lane_per_query maps query id
    to lane index. Memoized per graph: the edge set is a pure function of
    static geometry and the query->lane mapping."""
    cache = getattr(g, "_dpe_cache", None)
    if cache is None:
        cache = g._dpe_cache = {}
    key = tuple(sorted(lane_per_query.items()))
    hit = cache.get(key)
    if hit is not None:
        return hit
    ss, dd = [], []
    for q in sorted(lane_per_query):
        pts = center_points_of_lane(g, lane_per_query[q])
        if len(pts) == 0:
            raise StructuralError(f"lane {lane_per_query[q]} has no center point segments")
        ss.extend([q] * len(pts))
        dd.extend(pts.tolist())
    src, dst = np.array(ss, dtype=int), np.array(dd, dtype=int)
    es = EdgeSet(src, dst, _rel_feat_arrays(
        g.query_pose[src], g.point_pose[dst], None) if len(src) else np.zeros((0, 6)))
    cache[key] = es
    return es
