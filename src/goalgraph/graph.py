"""Heterogeneous scene-graph construction with relative (SE(2)-invariant) edge features."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import EdgeLayout
from .config import Config
from .errors import ConfigError
from .geometry import points_in_polygons, polyline_distances, to_local
from .scene import AGENT_CLASSES, LANE_TYPES, SIDES, Scene, headings

LANE_RELATIONS = ("none", "successor", "predecessor", "left-neighbor", "right-neighbor")

NRB_CIRCLES = 8
NRB_POINTS_PER_CIRCLE = 8  # circle i carries 8*i points
NRB_TOTAL = sum(NRB_POINTS_PER_CIRCLE * i for i in range(1, NRB_CIRCLES + 1))  # 288
NRB_MIN_SPEED = 0.5  # m/s clamp for the mean-velocity radius rule
NRB_CIRCLE_PERIOD = 1.0  # s per circle index


@dataclass(frozen=True)
class GraphConfig(Config):
    """Connection radii and caps for graph construction (meters / steps)."""

    lane_to_lane_radius: float = 125.0
    social_radius: float = 50.0
    lane_to_agent_radius: float = 50.0
    max_successor_gap: int = 20
    query_social_radius: float = 100.0
    query_lane_radius: float = 150.0
    reach_distance_cap: float = 150.0
    seed_lane_radius: float = 50.0

    def check(self):
        for name in ("lane_to_lane_radius", "social_radius", "lane_to_agent_radius",
                     "query_social_radius", "query_lane_radius", "reach_distance_cap",
                     "seed_lane_radius"):
            if not getattr(self, name) >= 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.max_successor_gap < 1:
            raise ConfigError(f"max_successor_gap must be >= 1, got {self.max_successor_gap}")


def _rel_feat_arrays(pm: np.ndarray, pn: np.ndarray, dt: np.ndarray | None) -> np.ndarray:
    """Edge features (sin a, cos a, sin phi, cos phi, d, dt) of each pose of
    pn seen from the frame of the same row of pm, both (E, 3) pose arrays."""
    a = pn[:, 2] - pm[:, 2]
    dx, dy = to_local(pn[:, 0:2], pm).T
    d = np.hypot(dx, dy)
    # rounding decides the bearing of poses this close, so it fades out to
    # (sin, cos) = (0, 1) as d falls from 1e-9 to 1e-12 m, with no jump
    w = np.clip((d - 1e-12) / (1e-9 - 1e-12), 0.0, 1.0)
    phi = np.where(w > 0.0, np.arctan2(dy, dx), 0.0)
    return np.stack([np.sin(a), np.cos(a), w * np.sin(phi), w * np.cos(phi) + (1.0 - w), d,
                     np.zeros_like(d) if dt is None else dt], axis=1)


def _near(pa: np.ndarray, pb: np.ndarray, radius: float) -> np.ndarray:
    """(len(pa), len(pb)) mask of the pose pairs at most radius apart."""
    return np.hypot(pa[:, None, 0] - pb[None, :, 0], pa[:, None, 1] - pb[None, :, 1]) <= radius


@dataclass
class EdgeSet:
    """Edges src[i] -> dst[i]. feat (and rel, None for an edge type without
    relations) hold one row per distinct edge feature, and row[i] is edge i's
    row in them."""

    src: np.ndarray
    dst: np.ndarray
    feat: np.ndarray
    rel: np.ndarray | None
    row: np.ndarray
    # the segment layouts of src, dst and row, for the grouped softmax and
    # the sums over edges
    layout: EdgeLayout = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.layout = EdgeLayout(self.src, self.dst, self.row)

    @property
    def count(self) -> int:
        return len(self.src)


def _edge_set(src_pose: np.ndarray, dst_pose: np.ndarray, pairs, dt=None, rel=None,
              same=(None, None)) -> EdgeSet:
    """The edges of the (src, dst) index pairs, in their order, with relative
    features of each dst pose seen from its src pose; dt and rel are per pair.

    `same` maps the src and dst ids of a side to the id whose pose (and so
    features) they share, or is None there: a query maps to its agent's mode-0
    query. Features are computed once per distinct pair of those ids (dt and
    rel must agree within one), numbered in order of first occurrence, so a
    set without repeats keeps one row per edge.
    """
    src, dst = (np.asarray(ids, dtype=int) for ids in pairs)
    s, d = (ids if m is None else m[ids] for ids, m in zip((src, dst), same))
    _, first, inverse = np.unique(s * len(dst_pose) + d, return_index=True, return_inverse=True)
    order = np.argsort(first)  # distinct pairs by first occurrence
    number = np.empty_like(order)
    number[order] = np.arange(len(order))
    first = first[order]
    return EdgeSet(src, dst,
                   _rel_feat_arrays(src_pose[s[first]], dst_pose[d[first]],
                                    None if dt is None else dt[first]),
                   None if rel is None else rel[first], number[inverse])


def _mode0(g: HeteroGraph) -> np.ndarray:
    """Each query's agent's mode-0 query, which has the same pose."""
    return np.arange(g.n_queries) - g.query_mode


@dataclass
class HeteroGraph:
    """Typed node arrays plus typed edge lists for one scene."""

    scene: Scene
    cfg: GraphConfig
    K: int

    # agent nodes (history steps with valid state), agent-major, time-ascending
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
    lane_center_points: list = field(default_factory=list)  # per lane: center point ids by segment

    # agent-query nodes (one per predicted agent per mode, agent-major order)
    query_agent: np.ndarray = None
    query_mode: np.ndarray = None
    query_pose: np.ndarray = None          # (Q, 3)

    # point-nrb candidate nodes
    nrb_owner: np.ndarray = None           # agent index per candidate
    nrb_pose: np.ndarray = None            # (M, 3)
    nrb_radius: np.ndarray = None

    # predicted agents: their indices, whether each takes the rb goal pipeline,
    # and the (predicted agent x lane) mask of the lanes it can reach
    predicted: list = field(default_factory=list)
    rb: np.ndarray = None
    reach: np.ndarray = None
    edges: dict = field(default_factory=dict)

    @property
    def n_agent_nodes(self):
        return len(self.agent_node_agent)

    @property
    def n_queries(self):
        return len(self.query_agent)


def reachable_lanes(scene: Scene, agent_idx: int, cfg: GraphConfig = GraphConfig()):
    """Lane indices reachable from the agent's last observed position.

    BFS over successor and lateral-neighbor links from seed lanes, capped at
    150 m of accumulated centerline length. Returns None when no lane lies
    within the seed radius (the agent falls back to the nrb goal pipeline).
    """
    xy = scene.agents[agent_idx].states[scene.t_history - 1, 0:2]
    return _reach(scene, _seed_lanes(scene, xy[None, :], cfg)[0], cfg)


def _seed_lanes(scene: Scene, xy: np.ndarray, cfg: GraphConfig) -> list:
    """Seed lanes of each (n, 2) position: the lanes whose polygon holds it,
    else the one with the nearest centerline within the seed radius, else none."""
    inside = points_in_polygons(xy, [lane.polygon() for lane in scene.lanes])
    seeds = [np.nonzero(row)[0].tolist() for row in inside]
    lost = [k for k, s in enumerate(seeds) if not s]
    if lost and scene.lanes:
        d = polyline_distances(xy[lost], [lane.centerline for lane in scene.lanes])
        for k, row in zip(lost, d):
            nearest = int(np.argmin(row))  # the first lane on a tie
            seeds[k] = [nearest] if row[nearest] <= cfg.seed_lane_radius else []
    return seeds


def _reach(scene: Scene, seeds: list, cfg: GraphConfig):
    """Sorted lanes within the distance cap of the seeds; None with no seeds."""
    if not seeds:
        return None
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
    i = np.arange(1, NRB_CIRCLES + 1)
    circles = np.repeat(i, NRB_POINTS_PER_CIRCLE * i)
    n = NRB_POINTS_PER_CIRCLE * circles  # points on the candidate's circle
    k = np.arange(NRB_TOTAL) - n * (circles - 1) // 2  # index on its circle
    theta = h0 + 2.0 * math.pi * k / n
    radii = circles * vbar * NRB_CIRCLE_PERIOD
    return (np.stack([cx + radii * np.cos(theta), cy + radii * np.sin(theta), theta], axis=1),
            radii, circles)


def build_graph(scene: Scene, K: int, cfg: GraphConfig = GraphConfig()) -> HeteroGraph:
    """Full encoder + decoder graph (decide-point edges are built later,
    after lane selection)."""
    if K < 1:
        raise ConfigError(f"K must be >= 1, got {K}")
    g = HeteroGraph(scene=scene, cfg=cfg, K=K)
    _build_nodes(g)
    _build_map_edges(g)
    _build_agent_edges(g)
    _build_query_nodes_and_edges(g)
    _build_goal_candidates(g)
    return g


def _build_nodes(g: HeteroGraph):
    """Scene-frame poses and features of the agent, lane and point nodes."""
    scene = g.scene
    # agent nodes: the valid history steps, agent-major, time-ascending
    st = np.array([a.states[:scene.t_history] for a in scene.agents])
    st = st.reshape(len(scene.agents), scene.t_history, 5)
    agent, t = np.nonzero(st[..., 4] > 0.5)
    g.agent_node_agent, g.agent_node_t = agent, t
    g.agent_pose = np.column_stack([st[agent, t, 0:2], headings(st)[agent, t]])
    turn = np.zeros_like(g.agent_pose)  # each node's heading about the origin
    turn[:, 2] = g.agent_pose[:, 2]
    g.agent_vel_local = to_local(st[agent, t, 2:4], turn)
    g.agent_class_id = np.array([AGENT_CLASSES.index(a.agent_class) for a in scene.agents],
                                dtype=int)[agent]

    g.lane_pose = np.array([(p.x, p.y, p.heading) for p in
                            (l.midpoint_pose() for l in scene.lanes)]).reshape(-1, 3)
    g.lane_length = np.array([l.length for l in scene.lanes])
    g.lane_type_id = np.array([LANE_TYPES.index(l.lane_type) for l in scene.lanes], dtype=int)

    # point nodes: contiguous copies of the scene's segment table columns
    (g.point_pose, g.point_seg_length, g.point_side_id, g.point_type_id, g.point_lane_idx) = (
        scene.points[f].copy() for f in ("pose", "length", "side", "type", "lane"))
    # the table is lane-major with each lane's center rows first, in segment order
    center = np.nonzero(g.point_side_id == SIDES.index("center"))[0]
    per_lane = np.bincount(g.point_lane_idx[center], minlength=len(scene.lanes))
    g.lane_center_points = np.split(center, np.cumsum(per_lane))[:-1]

    g.predicted = scene.predicted_agents()


# Each edge type below is a boolean mask over its (source x destination) node
# pairs, read out source-major by np.nonzero, except where noted. Segment sums
# and weight gradients add up in edge order, so the order is part of the output.

def _build_map_edges(g: HeteroGraph):
    scene, cfg = g.scene, g.cfg
    # (point, belongs-to, lane)
    g.edges["p2l"] = _edge_set(g.point_pose, g.lane_pose,
                               (np.arange(len(g.point_pose)), g.point_lane_idx))

    # (lane, to, lane) with relation labels
    L = len(scene.lanes)
    rel = np.zeros((L, L), dtype=int)
    for i, lane in enumerate(scene.lanes):
        links = (lane.successors, lane.predecessors, [lane.left_neighbor], [lane.right_neighbor])
        for r in range(len(links), 0, -1):  # LANE_RELATIONS order is precedence: first wins
            rel[i, [scene.lane_index[j] for j in links[r - 1] if j is not None]] = r
    src, dst = np.nonzero(_near(g.lane_pose, g.lane_pose, cfg.lane_to_lane_radius)
                          & ~np.eye(L, dtype=bool))
    g.edges["l2l"] = _edge_set(g.lane_pose, g.lane_pose, (src, dst), rel=rel[src, dst])


def _build_agent_edges(g: HeteroGraph):
    scene, cfg = g.scene, g.cfg
    ap, agent, t = g.agent_pose, g.agent_node_agent, g.agent_node_t
    same_agent = agent[:, None] == agent[None, :]
    # (agent, suc, agent): within one agent, later nodes attend to earlier ones
    gap = t[None, :] - t[:, None]
    src, dst = np.nonzero(same_agent & (gap > 0) & (gap <= cfg.max_successor_gap))
    g.edges["a_suc"] = _edge_set(ap, ap, (src, dst), dt=gap[src, dst] * scene.dt)

    # (agent, social, agent): same timestep, distinct agents, within radius;
    # timestep-major
    src, dst = np.nonzero((t[:, None] == t[None, :]) & ~same_agent
                          & _near(ap, ap, cfg.social_radius))
    order = np.argsort(t[src], kind="stable")
    g.edges["a_soc"] = _edge_set(ap, ap, (src[order], dst[order]))

    # (lane, gives-traffic-info, agent)
    g.edges["l2a"] = _edge_set(g.lane_pose, ap,
                               np.nonzero(_near(g.lane_pose, ap, cfg.lane_to_agent_radius)))


def _build_query_nodes_and_edges(g: HeteroGraph):
    scene, cfg, K = g.scene, g.cfg, g.K
    t_last = scene.t_history - 1
    ap, agent = g.agent_pose, g.agent_node_agent
    last = np.nonzero(g.agent_node_t == t_last)[0]  # one node per predicted agent
    g.query_agent = np.repeat(agent[last], K)
    g.query_mode = np.tile(np.arange(K), len(last))
    g.query_pose = np.repeat(ap[last], K, axis=0)
    qp = g.query_pose

    # (agent, self, agent-query): all of the agent's history nodes -> each
    # query; query-major
    q0 = _mode0(g)
    q, src = np.nonzero(g.query_agent[:, None] == agent[None, :])
    g.edges["a_self_q"] = _edge_set(ap, qp, (src, q), dt=(t_last - g.agent_node_t[src]) * scene.dt,
                                    same=(None, q0))

    # (agent, social, agent-query): other agents' last-step nodes within
    # radius; query-major
    q, j = np.nonzero((g.query_agent[:, None] != agent[last][None, :])
                      & _near(qp, ap[last], cfg.query_social_radius))
    g.edges["a_soc_q"] = _edge_set(ap, qp, (last[j], q), same=(None, q0))

    # (lane, gives-traffic-info, agent-query)
    g.edges["l2q"] = _edge_set(g.lane_pose, qp,
                               np.nonzero(_near(g.lane_pose, qp, cfg.query_lane_radius)),
                               same=(None, q0))

    # (agent-query, self, agent-query): fully connect the K queries of one agent
    same_agent = g.query_agent[:, None] == g.query_agent[None, :]
    g.edges["q2q"] = _edge_set(qp, qp, np.nonzero(same_agent & ~np.eye(len(qp), dtype=bool)),
                               same=(q0, q0))


def _build_goal_candidates(g: HeteroGraph):
    """Classify each predicted agent as rb/nrb for goal selection, mark its
    reachable lanes, generate point-nrb nodes, and build the first-stage
    decide edges (decide-lane for rb, decide-nrb for nrb)."""
    scene = g.scene
    last = np.nonzero(g.agent_node_t == scene.t_history - 1)[0]  # one node per predicted agent
    owners = g.agent_node_agent[last].tolist()
    rb = [scene.agents[i].road_bound for i in owners]
    seeds = iter(_seed_lanes(scene, g.agent_pose[last[rb], 0:2], g.cfg))
    g.reach = np.zeros((len(last), len(scene.lanes)), dtype=bool)
    nrb = []
    for k, (n, i) in enumerate(zip(last, owners)):
        lanes = _reach(scene, next(seeds), g.cfg) if rb[k] else None
        if lanes:
            g.reach[k, lanes] = True
        else:  # an nrb class, or no lane nearby: the nrb fallback
            nrb.append((i, nrb_goal_candidates(scene, i, g.agent_pose[n])))
    g.rb = g.reach.any(axis=1)
    g.nrb_owner = np.repeat(np.array([i for i, _ in nrb], dtype=int), NRB_TOTAL)
    g.nrb_pose, g.nrb_radius = (np.concatenate([empty] + [c[j] for _, c in nrb])
                                for j, empty in enumerate((np.zeros((0, 3)), np.zeros(0))))

    # (agent-query, decide, lane)
    q0 = _mode0(g)
    g.edges["dec_lane"] = _edge_set(g.query_pose, g.lane_pose,
                                    np.nonzero(np.repeat(g.reach, g.K, axis=0)), same=(q0, None))
    # (agent-query, decide, point-nrb)
    g.edges["dec_nrb"] = _edge_set(g.query_pose, g.nrb_pose,
                                   np.nonzero(g.query_agent[:, None] == g.nrb_owner[None, :]),
                                   same=(q0, None))


def build_decide_point_edges(g: HeteroGraph, queries: np.ndarray, lanes: np.ndarray) -> EdgeSet:
    """(agent-query, decide, point) edges to the center segments of each
    query's selected (or teacher-forced) lane: queries holds ascending query
    ids and lanes the lane index of each. Every lane has a center segment,
    as LaneDef rejects a centerline of zero length."""
    pts = [g.lane_center_points[lane] for lane in lanes.tolist()]
    dst = np.concatenate([np.zeros(0, dtype=int)] + pts)
    return _edge_set(g.query_pose, g.point_pose, (np.repeat(queries, [len(p) for p in pts]), dst),
                     same=(_mode0(g), None))
