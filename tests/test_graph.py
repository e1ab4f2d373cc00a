import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from goalgraph.errors import ConfigError
from goalgraph.geometry import Pose2
from goalgraph.graph import (
    LANE_RELATIONS,
    NRB_TOTAL,
    GraphConfig,
    _rel_feat_arrays,
    build_decide_point_edges,
    build_graph,
    nrb_goal_candidates,
    reachable_lanes,
)
from goalgraph.model import Model, ModelConfig
from goalgraph.scene import AGENT_CLASSES, SIDES, LaneDef, Scene
from goalgraph.synthgen import STYLE_A, STYLE_B, gen_scene

from conftest import (const_vel_track, dense_overlay, make_line_scene,
                      point_to_polyline_distance, straight_lane)

ang = st.floats(-math.pi, math.pi)
coord = st.floats(-500, 500)


def rel_feat(pm: Pose2, pn: Pose2, dt=None) -> np.ndarray:
    """The edge feature of pn seen from pm, through (1, 3) pose arrays."""
    return _rel((pm.x, pm.y, pm.heading), (pn.x, pn.y, pn.heading),
                None if dt is None else [dt])[0]


def test_rel_feat_identity():
    p = Pose2(3.0, 4.0, 1.0)
    assert np.allclose(rel_feat(p, p), [0, 1, 0, 1, 0, 0], atol=1e-12)


def test_rel_feat_axis_aligned():
    f = rel_feat(Pose2(0, 0, 0), Pose2(1, 0, math.pi / 2), dt=0.1)
    assert np.allclose(f, [1, 0, 0, 1, 1, 0.1], atol=1e-12)


@settings(max_examples=60)
@given(coord, coord, ang, coord, coord, ang, coord, coord, ang)
@example(xm=1e-08, ym=1.0, hm=0.0, xn=0.0, yn=1.0, hn=0.0, dx=0.0, dy=0.0, dth=2.0)
@example(xm=1e-9, ym=0.0, hm=0.0, xn=0.0, yn=0.0, hn=0.0, dx=0.0, dy=0.0, dth=-3.0)
def test_rel_feat_se2_invariant(xm, ym, hm, xn, yn, hn, dx, dy, dth):
    """A rigid move of both poses leaves the edge feature unchanged.

    sin a, cos a, d and dt hold to atol 1e-9. The bearing phi of n seen from
    m is conditioned by d = |n - m|: moving a pose rounds each coordinate by
    up to about 3.5 eps M, with eps = 2.2e-16 and M the largest absolute
    coordinate or offset (at most 500 here). The moved displacement is then
    off by up to 7 sqrt(2) eps M, and phi by that over d, in any
    implementation. So sin phi and cos phi hold to 1e-9 + 16 eps M / d.
    Coincident poses move to coincident poses, both with phi = 0.
    """
    pm, pn = Pose2(xm, ym, hm), Pose2(xn, yn, hn)
    f0 = rel_feat(pm, pn, dt=0.3)
    f1 = rel_feat(pm.transform(dx, dy, dth), pn.transform(dx, dy, dth), dt=0.3)
    big = max(abs(v) for v in (xm, ym, xn, yn, dx, dy))
    d = math.hypot(xn - xm, yn - ym)
    cond = 16 * np.finfo(float).eps * big / d if d else 0.0
    assert np.allclose(f0[[0, 1, 4, 5]], f1[[0, 1, 4, 5]], atol=1e-9)
    assert np.allclose(f0[2:4], f1[2:4], atol=1e-9 + cond)


@pytest.mark.parametrize("theta", [0.0, 2.5, -2.0, math.pi, -math.pi / 2])
def test_rel_feat_bearing_fades_near_zero_distance(theta):
    """The bearing has no jump where d crosses 1e-9 m and reads exactly
    (sin, cos) = (0, 1) at d = 0 and at d = 1e-13 m."""
    def feat(d):
        return rel_feat(Pose2(0.0, 0.0, 0.3),
                        Pose2(d * math.cos(theta + 0.3), d * math.sin(theta + 0.3), 1.0))

    lo, hi = feat(1e-9 * (1 - 1e-12)), feat(1e-9 * (1 + 1e-12))
    assert np.abs(lo - hi).max() < 1e-10
    assert hi[3] == pytest.approx(math.cos(theta), abs=1e-6)
    for d in (0.0, 1e-13):
        f = feat(d)
        assert (f[2], f[3]) == (0.0, 1.0) and math.copysign(1.0, f[2]) == 1.0


def test_node_poses_agent_and_lane(line_scene):
    g = build_graph(line_scene, K=1)
    # vehicle moves +x at 10 m/s -> heading 0 at every step
    assert np.allclose(g.agent_pose[g.agent_node_agent == 0, 2], 0.0)
    # lane 0 spans x in [0, 60] -> midpoint (30, 0, 0)
    assert np.allclose(g.lane_pose[0], [30.0, 0.0, 0.0], atol=1e-9)


def test_graph_node_counts(line_scene):
    g = build_graph(line_scene, K=3)
    T_h = line_scene.t_history
    assert g.n_agent_nodes == T_h  # one valid vehicle, all history steps
    assert g.n_queries == 3
    assert len(g.nrb_pose) == 0    # no pedestrians
    assert g.edges["q2q"].count == 3 * 2


def test_graph_k1_no_mode_edges(line_scene):
    g = build_graph(line_scene, K=1)
    assert g.edges["q2q"].count == 0


def test_graph_k_below_one():
    with pytest.raises(ConfigError):
        build_graph(make_line_scene(), K=0)


def test_suc_edges_capped_at_20_steps():
    sc = make_line_scene(t_history=30, t_future=10, n_lanes=5)
    g = build_graph(sc, K=1)
    e = g.edges["a_suc"]
    # the node at t=29 receives edges from t in [9, 28]: exactly 20
    last = np.nonzero((g.agent_node_agent == 0) & (g.agent_node_t == 29))[0][0]
    assert int((e.dst == last).sum()) == 20
    # dt carried on suc edges
    gaps = e.feat[:, 5]
    assert gaps.min() > 0
    assert np.allclose(gaps / sc.dt, np.round(gaps / sc.dt))


def test_social_edges_respect_radius():
    T = 40
    lane = straight_lane("L0", 0, 0, 60.0)
    a = const_vel_track("a", "vehicle", 0, 0, 10, 0, T)
    b = const_vel_track("b", "vehicle", 0, 200.0, 10, 0, T)  # 200 m away
    sc = Scene("s", 0.1, 10, 30, [a, b], [lane])
    g = build_graph(sc, K=1)
    assert g.edges["a_soc"].count == 0


def test_lane_to_lane_relations(line_scene):
    g = build_graph(line_scene, K=1)
    e = g.edges["l2l"]
    rel = {}
    for s, d, r in zip(e.src, e.dst, e.rel):
        rel[(int(s), int(d))] = int(r)
    from goalgraph.graph import LANE_RELATIONS
    suc = LANE_RELATIONS.index("successor")
    pre = LANE_RELATIONS.index("predecessor")
    assert rel[(0, 1)] == suc
    assert rel[(1, 0)] == pre
    # no self edges
    assert all(s != d for s, d in zip(e.src, e.dst))


def test_p2l_edge_count(line_scene):
    g = build_graph(line_scene, K=1)
    assert g.edges["p2l"].count == len(line_scene.points)


def test_reachable_lanes_chain(line_scene):
    # lanes of 60 m each: L0 (seed, 0 m) -> L1 (60 m) -> L2 (120 m <= 150 cap)
    r = reachable_lanes(line_scene, 0)
    assert r == [0, 1, 2]


def test_reachable_lanes_cap():
    sc = make_line_scene(n_lanes=5, lane_len=60.0)
    r = reachable_lanes(sc, 0)
    assert r == [0, 1, 2]  # L3 at 180 m exceeds the 150 m cap


def test_reachable_lanes_isolated():
    sc = make_line_scene(n_lanes=1)
    assert reachable_lanes(sc, 0) == [0]


def test_reachable_lanes_nrb_fallback():
    T = 40
    lane = straight_lane("L0", 0, 0, 60.0)
    a = const_vel_track("a", "vehicle", 0, 500.0, 10, 0, T)  # far off-map
    sc = Scene("s", 0.1, 10, 30, [a], [lane])
    assert reachable_lanes(sc, 0) is None


def test_reachable_lanes_bfs_oracle(synth_scene):
    cfg = GraphConfig()
    for i in synth_scene.predicted_agents():
        if not synth_scene.agents[i].road_bound:
            continue
        got = reachable_lanes(synth_scene, i)
        if got is None:
            continue
        assert _bfs_oracle(synth_scene, i, cfg) == got


def _bfs_oracle(scene, agent_idx, cfg):
    """Independent reimplementation: Dijkstra-flavored BFS over successor and
    lateral-neighbor links with accumulated centerline length."""
    import heapq
    from conftest import points_in_polygon
    pos = scene.agents[agent_idx].states[scene.t_history - 1, :2]
    seeds = [i for i, l in enumerate(scene.lanes)
             if points_in_polygon(pos[None, :], l.polygon())[0]]
    if not seeds:
        d = [point_to_polyline_distance(pos, l.centerline) for l in scene.lanes]
        if min(d) <= cfg.seed_lane_radius:
            seeds = [int(np.argmin(d))]
        else:
            return None
    best = {s: 0.0 for s in seeds}
    heap = [(0.0, s) for s in seeds]
    heapq.heapify(heap)
    while heap:
        c, i = heapq.heappop(heap)
        if c > best.get(i, np.inf):
            continue
        lane = scene.lanes[i]
        steps = [(scene.lane_index[s], c + lane.length) for s in lane.successors]
        for nb in (lane.left_neighbor, lane.right_neighbor):
            if nb is not None:
                steps.append((scene.lane_index[nb], c))
        for j, nc in steps:
            if nc <= cfg.reach_distance_cap and nc < best.get(j, np.inf):
                best[j] = nc
                heapq.heappush(heap, (nc, j))
    return sorted(best)


def test_nrb_candidates_count_and_radii():
    T = 40
    lane = straight_lane("L0", 0, 0, 60.0)
    p = const_vel_track("p", "pedestrian", 5, 8, 1.2, 0, T)
    sc = Scene("s", 0.1, 10, 30, [p], [lane])
    qpose = np.array([p.states[9, 0], p.states[9, 1], 0.0])
    poses, radii, circles = nrb_goal_candidates(sc, 0, qpose)
    assert len(poses) == NRB_TOTAL == 288
    for i in range(1, 9):
        on_i = radii[circles == i]
        assert len(on_i) == 8 * i
        assert np.allclose(on_i, 1.2 * i, atol=1e-9)
    # equal arc spacing across circles: 2*pi*r_i / (8 i) = pi * vbar / 4
    spacing = 2 * math.pi * radii / (8 * circles)
    assert np.allclose(spacing, spacing[0], atol=1e-9)


def test_nrb_candidates_speed_clamp():
    T = 40
    lane = straight_lane("L0", 0, 0, 60.0)
    p = const_vel_track("p", "pedestrian", 5, 8, 0.0, 0.0, T)
    sc = Scene("s", 0.1, 10, 30, [p], [lane])
    _, radii, circles = nrb_goal_candidates(sc, 0, np.array([5.0, 8.0, 0.0]))
    assert radii.min() == pytest.approx(0.5)
    assert radii.max() == pytest.approx(4.0)


def test_decide_lane_edges_match_reachable(line_scene):
    g = build_graph(line_scene, K=3)
    e = g.edges["dec_lane"]
    # 3 reachable lanes x 3 modes
    assert e.count == 9


def test_decide_point_edges_center_only(line_scene):
    from goalgraph.graph import build_decide_point_edges
    g = build_graph(line_scene, K=1)
    pts = line_scene.points
    n_center = int(((pts["lane"] == 0) & (pts["side"] == SIDES.index("center"))).sum())
    e = build_decide_point_edges(g, np.array([0]), np.array([0]))
    assert e.count == n_center


def test_edge_determinism(synth_scene):
    g1 = build_graph(synth_scene, K=2)
    g2 = build_graph(synth_scene, K=2)
    for et in g1.edges:
        assert np.array_equal(g1.edges[et].src, g2.edges[et].src)
        assert np.array_equal(g1.edges[et].dst, g2.edges[et].dst)
        assert np.array_equal(g1.edges[et].feat, g2.edges[et].feat)


def test_radius_monotonicity(synth_scene):
    big = GraphConfig()
    small = GraphConfig(social_radius=25.0, lane_to_agent_radius=25.0,
                        lane_to_lane_radius=60.0, query_social_radius=50.0,
                        query_lane_radius=75.0)
    g_big = build_graph(synth_scene, K=2, cfg=big)
    g_small = build_graph(synth_scene, K=2, cfg=small)
    for et in ("a_soc", "l2a", "l2l", "a_soc_q", "l2q"):
        assert g_small.edges[et].count <= g_big.edges[et].count


def test_graph_se2_invariant_features(synth_scene):
    g0 = build_graph(synth_scene, K=2)
    g1 = build_graph(synth_scene.transformed(37.0, -12.0, 2.1), K=2)
    for et in g0.edges:
        e0, e1 = g0.edges[et], g1.edges[et]
        assert np.array_equal(e0.src, e1.src)
        assert np.allclose(e0.feat, e1.feat, atol=1e-9)


# degenerate scenes: (scene, edge counts at K=2, number of predictions at K=2)
def _degenerate(kind):
    T = 40
    lane = straight_lane("L0", 0, 0, 60.0)
    if kind == "no-lanes":  # the vehicle has no lane to seed from: nrb fallback
        agents = [const_vel_track("v", "vehicle", 0, 0, 10, 0, T),
                  const_vel_track("p", "pedestrian", 5, 8, 1.0, 0.5, T)]
        return Scene("s", 0.1, 10, 30, agents, []), dict(
            p2l=0, l2l=0, a_suc=90, a_soc=20, l2a=0, a_self_q=40, a_soc_q=4, l2q=0, q2q=4,
            dec_lane=0, dec_nrb=2 * 2 * NRB_TOTAL), 4
    if kind == "no-agents":
        return Scene("s", 0.1, 10, 30, [], [lane]), dict(
            p2l=90, l2l=0, a_suc=0, a_soc=0, l2a=0, a_self_q=0, a_soc_q=0, l2q=0, q2q=0,
            dec_lane=0, dec_nrb=0), 0
    # the only agent stops being valid before the last observed step
    early = const_vel_track("w", "vehicle", 0, 2, 10, 0, T,
                            valid=(np.arange(T) < 5).astype(float))
    return Scene("s", 0.1, 10, 30, [early], [lane]), dict(
        p2l=90, l2l=0, a_suc=10, a_soc=0, l2a=5, a_self_q=0, a_soc_q=0, l2q=0, q2q=0,
        dec_lane=0, dec_nrb=0), 0


@pytest.mark.parametrize("kind", ["no-lanes", "no-agents", "none-valid-at-t-last"])
def test_degenerate_scenes(kind):
    sc, counts, n_preds = _degenerate(kind)
    g = build_graph(sc, K=2)
    assert {t: e.count for t, e in g.edges.items()} == counts
    for e in g.edges.values():
        assert e.feat[e.row].shape == (e.count, 6)
    assert g.n_queries == 2 * len(g.predicted)
    assert g.rb.shape == (len(g.predicted),) and not g.rb.any()
    model = Model(ModelConfig(d_h=16, heads=2, K=2, ffn_hidden=32, dropout=0.0))
    preds = model.predict(sc)
    assert len(preds) == n_preds
    assert all(p.selected_lane_idx is None and np.isfinite(p.traj_scene).all() for p in preds)


QUERY_SIDE = ("a_self_q", "a_soc_q", "l2q", "q2q", "dec_lane", "dec_nrb", "dec_point")


@pytest.mark.parametrize("K", [1, 3, 6])
def test_query_side_sets_share_rows_across_modes(K):
    """Query-side sets keep one feature row per (agent, candidate) pair: at
    most count / K rows, and one per agent for q2q. Rows are numbered in order
    of first occurrence, so encoder sets keep one row per edge."""
    scenes = ([gen_scene(STYLE_A, (43, i), f"s{i}") for i in range(3)]
              + [dense_overlay(STYLE_B, 41, tiles=4), make_line_scene(n_vehicles=2, n_peds=2)])
    for sc in scenes:
        g = build_graph(sc, K=K)
        lane = (7 * g.query_agent + 3) % len(sc.lanes)
        sets = dict(g.edges, dec_point=build_decide_point_edges(g, np.arange(g.n_queries), lane))
        for et, e in sets.items():
            assert e.row.shape == (e.count,) and len(e.feat) <= e.count
            first = np.sort(np.unique(e.row, return_index=True)[1])
            assert np.array_equal(e.row[first], np.arange(len(e.feat))), (sc.id, et)
            if et in QUERY_SIDE:
                assert len(e.feat) * K <= e.count, (sc.id, et)
            else:
                assert np.array_equal(e.row, np.arange(e.count)), (sc.id, et)
        assert len(g.edges["q2q"].feat) == (g.n_queries // K if K > 1 else 0)


# -- edge-order oracle: the per-pair loops graph.py used to build every edge set

def _rel(pm, pn, dt=None):
    pm, pn = np.asarray(pm, float).reshape(-1, 3), np.asarray(pn, float).reshape(-1, 3)
    return _rel_feat_arrays(pm, pn, None if dt is None else np.asarray(dt, float))


def _nrb_loop(scene, agent_idx, query_pose):
    agent = scene.agents[agent_idx]
    v = agent.states[:scene.t_history][agent.valid[:scene.t_history], 2:4]
    vbar = max(float(np.mean(np.hypot(v[:, 0], v[:, 1]))) if len(v) else 0.0, 0.5)
    cx, cy, h0 = query_pose
    poses, radii, circles = [], [], []
    for i in range(1, 9):
        r = i * vbar * 1.0
        n = 8 * i
        for theta in h0 + 2.0 * math.pi * np.arange(n) / n:
            poses.append((cx + r * math.cos(theta), cy + r * math.sin(theta), theta))
            radii.append(r)
            circles.append(i)
    return np.array(poses), np.array(radii), np.array(circles, dtype=int)


def _headings_loop(track):
    """The per-step heading loop: a valid step at 0.1 m/s or more sets the
    heading, every other step carries it."""
    out, last = np.zeros(len(track.states)), 0.0
    for t, (_, _, vx, vy, _) in enumerate(track.states):
        if track.valid[t] and math.hypot(vx, vy) >= 0.1:
            last = math.atan2(vy, vx)
        out[t] = last
    return out


def _nodes_loop(scene):
    """Agent, lane and point node arrays built node by node: (agent node
    agent, t, pose, local velocity, class id), lane poses and each lane's
    center point ids by segment."""
    aidx, ts, poses, vels, cls = [], [], [], [], []
    for i, a in enumerate(scene.agents):
        heads = _headings_loop(a)
        for t in range(scene.t_history):
            if not a.valid[t]:
                continue
            aidx.append(i), ts.append(t), cls.append(AGENT_CLASSES.index(a.agent_class))
            poses.append((a.states[t, 0], a.states[t, 1], heads[t]))
            c, s = math.cos(-heads[t]), math.sin(-heads[t])
            vx, vy = a.states[t, 2], a.states[t, 3]
            vels.append((c * vx - s * vy, s * vx + c * vy))
    agents = (np.array(aidx, dtype=int), np.array(ts, dtype=int),
              np.array(poses).reshape(-1, 3), np.array(vels).reshape(-1, 2),
              np.array(cls, dtype=int))
    lanes = np.array([(m.x, m.y, m.heading) for m in
                      (l.midpoint_pose() for l in scene.lanes)]).reshape(-1, 3)
    pts, center = scene.points, []
    for lane_idx in range(len(scene.lanes)):
        idx = np.nonzero((pts["side"] == SIDES.index("center")) & (pts["lane"] == lane_idx))[0]
        center.append(idx[np.argsort(pts["seg"][idx], kind="stable")])
    return agents, lanes, center


def _loop_oracle(g):
    """Every edge set of g rebuilt pair by pair, in the order the loops visit
    pairs: {edge type: (src, dst, feat, rel)}, plus the node arrays."""
    scene, cfg, K = g.scene, g.cfg, g.K
    t_last = scene.t_history - 1
    out = {"nodes": _nodes_loop(scene)}
    lookup = {(int(a), int(t)): n for n, (a, t) in
              enumerate(zip(g.agent_node_agent, g.agent_node_t))}
    ap, lp = g.agent_pose, g.lane_pose

    def put(name, ss, dd, ps, pd, dts=None, rel=None):
        ss, dd = np.array(ss, dtype=int), np.array(dd, dtype=int)
        out[name] = (ss, dd, _rel(ps[ss], pd[dd], dts).reshape(-1, 6),
                     None if rel is None else np.array(rel, dtype=int))

    put("p2l", range(len(scene.points)), scene.points["lane"], scene.points["pose"], lp)
    ss, dd, rel = [], [], []
    for i, li in enumerate(scene.lanes):
        for j, lj in enumerate(scene.lanes):
            if i == j or math.hypot(*(lp[i, :2] - lp[j, :2])) > cfg.lane_to_lane_radius:
                continue
            r = ("successor" if lj.id in li.successors else
                 "predecessor" if lj.id in li.predecessors else
                 "left-neighbor" if lj.id == li.left_neighbor else
                 "right-neighbor" if lj.id == li.right_neighbor else "none")
            ss.append(i), dd.append(j), rel.append(LANE_RELATIONS.index(r))
    put("l2l", ss, dd, lp, lp, rel=rel)

    ss, dd, dts = [], [], []
    for i in range(len(scene.agents)):
        nodes = np.nonzero(g.agent_node_agent == i)[0]
        for a in range(len(nodes)):
            for b in range(a + 1, len(nodes)):
                gap = g.agent_node_t[nodes[b]] - g.agent_node_t[nodes[a]]
                if gap <= cfg.max_successor_gap:
                    ss.append(nodes[a]), dd.append(nodes[b]), dts.append(gap * scene.dt)
    put("a_suc", ss, dd, ap, ap, dts)
    ss, dd = [], []
    for t in sorted(set(g.agent_node_t.tolist())):
        nodes = np.nonzero(g.agent_node_t == t)[0]
        for m in nodes:
            for n in nodes:
                if (g.agent_node_agent[m] != g.agent_node_agent[n]
                        and math.hypot(*(ap[m, :2] - ap[n, :2])) <= cfg.social_radius):
                    ss.append(m), dd.append(n)
    put("a_soc", ss, dd, ap, ap)
    ss, dd = [], []
    for i in range(len(lp)):
        for n in range(len(ap)):
            if math.hypot(*(lp[i, :2] - ap[n, :2])) <= cfg.lane_to_agent_radius:
                ss.append(i), dd.append(n)
    put("l2a", ss, dd, lp, ap)

    qa = [i for i in scene.predicted_agents() for _ in range(K)]
    qm = [k for _ in scene.predicted_agents() for k in range(K)]
    qp = np.array([ap[lookup[(i, t_last)]] for i in qa]).reshape(-1, 3)
    out["query"] = (np.array(qa, dtype=int), np.array(qm, dtype=int), qp)
    ss, dd, dts = [], [], []
    for q, i in enumerate(qa):
        for n in np.nonzero(g.agent_node_agent == i)[0]:
            ss.append(n), dd.append(q), dts.append((t_last - g.agent_node_t[n]) * scene.dt)
    put("a_self_q", ss, dd, ap, qp, dts)
    ss, dd = [], []
    for q, i in enumerate(qa):
        for n in np.nonzero(g.agent_node_t == t_last)[0]:
            if (g.agent_node_agent[n] != i
                    and math.hypot(*(ap[n, :2] - qp[q, :2])) <= cfg.query_social_radius):
                ss.append(n), dd.append(q)
    put("a_soc_q", ss, dd, ap, qp)
    ss, dd = [], []
    for i in range(len(lp)):
        for q in range(len(qa)):
            if math.hypot(*(lp[i, :2] - qp[q, :2])) <= cfg.query_lane_radius:
                ss.append(i), dd.append(q)
    put("l2q", ss, dd, lp, qp)
    ss, dd = [], []
    for base in range(0, len(qa), K):
        for k1 in range(K):
            for k2 in range(K):
                if k1 != k2:
                    ss.append(base + k1), dd.append(base + k2)
    put("q2q", ss, dd, qp, qp)

    reach, nrb = {}, []
    for i in scene.predicted_agents():
        r = _bfs_oracle(scene, i, cfg) if scene.agents[i].road_bound and scene.lanes else None
        if r:
            reach[i] = r
        else:
            nrb.append((i, _nrb_loop(scene, i, ap[lookup[(i, t_last)]])))
    out["reach"] = reach
    owner = np.array([i for i, c in nrb for _ in c[0]], dtype=int)
    npose = np.concatenate([c[0] for _, c in nrb]) if nrb else np.zeros((0, 3))
    out["nrb"] = (owner, npose, np.concatenate([c[1] for _, c in nrb]) if nrb else np.zeros(0))
    ss, dd = [], []
    for q, i in enumerate(qa):
        for lane_idx in reach.get(i, []):
            ss.append(q), dd.append(lane_idx)
    put("dec_lane", ss, dd, qp, lp)
    ss, dd = [], []
    for q, i in enumerate(qa):
        if i not in reach:
            for c in np.nonzero(owner == i)[0]:
                ss.append(q), dd.append(c)
    put("dec_nrb", ss, dd, qp, npose)

    # decide-point edges to one lane (with center segments) per query
    pts, center = scene.points, SIDES.index("center")
    ok = sorted(set(pts["lane"][pts["side"] == center].tolist()))
    lane_per_query = np.array([ok[(7 * q + 3) % len(ok)] for q in range(len(qa))], dtype=int)
    ss, dd = [], []
    for q in range(len(qa)):
        segs = sorted((pts["seg"][n], n) for n in range(len(pts))
                      if pts["lane"][n] == lane_per_query[q] and pts["side"][n] == center)
        for _, n in segs:
            ss.append(q), dd.append(n)
    put("dec_point", ss, dd, qp, pts["pose"])
    return out, lane_per_query


def _relation_scene():
    """L0 -> L1 is both a successor and a left-neighbor link; L2 is L0's right
    neighbor. One vehicle is off every lane but near L0, one far from all lanes."""
    T = 40
    lanes = [straight_lane("L0", 0, 0, 40.0, successors=["L1"], left_neighbor="L1",
                           right_neighbor="L2"),
             straight_lane("L1", 40, 0, 40.0, predecessors=["L0"], right_neighbor="L0"),
             straight_lane("L2", 0, -3.7, 40.0, left_neighbor="L0")]
    agents = [const_vel_track("v", "vehicle", 2, 0, 10, 0, T),
              const_vel_track("p", "pedestrian", 5, 6, 1.0, 0.5, T),
              const_vel_track("off", "vehicle", 10, 6, 5, 0, T),
              const_vel_track("far", "vehicle", 10, 200, 5, 0, T)]
    return Scene("rel", 0.1, 10, 30, agents, lanes)


def _gap_scene():
    """An agent with invalid (NaN) history steps, one too slow for a heading
    until step 5, and a short lane between two others whose centerline
    repeats its first vertex, so one of its two segments has zero length
    (a centerline of zero length is a data error)."""
    T = 40
    dot = np.array([[20.0, 8.0], [20.0, 8.0]])
    lanes = [straight_lane("L0", 0, 0, 40.0, successors=["L2"]),
             LaneDef("dot", "intersection", np.vstack([dot, [[20.5, 8.0]]]),
                     dot + [[-2.0, 2.0], [2.0, 2.0]], dot + [[-2.0, -2.0], [2.0, -2.0]]),
             straight_lane("L2", 40, 0, 40.0, predecessors=["L0"])]
    valid = np.ones(T)
    valid[[0, 3, 4, 7]] = 0.0
    gappy = const_vel_track("gap", "vehicle", 2, 0, 8, 1, T, valid=valid)
    gappy.states[[0, 3], 0:4] = np.nan
    slow = const_vel_track("slow", "cyclist", 10, 2, 0.05, 0.0, T)
    slow.states[5:, 2:4] = (3.0, -3.0)
    ped = const_vel_track("p", "pedestrian", 5, 6, 1.0, 0.5, T)
    return Scene("gaps", 0.1, 10, 30, [gappy, slow, ped], lanes)


@pytest.mark.parametrize("kind,K", [("A", 2), ("A", 6), ("B", 1), ("B", 2), ("dense", 2),
                                    ("relations", 3), ("gaps", 2)])
def test_edge_sets_match_loop_oracle(kind, K):
    if kind == "dense":
        scenes = [dense_overlay(STYLE_A, 41)]
    elif kind == "relations":
        scenes = [_relation_scene()]
    elif kind == "gaps":
        scenes = [_gap_scene()]
    else:
        style = STYLE_A if kind == "A" else STYLE_B
        scenes = [gen_scene(style, (43, i), f"s{i}") for i in range(5)]
    for cfg in (GraphConfig(), GraphConfig(social_radius=20.0, lane_to_agent_radius=30.0,
                                           lane_to_lane_radius=50.0, query_social_radius=30.0,
                                           query_lane_radius=60.0, max_successor_gap=4)):
        for sc in scenes:
            g = build_graph(sc, K=K, cfg=cfg)
            want, lane_per_query = _loop_oracle(g)
            got = dict(g.edges, dec_point=build_decide_point_edges(
                g, np.arange(len(lane_per_query)), lane_per_query))
            assert sorted(got) == sorted(k for k in want
                                         if k not in ("nodes", "query", "reach", "nrb"))
            for et, e in got.items():
                src, dst, feat, rel = want[et]
                for a, b in ((e.src, src), (e.dst, dst), (e.feat[e.row], feat)):
                    assert a.dtype == b.dtype and np.array_equal(a, b), (sc.id, et)
                if rel is None:
                    assert e.rel is None, et
                else:
                    assert e.rel.dtype == rel.dtype and np.array_equal(e.rel[e.row], rel)
            for a, b in zip((g.query_agent, g.query_mode, g.query_pose), want["query"]):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            for a, b in zip((g.nrb_owner, g.nrb_pose, g.nrb_radius), want["nrb"]):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            agents, lanes, center = want["nodes"]
            for a, b in zip((g.agent_node_agent, g.agent_node_t, g.agent_pose,
                             g.agent_vel_local, g.agent_class_id, g.lane_pose), agents + (lanes,)):
                assert a.dtype == b.dtype and np.array_equal(a, b), sc.id
            assert len(g.lane_center_points) == len(center) == len(sc.lanes)
            for a, b in zip(g.lane_center_points, center):
                assert a.dtype == b.dtype and np.array_equal(a, b), sc.id
            assert g.reach.shape == (len(g.predicted), len(sc.lanes))
            assert {i: np.nonzero(r)[0].tolist() for i, r in zip(g.predicted, g.reach)
                    if r.any()} == want["reach"]
            assert g.rb.tolist() == [i in want["reach"] for i in g.predicted]
    if kind == "gaps":
        assert g.n_agent_nodes == 6 + 10 + 10 and len(g.lane_center_points[1]) == 1
        assert g.agent_pose[6:11, 2].tolist() == [0.0] * 5
    if kind == "relations":
        rel = {(int(s), int(d)): LANE_RELATIONS[r] for s, d, r in
               zip(g.edges["l2l"].src, g.edges["l2l"].dst, g.edges["l2l"].rel)}
        assert rel == {(0, 1): "successor", (1, 0): "predecessor", (0, 2): "right-neighbor",
                       (2, 0): "left-neighbor", (1, 2): "none", (2, 1): "none"}


def _bench_inputs():
    """bench/inputs.py, the benchmark's workload inputs, as a module."""
    import importlib.util
    import os
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "bench", "inputs.py")
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_pinned_benchmark_graphs_match_per_lane_seed_oracle(monkeypatch):
    """rb, reach and every edge set of the benchmark's pinned scenes (both
    workloads' training and evaluation sets) are bitwise those built when
    _seed_lanes tests one lane polygon at a time."""
    import goalgraph.graph as graph_mod

    from conftest import seed_lanes_per_lane
    inputs = _bench_inputs()
    pin = inputs.PINNED_SEED
    scenes = (inputs.synth_scenes("A", 8, pin, "pin-train")
              + inputs.synth_scenes("B", 8, pin, "pin-heldout")
              + inputs.dense_scenes("A", 2, pin, "pin-dense-a")
              + inputs.dense_scenes("B", 2, pin, "pin-dense-b"))
    got = [build_graph(s, 6) for s in scenes]
    monkeypatch.setattr(graph_mod, "_seed_lanes", seed_lanes_per_lane)
    want = [build_graph(s, 6) for s in scenes]
    for s, g, w in zip(scenes, got, want):
        assert g.rb.tobytes() == w.rb.tobytes() and g.reach.tobytes() == w.reach.tobytes(), s.id
        assert g.reach.shape == w.reach.shape and g.edges.keys() == w.edges.keys(), s.id
        for name, e in g.edges.items():
            f = w.edges[name]
            for field in ("src", "dst", "feat", "rel", "row"):
                a, b = getattr(e, field), getattr(f, field)
                assert (a is None) == (b is None), (s.id, name, field)
                if a is not None:
                    assert a.dtype == b.dtype and a.shape == b.shape, (s.id, name, field)
                    assert a.tobytes() == b.tobytes(), (s.id, name, field)
    assert sum(int(g.rb.sum()) for g in got) > 50
