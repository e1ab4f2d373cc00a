import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from goalgraph.errors import ConfigError, InvalidInputError
from goalgraph.geometry import Pose2
from goalgraph.graph import (
    NRB_TOTAL,
    GraphConfig,
    assign_poses,
    build_graph,
    nrb_goal_candidates,
    reachable_lanes,
    relative_edge_feature,
)
from goalgraph.scene import Scene

from conftest import const_vel_track, make_line_scene, straight_lane

ang = st.floats(-math.pi, math.pi)
coord = st.floats(-500, 500)


def test_rel_feat_identity():
    p = Pose2(3.0, 4.0, 1.0)
    assert np.allclose(relative_edge_feature(p, p), [0, 1, 0, 1, 0, 0], atol=1e-12)


def test_rel_feat_axis_aligned():
    f = relative_edge_feature(Pose2(0, 0, 0), Pose2(1, 0, math.pi / 2), dt=0.1)
    assert np.allclose(f, [1, 0, 0, 1, 1, 0.1], atol=1e-12)


def test_rel_feat_nonfinite():
    with pytest.raises(InvalidInputError):
        relative_edge_feature(Pose2(0, 0, 0), Pose2(1, 0, 0), dt=math.inf)


@settings(max_examples=60)
@given(coord, coord, ang, coord, coord, ang, coord, coord, ang)
def test_rel_feat_se2_invariant(xm, ym, hm, xn, yn, hn, dx, dy, dth):
    pm, pn = Pose2(xm, ym, hm), Pose2(xn, yn, hn)
    f0 = relative_edge_feature(pm, pn, dt=0.3)
    f1 = relative_edge_feature(pm.transform(dx, dy, dth),
                               pn.transform(dx, dy, dth), dt=0.3)
    assert np.allclose(f0, f1, atol=1e-9)


def test_assign_poses_agent_and_lane(line_scene):
    ap, lp = assign_poses(line_scene)
    # vehicle moves +x at 10 m/s -> heading 0 at every step
    assert np.allclose(ap[0][:, 2], 0.0)
    # lane 0 spans x in [0, 60] -> midpoint (30, 0, 0)
    assert np.allclose(lp[0], [30.0, 0.0, 0.0], atol=1e-9)


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
    last = g.agent_node_id(0, 29)
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
    from goalgraph.geometry import point_to_polyline_distance, points_in_polygon
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
    n_center = sum(1 for p in line_scene.points
                   if p.lane_id == "L0" and p.side == "center")
    e = build_decide_point_edges(g, {0: 0})
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
