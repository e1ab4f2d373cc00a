import json
import math
import os
import re

import numpy as np
import pytest

from goalgraph.errors import DataError
from goalgraph.geometry import Pose2
from goalgraph.scene import (
    LANE_TYPES,
    POINT_DTYPE,
    SIDES,
    AgentTrack,
    LaneDef,
    Scene,
    headings,
    load_dataset,
    load_scene,
    point_segments,
    save_scene,
    scene_from_dict,
    scene_to_dict,
)
from goalgraph.synthgen import STYLE_A, STYLE_B, gen_dataset, gen_scene

from conftest import (
    MALFORMED,
    const_vel_track,
    dense_overlay,
    make_line_scene,
    straight_lane,
    write_malformed_scene,
)


def test_heading_from_velocity():
    tr = const_vel_track("a", "vehicle", 0, 0, 5.0, 0.0, 10)
    assert np.allclose(headings(tr.states), 0.0)


def test_heading_carried_when_slow():
    st = np.zeros((4, 5))
    st[:, 4] = 1.0
    st[0, 2:4] = (0.0, 3.0)    # moving +y
    st[1:, 2:4] = (0.01, 0.0)  # below the 0.1 m/s confidence threshold
    tr = AgentTrack("a", "vehicle", st)
    assert np.allclose(headings(tr.states), math.pi / 2)


def test_heading_default_zero():
    st = np.zeros((3, 5))
    st[:, 4] = 1.0
    tr = AgentTrack("a", "vehicle", st)
    assert np.allclose(headings(tr.states), 0.0)


def test_headings_of_stacked_tracks():
    """Headings of an (agents, T, 5) stack are each track's own: an invalid
    step carries the last confident heading and never starts one."""
    st = np.zeros((2, 4, 5))
    st[:, :, 4] = 1.0
    st[0, :, 2:4] = (0.0, -2.0)
    st[1, 0, 4] = 0.0
    st[1, 0, 2:4] = (1.0, 0.0)   # invalid: not a heading
    st[1, 2, 2:4] = (-1.0, 0.0)
    assert headings(st).tolist() == [[-math.pi / 2] * 4, [0.0, 0.0, math.pi, math.pi]]


@pytest.mark.parametrize("field", ["centerline", "left_boundary", "right_boundary"])
def test_lane_rejects_non_finite_polyline(field):
    lane = straight_lane("L7", 0, 0, 10.0)
    pts = getattr(lane, field).copy()
    pts[1, 0] = math.nan
    polys = {f: getattr(lane, f) for f in ("centerline", "left_boundary", "right_boundary")}
    with pytest.raises(DataError, match=f"lane L7: non-finite {field}"):
        LaneDef("L7", "lane", **{**polys, field: pts})


def test_lane_rejects_zero_length_centerline():
    """A centerline whose vertices are all one point has no direction or
    goal points; it is a data error naming the lane."""
    lane = straight_lane("L7", 0, 0, 10.0, n=2)
    with pytest.raises(DataError, match="lane L7: centerline has zero length"):
        LaneDef("L7", "lane", [[20, 8], [20, 8]], lane.left_boundary, lane.right_boundary)
    # a repeated vertex inside a centerline of non-zero length is fine
    LaneDef("L8", "lane", [[0, 0], [0, 0], [5, 0]], lane.left_boundary, lane.right_boundary)


def test_agent_rejects_non_finite_state():
    st = const_vel_track("a9", "vehicle", 0, 0, 1, 0, 5).states
    st[2, 1] = math.inf
    with pytest.raises(DataError, match="agent a9: non-finite"):
        AgentTrack("a9", "vehicle", st)
    st[2, 4] = 0.0  # an invalid step's values are not read
    AgentTrack("a9", "vehicle", st)


def test_unknown_agent_class():
    with pytest.raises(DataError):
        AgentTrack("a", "zeppelin", np.zeros((3, 5)))


def test_road_bound_flag():
    assert const_vel_track("a", "vehicle", 0, 0, 1, 0, 3).road_bound
    assert not const_vel_track("p", "pedestrian", 0, 0, 1, 0, 3).road_bound


def test_lane_length_and_midpoint():
    lane = straight_lane("L", 0, 0, 60.0)
    assert lane.length == pytest.approx(60.0)
    mp = lane.midpoint_pose()
    assert (mp.x, mp.y, mp.heading) == pytest.approx((30.0, 0.0, 0.0))


def test_lane_polygon_orientation():
    lane = straight_lane("L", 0, 0, 10.0, width=4.0, n=2)
    poly = lane.polygon()
    assert poly.shape == (4, 2)
    # left boundary then reversed right boundary forms a simple quad
    assert np.allclose(poly[0], [0.0, 2.0])
    assert np.allclose(poly[-1], [0.0, -2.0])


# (key, value, the start of the DataError's message after the file name)
BAD_HEADERS = [("dt", "0.1", "dt must be"), ("t_history", "10", "t_history must be"),
               ("t_history", 10.7, "t_history must be"), ("dt", True, "dt must be"),
               ("dt", -0.1, "dt must be"), ("dt", 0, "dt must be"),
               ("dt", float("nan"), "dt must be"), ("t_future", True, "t_future must be"),
               ("t_future", 0, "t_future must be"), ("flag", "no", "agent "),
               ("flag", 0.3, "agent "), ("flag", float("nan"), "agent "), ("flag", 2, "agent "),
               ("flag", "1", "agent ")]


@pytest.mark.parametrize("key,value,msg", BAD_HEADERS,
                         ids=[f"{k}={v!r}" for k, v, _ in BAD_HEADERS])
def test_load_scene_bad_header_or_flag_is_data_error(tmp_path, key, value, msg):
    """dt must be a finite number above 0, t_history and t_future integers
    >= 1, none of them a bool or a string, and a state's validity flag true,
    false, 0 or 1. Anything else in a generated file is a DataError naming
    the file, not a scene that loads (a quoted "0.1" used to parse, "no" to
    count as valid, a NaN dt to predict non-finite trajectories, and a flag
    of 0.3 or NaN to load as valid where AgentTrack.valid reads > 0.5)."""
    gen_dataset("A", 1, 0, str(tmp_path))
    p = tmp_path / "scene_00000.json"
    d = json.loads(p.read_text())
    if key == "flag":
        d["agents"][0]["states"][0][4] = value
    else:
        d[key] = value
    p.write_text(json.dumps(d))
    with pytest.raises(DataError, match=f"^{re.escape(str(p))}: {msg}"):
        load_scene(str(p))


def test_load_scene_integer_flags_load_as_bools(tmp_path):
    """JSON 0 and 1 load as the bools false and true do."""
    gen_dataset("A", 1, 0, str(tmp_path))
    p = tmp_path / "scene_00000.json"
    d = json.loads(p.read_text())
    want = load_scene(str(p))
    for a in d["agents"]:
        a["states"] = [s[:4] + [int(s[4])] for s in a["states"]]
    p.write_text(json.dumps(d))
    got = load_scene(str(p))
    for a, b in zip(want.agents, got.agents):
        assert a.states.tobytes() == b.states.tobytes()


def test_scene_rejects_bad_connectivity():
    lane = straight_lane("L0", 0, 0, 10.0, successors=["nope"])
    with pytest.raises(DataError):
        Scene("s", 0.1, 2, 2, [], [lane])


def test_scene_rejects_bad_state_length():
    lane = straight_lane("L0", 0, 0, 10.0)
    tr = const_vel_track("a", "vehicle", 0, 0, 1, 0, 7)
    with pytest.raises(DataError):
        Scene("s", 0.1, 2, 2, [tr], [lane])


def test_derived_points_cover_sides():
    sc = make_line_scene(n_lanes=1, lane_len=10.0)
    sides = {SIDES[i] for i in sc.points["side"]}
    assert sides == {"left", "right", "center"}
    assert (sc.points["length"] > 0).all()


def _point_segments_loop(lanes):
    """The per-segment loop point_segments replaced: one row per non-zero-length
    segment, its heading normalized by Pose2."""
    rows = []
    for li, lane in enumerate(lanes):
        for side, pts in (("center", lane.centerline),
                          ("left", lane.left_boundary),
                          ("right", lane.right_boundary)):
            diffs = pts[1:] - pts[:-1]
            mids = 0.5 * (pts[1:] + pts[:-1])
            lens = np.hypot(diffs[:, 0], diffs[:, 1])
            for k in range(len(diffs)):
                if lens[k] <= 0:
                    continue
                p = Pose2(mids[k, 0], mids[k, 1], math.atan2(diffs[k, 1], diffs[k, 0]))
                rows.append(((p.x, p.y, p.heading), float(lens[k]), SIDES.index(side),
                             LANE_TYPES.index(lane.lane_type), li, k))
    cols = list(zip(*rows)) or [[]] * 6
    return {"pose": np.array(cols[0], dtype=float).reshape(-1, 3),
            **{f: np.array(c, dtype=float if f == "length" else int)
               for f, c in zip(POINT_DTYPE.names[1:], cols[1:])}}


def _odd_lanes():
    """A lane with a repeated vertex, and an intersection lane along -x whose
    dy is -0.0 (atan2 gives -pi, which normalizes to pi)."""
    rep_c = np.array([[0.0, 0.0], [5.0, 0.0], [5.0, 0.0], [10.0, 1.0]])
    back = np.array([[10.0, 0.0], [0.0, -0.0]])
    return [LaneDef("rep", "lane", rep_c, rep_c + [0.0, 2.0], rep_c - [0.0, 2.0]),
            LaneDef("back", "intersection", back, back + [0.0, -2.0], back + [0.0, 2.0])]


def test_point_segments_match_loop_oracle():
    lane_sets = ([gen_scene(STYLE_A, (21, i), "a").lanes for i in range(3)]
                 + [gen_scene(STYLE_B, (22, i), "b").lanes for i in range(3)]
                 + [dense_overlay(STYLE_A, 41).lanes, _odd_lanes(), []])
    for lanes in lane_sets:
        got, want = point_segments(lanes), _point_segments_loop(lanes)
        assert got.dtype == POINT_DTYPE
        for f in POINT_DTYPE.names:
            assert got[f].dtype == want[f].dtype and np.array_equal(got[f], want[f]), f
    odd = point_segments(_odd_lanes())
    rep = odd[odd["lane"] == 0]
    assert rep["seg"][rep["side"] == SIDES.index("center")].tolist() == [0, 2]
    assert (odd["pose"][odd["lane"] == 1, 2] == math.pi).all()


def test_predicted_agents_requires_valid_last_history_step():
    T = 40
    valid = np.ones(T)
    valid[9] = 0.0  # invalid at T_h - 1
    lane = straight_lane("L0", 0, 0, 60.0)
    a = const_vel_track("a", "vehicle", 0, 0, 10, 0, T, valid=valid)
    b = const_vel_track("b", "vehicle", 0, 4, 10, 0, T)
    sc = Scene("s", 0.1, 10, 30, [a, b], [lane])
    assert sc.predicted_agents() == [1]


def test_roundtrip_dict(line_scene):
    d = scene_to_dict(line_scene)
    sc2 = scene_from_dict(d)
    assert sc2.id == line_scene.id
    assert np.allclose(sc2.agents[0].states, line_scene.agents[0].states)
    assert np.allclose(sc2.lanes[1].centerline, line_scene.lanes[1].centerline)
    assert sc2.lanes[0].successors == line_scene.lanes[0].successors


def test_save_load_roundtrip(line_scene, tmp_path):
    p = str(tmp_path / "scene.json")
    save_scene(line_scene, p)
    sc2 = load_scene(p)
    assert np.allclose(sc2.agents[0].states, line_scene.agents[0].states)


def test_load_scene_parse_error_reports_line(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"id": "x",\n  broken\n}')
    with pytest.raises(DataError, match="line"):
        load_scene(str(p))


@pytest.mark.parametrize("kind", sorted(MALFORMED))
def test_load_scene_malformed_value_is_data_error(line_scene, tmp_path, kind):
    """A non-numeric value in a state row, a lane coordinate or dt, and a file
    that is not UTF-8, each raise DataError, not ValueError or UnicodeDecodeError."""
    p = tmp_path / "scene.json"
    write_malformed_scene(p, scene_to_dict(line_scene), kind)
    with pytest.raises(DataError, match="abc" if kind.endswith("abc") else "not UTF-8"):
        load_scene(str(p))


@pytest.mark.parametrize("where", [("agents", 0, "states", 3, 1),
                                   ("lanes", 0, "centerline", 1, 0)], ids=["state", "centerline"])
def test_load_scene_quoted_number_is_data_error(line_scene, tmp_path, where):
    """A number written as a JSON string, a state value or a centerline
    coordinate "1.5", is a DataError naming the file and the string; float
    conversion alone would parse it."""
    d = scene_to_dict(line_scene)
    *keys, last = where
    node = d
    for key in keys:
        node = node[key]
    node[last] = "1.5"
    p = tmp_path / "scene.json"
    p.write_text(json.dumps(d))
    with pytest.raises(DataError, match=f"^{re.escape(str(p))}: .* must be numbers, got '1.5'$"):
        load_scene(str(p))


def test_tracks_and_lanes_reject_non_numbers():
    with pytest.raises(DataError, match="agent a: states must be numbers, got '2'"):
        AgentTrack("a", "vehicle", [[0.0, 1.0, "2", 0.0, 1.0]])
    with pytest.raises(DataError, match="lane L: centerline must be numbers, got None"):
        LaneDef("L", "lane", [[0, 0], [1, None]], [[0, 1], [1, 1]], [[0, -1], [1, -1]])
    st = np.zeros((3, 5))
    assert AgentTrack("a", "vehicle", st).states is st
    assert AgentTrack("a", "vehicle", st.astype(int).tolist()).states.dtype == float


def test_load_dataset_skips_manifests(line_scene, tmp_path):
    save_scene(line_scene, str(tmp_path / "scene_00000.json"))
    (tmp_path / "manifest.json").write_text("{}")
    (tmp_path / "run_manifest.json").write_text("{}")
    ds = load_dataset(str(tmp_path))
    assert len(ds) == 1


def test_transformed_scene_preserves_relative_geometry(line_scene):
    sc2 = line_scene.transformed(12.0, -7.0, 0.9)
    a, b = line_scene.agents[0].states, sc2.agents[0].states
    # distances between timesteps preserved
    d0 = np.hypot(*(a[5, :2] - a[0, :2]))
    d1 = np.hypot(*(b[5, :2] - b[0, :2]))
    assert d0 == pytest.approx(d1, abs=1e-9)
    # speed magnitude preserved
    assert np.hypot(*a[0, 2:4]) == pytest.approx(np.hypot(*b[0, 2:4]), abs=1e-9)
