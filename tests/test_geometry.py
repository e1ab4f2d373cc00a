import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import point_at_arclength_scalar, points_in_polygon, points_near_polygon_boundary

from goalgraph.errors import InvalidInputError
from goalgraph.geometry import (
    Pose2,
    normalize_angle,
    near_segments,
    point_at_arclength,
    points_in_polygons,
    polygon_edges,
    polyline_arclength,
    polyline_distances,
    to_local,
    to_scene,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@given(finite)
def test_normalize_angle_range(a):
    n = normalize_angle(a)
    assert -math.pi < n <= math.pi
    # same angle modulo 2pi
    assert abs(math.sin(n) - math.sin(a)) < 1e-6
    assert abs(math.cos(n) - math.cos(a)) < 1e-6


def test_normalize_angle_boundary():
    assert normalize_angle(math.pi) == pytest.approx(math.pi)
    assert normalize_angle(-math.pi) == pytest.approx(math.pi)
    assert normalize_angle(0.0) == 0.0


def test_pose_rejects_nonfinite():
    with pytest.raises(InvalidInputError):
        Pose2(math.nan, 0.0, 0.0)


def test_pose_transform_roundtrip():
    p = Pose2(1.0, 2.0, 0.3)
    q = p.transform(5.0, -1.0, 1.2)
    # inverse transform brings it back
    c, s = math.cos(-1.2), math.sin(-1.2)
    x, y = q.x - 5.0, q.y + 1.0
    # rotate back around origin of the transform
    assert abs(normalize_angle(q.heading - p.heading - 1.2)) < 1e-12


def test_polyline_arclength():
    pts = np.array([[0.0, 0.0], [3.0, 4.0], [3.0, 10.0]])
    assert polyline_arclength(pts) == pytest.approx(11.0)


def test_point_at_arclength_midpoint():
    pts = np.array([[0.0, 0.0], [10.0, 0.0]])
    x, y, h = point_at_arclength(pts, 5.0)
    assert (x, y) == pytest.approx((5.0, 0.0))
    assert h == pytest.approx(0.0)


def test_point_at_arclength_clamps():
    pts = np.array([[0.0, 0.0], [10.0, 0.0]])
    x, y, _ = point_at_arclength(pts, 99.0)
    assert (x, y) == pytest.approx((10.0, 0.0))


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("seed", range(4))
def test_point_at_arclength_matches_scalar_oracle(seed):
    """Every (x, y, heading) equals, bit for bit, the scalar routine's: on
    each vertex plus or minus 1e-12 of float noise and minus the vertex
    tolerance, below 0 and beyond the length (both clamp), and along a
    polyline with zero-length segments and one shorter than 1e-12 m."""
    rng = np.random.default_rng(seed)
    pts = np.cumsum(rng.normal(size=(12, 2)) * 3.0, axis=0)
    pts[4] = pts[3]      # a zero-length segment inside
    pts[7] = pts[6] + [-7e-14, 7e-14]
    pts[-1] = pts[-2]    # and a zero-length one at the end
    cum = np.concatenate(([0.0], np.cumsum(np.hypot(*np.diff(pts, axis=0).T))))
    s = np.concatenate([cum, cum + 1e-12, cum - 1e-12, [-5.0, -1e-12, cum[-1] + 7.0],
                        rng.uniform(0.0, cum[-1], 40), cum - 1e-9 * max(cum[-1], 1.0)])
    got = point_at_arclength(pts, s)
    assert got.shape == (len(s), 3)
    want = [point_at_arclength_scalar(pts, v) for v in s.tolist()]
    assert (_bits(got) == _bits(want)).all()
    # s = -5 and s = length + 7 clamp onto the end vertices
    n = 3 * len(cum)
    assert got[n, :2].tolist() == pts[0].tolist()
    assert got[n + 2, :2].tolist() == pts[-1].tolist()


def test_point_at_arclength_vertex_noise_takes_next_segment():
    """On a corner, s a hair below the vertex still gives the heading of the
    segment after it."""
    pts = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0]])
    h = point_at_arclength(pts, [10.0 - 1e-12, 10.0, 10.0 + 1e-12])[:, 2]
    assert h.tolist() == [math.pi / 2] * 3


def test_point_at_arclength_shapes():
    pts = np.array([[0.0, 0.0], [10.0, 0.0]])
    assert point_at_arclength(pts, 5.0).shape == (3,)
    assert point_at_arclength(pts, np.full((2, 3), 5.0)).shape == (2, 3, 3)
    assert point_at_arclength(pts, []).shape == (0, 3)


def test_point_to_polyline_distance():
    pts = np.array([[0.0, 0.0], [10.0, 0.0]])
    d = polyline_distances([(5.0, 3.0), (-4.0, 3.0)], [pts])
    assert d[:, 0] == pytest.approx([3.0, 5.0])


def test_points_in_polygon_square():
    poly = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]])
    xy = np.array([[5.0, 5.0], [50.0, 5.0], [-1.0, -1.0]])
    assert points_in_polygon(xy, poly).tolist() == [True, False, False]
    assert points_in_polygons(xy, [poly]).tolist() == [[True], [False], [False]]


def test_points_near_polygon_boundary():
    poly = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]])
    xy = np.array([[5.0, -0.05], [5.0, -0.5]])
    near = points_near_polygon_boundary(xy, poly, eps=0.1)
    assert near.tolist() == [True, False]
    a, b, _ = polygon_edges([poly])
    assert near_segments(xy, a, b, eps=0.1).tolist() == [True, False]


def test_edge_pair_kernels_match_per_polygon_oracle():
    """points_in_polygons and near_segments equal the per-polygon tests that
    visit every (point, edge) pair, under ==, on random star polygons with
    repeated vertices and horizontal edges, points on a coarse grid (so that
    many share an x or a y with a vertex) and points near the edges."""
    rng = np.random.default_rng(3)
    for _ in range(40):
        polys = []
        for _ in range(int(rng.integers(1, 5))):
            n = int(rng.integers(3, 12))
            ang = np.sort(rng.uniform(0, 2 * math.pi, n))
            r = rng.uniform(1.0, 5.0, n)
            poly = np.round(rng.uniform(-5, 5, 2) + np.stack([r * np.cos(ang), r * np.sin(ang)],
                                                              axis=1) * 2) / 2
            poly[1, 1] = poly[0, 1]                            # a horizontal edge
            polys.append(np.insert(poly, 2, poly[2], axis=0))  # a repeated vertex
        grid = np.round(rng.uniform(-12, 12, (300, 2)) * 2) / 2
        a, b, _ = polygon_edges(polys)
        t = rng.uniform(0, 1, (len(a), 1))
        normal = rng.normal(0, 1, (len(a), 2))
        normal /= np.maximum(np.hypot(normal[:, :1], normal[:, 1:]), 1e-9)
        close = a + t * (b - a) + normal * rng.choice([0.0, 0.05, 0.1, 0.15, 0.3], (len(a), 1))
        xy = np.concatenate([grid, np.concatenate(polys), close])
        inside = points_in_polygons(xy, polys)
        assert inside.shape == (len(xy), len(polys))
        for j, poly in enumerate(polys):
            assert inside[:, j].tolist() == points_in_polygon(xy, poly).tolist()
        for eps in (0.0, 0.1, 0.25):
            oracle = np.zeros(len(xy), dtype=bool)
            for poly in polys:
                oracle |= points_near_polygon_boundary(xy, poly, eps)
            assert near_segments(xy, a, b, eps).tolist() == oracle.tolist()
    # no polygon, and no point
    assert points_in_polygons(xy, []).shape == (len(xy), 0)
    assert points_in_polygons(np.zeros((0, 2)), polys).shape == (0, len(polys))
    assert near_segments(np.zeros((0, 2)), a, b, 0.1).shape == (0,)


def _to_local_by_hand(xy, pose):
    """The hand-written rotation to_local replaced (scene_to_local's and the
    edge features' form): R(-h) (xy - p)."""
    if pose.ndim == 1:
        c, s = math.cos(-pose[2]), math.sin(-pose[2])
    else:
        c, s = np.cos(-pose[:, 2]), np.sin(-pose[:, 2])
    dx, dy = xy[:, 0] - pose[..., 0], xy[:, 1] - pose[..., 1]
    return np.stack([c * dx - s * dy, s * dx + c * dy], axis=1)


def _to_scene_by_hand(xy, pose):
    """The hand-written rotation to_scene replaced: R(h) xy + p."""
    if pose.ndim == 1:
        c, s = math.cos(pose[2]), math.sin(pose[2])
    else:
        c, s = np.cos(pose[:, 2]), np.sin(pose[:, 2])
    return np.stack([xy[:, 0] * c - xy[:, 1] * s + pose[..., 0],
                     xy[:, 0] * s + xy[:, 1] * c + pose[..., 1]], axis=1)


@pytest.mark.parametrize("per_row", [False, True], ids=["one-pose", "per-row"])
def test_frame_pair_matches_hand_written_rotation(per_row):
    rng = np.random.default_rng(3)
    xy = rng.uniform(-300.0, 300.0, (2000, 2))
    pose = (np.column_stack([rng.uniform(-300.0, 300.0, (2000, 2)),
                             rng.uniform(-4.0, 4.0, 2000)]) if per_row
            else np.array([37.5, -12.25, 2.1]))
    for ours, by_hand in ((to_local, _to_local_by_hand), (to_scene, _to_scene_by_hand)):
        got, want = ours(xy, pose), by_hand(xy, pose)
        assert got.shape == want.shape and np.array_equal(got, want), ours.__name__
    # round trip, and broadcasting over leading axes
    back = to_scene(to_local(xy, pose), pose)
    assert np.abs(back - xy).max() <= 1e-12
    grid = xy.reshape(40, 50, 2)
    poses = pose.reshape(40, 50, 3) if per_row else pose
    assert np.array_equal(to_local(grid, poses), to_local(xy, pose).reshape(40, 50, 2))
