import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from goalgraph.errors import InvalidInputError
from goalgraph.geometry import (
    Pose2,
    normalize_angle,
    point_at_arclength,
    points_in_polygon,
    points_near_polygon_boundary,
    polyline_arclength,
    polyline_distances,
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


def test_point_to_polyline_distance():
    pts = np.array([[0.0, 0.0], [10.0, 0.0]])
    d = polyline_distances([(5.0, 3.0), (-4.0, 3.0)], [pts])
    assert d[:, 0] == pytest.approx([3.0, 5.0])


def test_points_in_polygon_square():
    poly = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]])
    xy = np.array([[5.0, 5.0], [50.0, 5.0], [-1.0, -1.0]])
    assert points_in_polygon(xy, poly).tolist() == [True, False, False]


def test_points_near_polygon_boundary():
    poly = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]])
    xy = np.array([[5.0, -0.05], [5.0, -0.5]])
    near = points_near_polygon_boundary(xy, poly, eps=0.1)
    assert near.tolist() == [True, False]
