"""2D rigid-motion helpers and polyline / polygon geometry."""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

TWO_PI = 2.0 * math.pi


def normalize_angle(a):
    """Wrap an angle, or each of an array of them, to (-pi, pi]."""
    return math.pi - (math.pi - a) % TWO_PI


@dataclass(frozen=True)
class Pose2:
    """A 2D pose: position in meters, heading in radians, wrapped to (-pi, pi]."""

    x: float
    y: float
    heading: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.heading)):
            raise InvalidInputError(f"non-finite pose ({self.x}, {self.y}, {self.heading})")
        object.__setattr__(self, "heading", normalize_angle(self.heading))

    def transform(self, dx: float, dy: float, dtheta: float) -> "Pose2":
        """Apply a rigid map (rotate by dtheta about origin, then translate)."""
        c, s = math.cos(dtheta), math.sin(dtheta)
        return Pose2(
            c * self.x - s * self.y + dx,
            s * self.x + c * self.y + dy,
            self.heading + dtheta,
        )


def to_local(xy: np.ndarray, pose: np.ndarray) -> np.ndarray:
    """(..., 2) scene-frame points in the frame of (..., 3) poses (x, y, heading)."""
    c, s = np.cos(-pose[..., 2]), np.sin(-pose[..., 2])
    ex, ey = xy[..., 0] - pose[..., 0], xy[..., 1] - pose[..., 1]
    return np.stack([c * ex - s * ey, s * ex + c * ey], axis=-1)


def to_scene(xy: np.ndarray, pose: np.ndarray) -> np.ndarray:
    """(..., 2) points given in the frame of (..., 3) poses, in the scene frame."""
    c, s = np.cos(pose[..., 2]), np.sin(pose[..., 2])
    return np.stack([xy[..., 0] * c - xy[..., 1] * s + pose[..., 0],
                     xy[..., 0] * s + xy[..., 1] * c + pose[..., 1]], axis=-1)


def polyline_lengths(pts: np.ndarray) -> np.ndarray:
    """Per-segment lengths of a polyline (N, 2) -> (N-1,)."""
    return np.hypot(*(pts[1:] - pts[:-1]).T)


def polyline_arclength(pts: np.ndarray) -> float:
    return float(polyline_lengths(np.asarray(pts, dtype=float)).sum())


def point_at_arclength(pts: np.ndarray, s) -> np.ndarray:
    """(x, y, tangent heading) at each arc length s along a polyline, as an
    array of shape np.shape(s) + (3,); s clamps to [0, length].

    The polyline's segment table is built once per call; each s is then placed
    by bisection and interpolated in float arithmetic, so that one s costs no
    more than a scalar routine."""
    pts = np.asarray(pts, dtype=float)
    d = pts[1:] - pts[:-1]
    seg = np.hypot(d[:, 0], d[:, 1])
    ends = seg.cumsum().tolist()  # arc length at the end of each segment
    last, tol = len(ends) - 1, 1e-9 * max(ends[-1], 1.0)
    seg, d, pts = seg.tolist(), d.tolist(), pts.tolist()
    out = []
    for sk in np.ravel(s).tolist():
        sk = min(max(sk, 0.0), ends[-1])
        # tolerant segment pick: when s sits on a vertex (up to float noise from
        # rigid transforms), always take the segment after it
        i = min(bisect.bisect_right(ends, sk + tol), last)
        (x, y), (dx, dy), n = pts[i], d[i], seg[i]
        t = 0.0 if n < 1e-12 else (sk - (ends[i - 1] if i else 0.0)) / n
        out.append((x + t * dx, y + t * dy, math.atan2(dy, dx) if n > 1e-12 else 0.0))
    return np.array(out).reshape(np.shape(s) + (3,))


def polyline_distances(points, polylines: list) -> np.ndarray:
    """Minimum distance from each of the (P, 2) points to each polyline
    (N_i, 2), as a (P, n_polylines) array, in one pass over all their segments."""
    pts = [np.asarray(p, dtype=float) for p in polylines]
    a = np.concatenate([q[:-1] for q in pts])
    ab = np.concatenate([q[1:] for q in pts]) - a
    starts = np.cumsum([0] + [len(q) - 1 for q in pts[:-1]])
    p = np.asarray(points, dtype=float)[:, None, :]
    denom = np.einsum("ij,ij->i", ab, ab)
    denom = np.where(denom < 1e-18, 1.0, denom)
    t = np.minimum(np.maximum(np.einsum("pij,ij->pi", p - a, ab) / denom, 0.0), 1.0)
    d = a + t[..., None] * ab - p
    return np.sqrt(np.minimum.reduceat(np.einsum("pij,pij->pi", d, d), starts, axis=1))


def polygon_edges(polys: list):
    """The edges of closed polygons, each (N_i, 2): start points a and end
    points b, (E, 2) each, and the index of each edge's polygon."""
    polys = [np.asarray(p, dtype=float) for p in polys]
    a = np.concatenate([np.zeros((0, 2))] + polys)
    b = np.concatenate([np.zeros((0, 2))] + [q for p in polys for q in (p[1:], p[:1])])
    return a, b, np.repeat(np.arange(len(polys)), [len(p) for p in polys])


def ray_crossings(xy: np.ndarray, a: np.ndarray, b: np.ndarray):
    """(point, edge) index pairs where the ray from a point of xy (M, 2)
    toward +x crosses the edge a -> b: one end of the edge lies above the
    point and the other does not, and the point lies left of where the edge
    meets its y. A point is inside a closed polygon when an odd number of its
    edges cross its ray (the even-odd rule). Only the edges that span a
    point's y are intersected with its ray."""
    y = xy[:, 1:2]
    i, j = np.nonzero((a[:, 1] > y) != (b[:, 1] > y))
    (x, y), (x1, y1), (x2, y2) = xy[i].T, a[j].T, b[j].T
    hit = x < x1 + (y - y1) * (x2 - x1) / (y2 - y1)  # y2 != y1 on an edge that spans y
    return i[hit], j[hit]


def points_in_polygons(xy: np.ndarray, polys: list) -> np.ndarray:
    """(M, len(polys)) even-odd test of each of the (M, 2) points in each
    closed polygon, in one pass over all their edges."""
    a, b, owner = polygon_edges(polys)
    i, j = ray_crossings(xy, a, b)
    n = len(polys)
    return (np.bincount(i * n + owner[j], minlength=len(xy) * n) % 2 == 1).reshape(len(xy), n)


def near_segments(xy: np.ndarray, a: np.ndarray, b: np.ndarray, eps: float) -> np.ndarray:
    """True where a point of xy (M, 2) lies within eps of a segment a -> b.
    Only the (point, segment) pairs in the segment's box padded by 2 eps are
    measured: a point outside it is more than eps from the segment."""
    lo, hi = np.minimum(a, b) - 2 * eps, np.maximum(a, b) + 2 * eps
    x, y = xy[:, :1], xy[:, 1:]
    i, j = np.nonzero((x >= lo[:, 0]) & (x <= hi[:, 0]) & (y >= lo[:, 1]) & (y <= hi[:, 1]))
    ab = b - a
    denom = np.einsum("ij,ij->i", ab, ab)
    denom = np.where(denom < 1e-18, 1.0, denom)
    a, ab, p = a[j], ab[j], xy[i]
    t = np.clip(np.einsum("ij,ij->i", p - a, ab) / denom[j], 0.0, 1.0)
    d = p - (a + t[:, None] * ab)
    near = np.zeros(len(xy), dtype=bool)
    near[i[np.hypot(d[:, 0], d[:, 1]) <= eps]] = True
    return near
