"""Scene data model: agents, lanes, derived point segments, JSON scenario I/O."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, InvalidInputError
from .geometry import (
    Pose2,
    normalize_angle,
    point_at_arclength,
    polyline_arclength,
)

AGENT_CLASSES = ("vehicle", "truck", "motorcyclist", "cyclist", "pedestrian")
NRB_CLASSES = frozenset({"pedestrian"})
LANE_TYPES = ("lane", "intersection")
SIDES = ("left", "right", "center")

MIN_HEADING_SPEED = 0.1  # m/s; below this the last confident heading is carried


@dataclass
class AgentTrack:
    """One traffic participant with T_h + T_f states in the scene frame.

    states: (T, 5) array of [x, y, vx, vy, valid]; velocities are scene-frame
    (local-frame velocities are derived once headings are assigned).
    """

    id: str
    agent_class: str
    states: np.ndarray

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=float)
        if self.agent_class not in AGENT_CLASSES:
            raise DataError(f"unknown agent class {self.agent_class!r}")
        if self.states.ndim != 2 or self.states.shape[1] != 5:
            raise DataError(f"agent {self.id}: states must be (T, 5)")
        if not np.isfinite(self.states[:, :4][self.valid]).all():
            raise InvalidInputError(f"agent {self.id}: non-finite state values")

    @property
    def road_bound(self) -> bool:
        return self.agent_class not in NRB_CLASSES

    @property
    def valid(self) -> np.ndarray:
        return self.states[:, 4] > 0.5

    def headings(self) -> np.ndarray:
        """Velocity-derived heading per step; slow steps carry the most recent
        confident heading, defaulting to 0 if none exists yet."""
        T = len(self.states)
        out = np.zeros(T)
        last = 0.0
        for t in range(T):
            if self.valid[t]:
                vx, vy = self.states[t, 2], self.states[t, 3]
                if math.hypot(vx, vy) >= MIN_HEADING_SPEED:
                    last = math.atan2(vy, vx)
            out[t] = last
        return out


@dataclass
class LaneDef:
    """A lane: centerline + boundary polylines plus connectivity."""

    id: str
    lane_type: str
    centerline: np.ndarray
    left_boundary: np.ndarray
    right_boundary: np.ndarray
    successors: list = field(default_factory=list)
    predecessors: list = field(default_factory=list)
    left_neighbor: str | None = None
    right_neighbor: str | None = None

    def __post_init__(self):
        self.centerline = np.asarray(self.centerline, dtype=float)
        self.left_boundary = np.asarray(self.left_boundary, dtype=float)
        self.right_boundary = np.asarray(self.right_boundary, dtype=float)
        if self.lane_type not in LANE_TYPES:
            raise DataError(f"unknown lane type {self.lane_type!r}")
        for name, arr in (("centerline", self.centerline),
                          ("left_boundary", self.left_boundary),
                          ("right_boundary", self.right_boundary)):
            if arr.ndim != 2 or arr.shape[1] != 2 or len(arr) < 2:
                raise DataError(f"lane {self.id}: {name} must be (N>=2, 2)")
        self.length = polyline_arclength(self.centerline)

    def midpoint_pose(self) -> Pose2:
        pose = getattr(self, "_midpoint", None)
        if pose is None:
            x, y, h = point_at_arclength(self.centerline, 0.5 * self.length)
            pose = self._midpoint = Pose2(x, y, h)
        return pose

    def polygon(self) -> np.ndarray:
        """Lane polygon: left boundary followed by reversed right boundary."""
        return np.concatenate([self.left_boundary, self.right_boundary[::-1]], axis=0)


@dataclass
class PointSeg:
    """One polyline segment of a lane boundary or centerline."""

    lane_id: str
    side: str
    pose: Pose2
    seg_length: float
    point_type: str
    seg_index: int

    def __post_init__(self):
        if self.side not in SIDES:
            raise DataError(f"unknown side {self.side!r}")
        if self.seg_length <= 0:
            raise DataError(f"point segment on lane {self.lane_id} has length <= 0")


@dataclass
class Scene:
    """One prediction sample: agents plus the local road network."""

    id: str
    dt: float
    t_history: int
    t_future: int
    agents: list
    lanes: list
    points: list = field(default_factory=list)

    def __post_init__(self):
        lane_ids = {l.id for l in self.lanes}
        for lane in self.lanes:
            for ref in lane.successors + lane.predecessors:
                if ref not in lane_ids:
                    raise DataError(f"lane {lane.id}: unresolved successor/predecessor {ref!r}")
            for ref in (lane.left_neighbor, lane.right_neighbor):
                if ref is not None and ref not in lane_ids:
                    raise DataError(f"lane {lane.id}: unresolved neighbor {ref!r}")
        T = self.t_history + self.t_future
        for a in self.agents:
            if len(a.states) != T:
                raise DataError(f"agent {a.id}: expected {T} states, got {len(a.states)}")
        if not self.points:
            self.points = derive_point_segments(self.lanes)
        for p in self.points:
            if p.lane_id not in lane_ids:
                raise DataError(f"point segment references unknown lane {p.lane_id!r}")
        self.lane_index = {l.id: i for i, l in enumerate(self.lanes)}

    @property
    def t_total(self) -> int:
        return self.t_history + self.t_future

    def predicted_agents(self) -> list:
        """Indices of agents valid at the last observed step."""
        t = self.t_history - 1
        return [i for i, a in enumerate(self.agents) if a.valid[t]]

    def transformed(self, dx: float, dy: float, dtheta: float) -> "Scene":
        """Rigidly transform every scene-frame coordinate (for invariance checks)."""
        c, s = math.cos(dtheta), math.sin(dtheta)
        R = np.array([[c, -s], [s, c]])

        def tf_pts(pts):
            return pts @ R.T + np.array([dx, dy])

        agents = []
        for a in self.agents:
            st = a.states.copy()
            st[:, 0:2] = tf_pts(st[:, 0:2])
            st[:, 2:4] = st[:, 2:4] @ R.T
            agents.append(AgentTrack(a.id, a.agent_class, st))
        lanes = [
            LaneDef(l.id, l.lane_type, tf_pts(l.centerline), tf_pts(l.left_boundary),
                    tf_pts(l.right_boundary), list(l.successors), list(l.predecessors),
                    l.left_neighbor, l.right_neighbor)
            for l in self.lanes
        ]
        return Scene(self.id, self.dt, self.t_history, self.t_future, agents, lanes)


def derive_point_segments(lanes) -> list:
    """Turn each consecutive polyline vertex pair into a PointSeg."""
    segs = []
    for lane in lanes:
        for side, pts in (("center", lane.centerline),
                          ("left", lane.left_boundary),
                          ("right", lane.right_boundary)):
            diffs = pts[1:] - pts[:-1]
            mids = 0.5 * (pts[1:] + pts[:-1])
            lens = np.hypot(diffs[:, 0], diffs[:, 1])
            for k in range(len(diffs)):
                if lens[k] <= 0:
                    continue
                heading = math.atan2(diffs[k, 1], diffs[k, 0])
                segs.append(PointSeg(lane.id, side,
                                     Pose2(mids[k, 0], mids[k, 1], heading),
                                     float(lens[k]), lane.lane_type, k))
    return segs


# ---------------------------------------------------------------------------
# Scenario JSON I/O

def scene_to_dict(scene: Scene) -> dict:
    return {
        "id": scene.id,
        "dt": scene.dt,
        "t_history": scene.t_history,
        "t_future": scene.t_future,
        "agents": [
            {"id": a.id, "class": a.agent_class,
             "states": [[float(x), float(y), float(vx), float(vy), bool(v > 0.5)]
                        for x, y, vx, vy, v in a.states]}
            for a in scene.agents
        ],
        "lanes": [
            {"id": l.id, "type": l.lane_type,
             "centerline": l.centerline.tolist(),
             "left_boundary": l.left_boundary.tolist(),
             "right_boundary": l.right_boundary.tolist(),
             "successors": list(l.successors),
             "predecessors": list(l.predecessors),
             "left_neighbor": l.left_neighbor,
             "right_neighbor": l.right_neighbor}
            for l in scene.lanes
        ],
    }


def scene_from_dict(d: dict) -> Scene:
    try:
        agents = [
            AgentTrack(a["id"], a["class"],
                       [[s[0], s[1], s[2], s[3], 1.0 if s[4] else 0.0] for s in a["states"]])
            for a in d["agents"]
        ]
        lanes = [
            LaneDef(l["id"], l["type"], l["centerline"], l["left_boundary"],
                    l["right_boundary"], list(l["successors"]), list(l["predecessors"]),
                    l.get("left_neighbor"), l.get("right_neighbor"))
            for l in d["lanes"]
        ]
        return Scene(d["id"], float(d["dt"]), int(d["t_history"]), int(d["t_future"]),
                     agents, lanes)
    except (KeyError, IndexError, TypeError) as e:
        raise DataError(f"malformed scenario dict: {e!r}") from e


def save_scene(scene: Scene, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(scene_to_dict(scene), f, sort_keys=True)
        f.write("\n")


def load_scene(path: str) -> Scene:
    try:
        with open(path, encoding="utf-8") as f:
            d = json.load(f)
    except json.JSONDecodeError as e:
        raise DataError(f"{path}: parse error at line {e.lineno}: {e.msg}") from e
    except OSError as e:
        raise DataError(f"{path}: {e.strerror}") from e
    return scene_from_dict(d)


def load_dataset(directory: str) -> list:
    try:
        names = os.listdir(directory)
    except OSError as e:
        raise DataError(f"cannot read data directory {directory}: {e.strerror}") from e
    files = sorted(f for f in names
                   if f.endswith(".json") and not f.endswith("manifest.json"))
    if not files:
        raise DataError(f"no scenario files in {directory}")
    return [load_scene(os.path.join(directory, f)) for f in files]
