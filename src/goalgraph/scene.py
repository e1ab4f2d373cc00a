"""Scene data model: agents, lanes, derived point segments, JSON scenario I/O."""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .geometry import (
    Pose2,
    normalize_angle,
    point_at_arclength,
    polyline_arclength,
    to_scene,
)

AGENT_CLASSES = ("vehicle", "truck", "motorcyclist", "cyclist", "pedestrian")
NRB_CLASSES = frozenset({"pedestrian"})
LANE_TYPES = ("lane", "intersection")
SIDES = ("left", "right", "center")

MIN_HEADING_SPEED = 0.1  # m/s; below this the last confident heading is carried

# one row per non-zero-length polyline segment of a lane: its midpoint pose,
# length, SIDES and LANE_TYPES ids, lane index and index along its polyline
POINT_DTYPE = np.dtype([("pose", float, (3,)), ("length", float), ("side", int),
                        ("type", int), ("lane", int), ("seg", int)])


def _float_array(values, what: str) -> np.ndarray:
    """values as a float array. Anything but numbers (a JSON string, even
    "1.5", which float conversion would parse) is a DataError naming the
    first such value."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "biuf":
        bad = (v for v in np.array(values, dtype=object).flat if not isinstance(v, (int, float)))
        raise DataError(f"{what} must be numbers, got {next(bad, arr.dtype)!r}")
    return arr.astype(float, copy=False)


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
        self.states = _float_array(self.states, f"agent {self.id}: states")
        if self.agent_class not in AGENT_CLASSES:
            raise DataError(f"unknown agent class {self.agent_class!r}")
        if self.states.ndim != 2 or self.states.shape[1] != 5:
            raise DataError(f"agent {self.id}: states must be (T, 5)")
        if not np.isfinite(self.states[:, :4][self.valid]).all():
            raise DataError(f"agent {self.id}: non-finite state values")

    @property
    def road_bound(self) -> bool:
        return self.agent_class not in NRB_CLASSES

    @property
    def valid(self) -> np.ndarray:
        return self.states[:, 4] > 0.5


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
        if self.lane_type not in LANE_TYPES:
            raise DataError(f"unknown lane type {self.lane_type!r}")
        for name in ("centerline", "left_boundary", "right_boundary"):
            arr = _float_array(getattr(self, name), f"lane {self.id}: {name}")
            setattr(self, name, arr)
            if arr.ndim != 2 or arr.shape[1] != 2 or len(arr) < 2:
                raise DataError(f"lane {self.id}: {name} must be (N>=2, 2)")
            if not np.isfinite(arr).all():
                raise DataError(f"lane {self.id}: non-finite {name} coordinates")
        self.length = polyline_arclength(self.centerline)
        if self.length == 0:
            raise DataError(f"lane {self.id}: centerline has zero length")

    def midpoint_pose(self) -> Pose2:
        return Pose2(*point_at_arclength(self.centerline, 0.5 * self.length).tolist())

    def polygon(self) -> np.ndarray:
        """Lane polygon: left boundary followed by reversed right boundary."""
        return np.concatenate([self.left_boundary, self.right_boundary[::-1]], axis=0)


@dataclass
class Scene:
    """One prediction sample: agents plus the local road network."""

    id: str
    dt: float
    t_history: int
    t_future: int
    agents: list
    lanes: list
    points: np.ndarray = field(init=False, repr=False, compare=False)  # POINT_DTYPE rows

    def __post_init__(self):
        if (not isinstance(self.dt, numbers.Real) or isinstance(self.dt, bool)
                or not math.isfinite(self.dt) or self.dt <= 0):
            raise DataError(f"dt must be a finite number above 0, got {self.dt!r}")
        for name in ("t_history", "t_future"):
            v = getattr(self, name)
            if not isinstance(v, numbers.Integral) or isinstance(v, bool) or v < 1:
                raise DataError(f"{name} must be an integer >= 1, got {v!r}")
        self.dt, self.t_history, self.t_future = float(self.dt), int(self.t_history), int(self.t_future)
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
        self.points = point_segments(self.lanes)
        self.lane_index = {l.id: i for i, l in enumerate(self.lanes)}

    def predicted_agents(self) -> list:
        """Indices of agents valid at the last observed step."""
        t = self.t_history - 1
        return [i for i, a in enumerate(self.agents) if a.valid[t]]

    def transformed(self, dx: float, dy: float, dtheta: float) -> "Scene":
        """Rigidly transform every scene-frame coordinate (for invariance checks)."""
        move, turn = np.array([dx, dy, dtheta]), np.array([0.0, 0.0, dtheta])
        agents = []
        for a in self.agents:
            st = a.states.copy()
            st[:, 0:2] = to_scene(st[:, 0:2], move)
            st[:, 2:4] = to_scene(st[:, 2:4], turn)
            agents.append(AgentTrack(a.id, a.agent_class, st))
        lanes = [
            LaneDef(l.id, l.lane_type, *(to_scene(p, move) for p in
                                         (l.centerline, l.left_boundary, l.right_boundary)),
                    list(l.successors), list(l.predecessors),
                    l.left_neighbor, l.right_neighbor)
            for l in self.lanes
        ]
        return Scene(self.id, self.dt, self.t_history, self.t_future, agents, lanes)


def headings(states: np.ndarray) -> np.ndarray:
    """Velocity-derived heading at each step of a (..., T, 5) states array.
    A step that is invalid or slower than MIN_HEADING_SPEED carries the most
    recent confident heading, 0 if none exists yet."""
    valid = states[..., 4] > 0.5
    vx, vy = states[..., 2][valid].tolist(), states[..., 3][valid].tolist()
    confident = np.zeros(valid.shape, dtype=bool)
    confident[valid] = np.array(list(map(math.hypot, vx, vy))) >= MIN_HEADING_SPEED
    ang = np.zeros(valid.shape)
    ang[valid] = list(map(math.atan2, vy, vx))
    last = np.maximum.accumulate(np.where(confident, np.arange(valid.shape[-1]), -1), axis=-1)
    return np.where(last >= 0, np.take_along_axis(ang, np.maximum(last, 0), axis=-1), 0.0)


def point_segments(lanes: list) -> np.ndarray:
    """The POINT_DTYPE table of the lanes' polyline segments, lane by lane,
    then center, left and right, then along the polyline; a zero-length
    segment gets no row."""
    sides = [SIDES.index(side) for side in ("center", "left", "right")]
    polys = [p for l in lanes for p in (l.centerline, l.left_boundary, l.right_boundary)]
    n = np.array([len(p) - 1 for p in polys], dtype=int)
    a = np.concatenate([np.zeros((0, 2))] + [p[:-1] for p in polys])
    b = np.concatenate([np.zeros((0, 2))] + [p[1:] for p in polys])
    d = b - a
    lens = np.hypot(d[:, 0], d[:, 1])
    keep = lens > 0
    out = np.empty(int(keep.sum()), dtype=POINT_DTYPE)
    heading = np.array(list(map(math.atan2, d[keep, 1].tolist(), d[keep, 0].tolist())))
    out["pose"] = np.column_stack([0.5 * (b + a)[keep], normalize_angle(heading)])
    out["length"] = lens[keep]
    lane = np.arange(len(lanes)).repeat(3)  # per polyline
    types = np.array([LANE_TYPES.index(l.lane_type) for l in lanes], dtype=int)
    out["side"] = np.repeat(np.tile(sides, len(lanes)), n)[keep]
    out["type"] = np.repeat(types[lane], n)[keep]
    out["lane"] = np.repeat(lane, n)[keep]
    out["seg"] = (np.arange(len(d)) - np.repeat(np.cumsum(n) - n, n))[keep]
    return out


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
             "states": [[x, y, vx, vy, v > 0.5] for x, y, vx, vy, v in a.states.tolist()]}
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


def _flag(v, agent_id) -> float:
    """A state's validity flag, JSON true, false, 0 or 1, as 1.0 or 0.0."""
    if type(v) in (bool, int) and v in (0, 1):
        return float(v)
    raise DataError(f"agent {agent_id}: validity flag must be true, false, 0 or 1, got {v!r}")


def scene_from_dict(d: dict) -> Scene:
    try:
        agents = [
            AgentTrack(a["id"], a["class"],
                       [[s[0], s[1], s[2], s[3], _flag(s[4], a["id"])] for s in a["states"]])
            for a in d["agents"]
        ]
        lanes = [
            LaneDef(l["id"], l["type"], l["centerline"], l["left_boundary"],
                    l["right_boundary"], list(l["successors"]), list(l["predecessors"]),
                    l.get("left_neighbor"), l.get("right_neighbor"))
            for l in d["lanes"]
        ]
        return Scene(d["id"], d["dt"], d["t_history"], d["t_future"], agents, lanes)
    except (KeyError, IndexError, TypeError, ValueError) as e:
        raise DataError(f"malformed scenario dict: {e!r}") from e


def save_scene(scene: Scene, path: str) -> None:
    # one json.dumps call goes through the C encoder; json.dump never does
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(scene_to_dict(scene), sort_keys=True) + "\n")


def load_scene(path: str) -> Scene:
    try:
        with open(path, encoding="utf-8") as f:
            d = json.load(f)
    except json.JSONDecodeError as e:
        raise DataError(f"{path}: parse error at line {e.lineno}: {e.msg}") from e
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text (byte {e.start})") from e
    except OSError as e:
        raise DataError(f"{path}: {e.strerror}") from e
    try:
        return scene_from_dict(d)
    except DataError as e:
        raise DataError(f"{path}: {e}") from e


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
