"""Procedural generation of synthetic scenes in two controllable map styles."""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import ConfigError
from .files import write_json
from .geometry import normalize_angle, point_at_arclength
from .scene import AgentTrack, LaneDef, Scene, save_scene


@dataclass(frozen=True)
class MapStyle:
    name: str
    lane_width: float
    curvature_min: float   # 1/m
    curvature_max: float
    speed_min: float       # m/s
    speed_max: float
    intersection_prob: float
    point_spacing: float = 2.0


STYLE_A = MapStyle("A", lane_width=3.7, curvature_min=0.0, curvature_max=0.01,
                   speed_min=8.0, speed_max=15.0, intersection_prob=0.15)
STYLE_B = MapStyle("B", lane_width=3.0, curvature_min=0.01, curvature_max=0.05,
                   speed_min=4.0, speed_max=10.0, intersection_prob=0.5)

STYLES = {"A": STYLE_A, "B": STYLE_B}

DEFAULT_DT = 0.1
DEFAULT_T_H = 10
DEFAULT_T_F = 30


def _segment_centerline(start_pose, length, curvature, spacing):
    """Sample a straight segment or constant-curvature arc at fixed spacing.

    Returns (points (N, 2), end pose (x, y, heading)).
    """
    x0, y0, h0 = start_pose
    n = max(int(math.ceil(length / spacing)), 1)
    s = np.linspace(0.0, length, n + 1)
    if abs(curvature) < 1e-9:
        xs = x0 + s * math.cos(h0)
        ys = y0 + s * math.sin(h0)
        h_end = h0
    else:
        r = 1.0 / curvature
        ang = h0 + s * curvature
        xs = x0 + r * (np.sin(ang) - math.sin(h0))
        ys = y0 - r * (np.cos(ang) - math.cos(h0))
        h_end = normalize_angle(h0 + length * curvature)
    pts = np.stack([xs, ys], axis=1)
    return pts, (float(xs[-1]), float(ys[-1]), h_end)


def _offset_boundaries(pts, width):
    """Boundary polylines offset +-width/2 along the local normal."""
    d = np.gradient(pts, axis=0)
    norm = np.hypot(d[:, 0], d[:, 1])
    norm = np.where(norm < 1e-12, 1.0, norm)
    nx, ny = -d[:, 1] / norm, d[:, 0] / norm
    left = pts + 0.5 * width * np.stack([nx, ny], axis=1)
    right = pts - 0.5 * width * np.stack([nx, ny], axis=1)
    return left, right


class _MapBuilder:
    def __init__(self, style: MapStyle, rng: np.random.Generator):
        self.style = style
        self.rng = rng
        self.lanes: list[LaneDef] = []
        self.n = 0

    def new_lane(self, start_pose, length, curvature, lane_type="lane"):
        pts, end = _segment_centerline(start_pose, length, curvature, self.style.point_spacing)
        left, right = _offset_boundaries(pts, self.style.lane_width)
        lane = LaneDef(f"L{self.n}", lane_type, pts, left, right)
        self.n += 1
        self.lanes.append(lane)
        return lane, end

    def link(self, a: LaneDef, b: LaneDef):
        a.successors.append(b.id)
        b.predecessors.append(a.id)

    def sample_curvature(self):
        c = self.rng.uniform(self.style.curvature_min, self.style.curvature_max)
        return c * (1 if self.rng.random() < 0.5 else -1)

    def chain(self, start_pose, n_segments, lane_type="lane"):
        """A chain of straight/arc lanes; returns (lanes, end pose)."""
        lanes = []
        pose = start_pose
        for _ in range(n_segments):
            length = self.rng.uniform(30.0, 60.0)
            curvature = self.sample_curvature() if self.rng.random() < 0.7 else 0.0
            lane, pose = self.new_lane(pose, length, curvature, lane_type)
            if lanes:
                self.link(lanes[-1], lane)
            lanes.append(lane)
        return lanes, pose


def gen_map(style: MapStyle, rng: np.random.Generator) -> list:
    """A connected lane graph: a main chain, optionally a parallel neighbor
    lane, and optionally a branching junction (stand-in for an intersection)."""
    b = _MapBuilder(style, rng)
    start = (0.0, 0.0, float(rng.uniform(-math.pi, math.pi)))
    main, end_pose = b.chain(start, int(rng.integers(2, 5)))

    if rng.random() < 0.5:
        # parallel neighbor of the first main lane, same direction
        first = main[0]
        center, _ = _offset_boundaries(first.centerline, 2.0 * style.lane_width)
        left, right = _offset_boundaries(center, style.lane_width)
        lane = LaneDef(f"L{b.n}", "lane", center, left, right)
        b.n += 1
        b.lanes.append(lane)
        lane.right_neighbor = first.id
        first.left_neighbor = lane.id
        if len(main) > 1:
            b.link(lane, main[1])

    if rng.random() < style.intersection_prob:
        # 3-way branch at the end of the main chain
        turn_r = rng.uniform(8.0, 15.0)
        for curv, label in ((1.0 / turn_r, "left"), (0.0, "straight"), (-1.0 / turn_r, "right")):
            length = (abs(math.pi / 2 / curv) if curv else rng.uniform(20.0, 30.0))
            branch, bp = b.new_lane(end_pose, length, curv, "intersection")
            b.link(main[-1], branch)
            exit_lane, _ = b.new_lane(bp, rng.uniform(25.0, 45.0), 0.0)
            b.link(branch, exit_lane)
    return b.lanes


def gen_agents(lanes: list, style: MapStyle, rng: np.random.Generator,
               t_history: int, t_future: int, dt: float) -> list:
    """Vehicles follow centerlines (futures stay on-lane); pedestrians take
    noisy walks near, but off, the lanes."""
    T = t_history + t_future
    by_id = {l.id: l for l in lanes}
    agents = []
    n_veh = int(rng.integers(1, 5))
    for vi in range(n_veh):
        cur = lanes[int(rng.integers(0, len(lanes)))]
        s = float(rng.uniform(0.0, 0.5 * cur.length))
        v = float(rng.uniform(style.speed_min, style.speed_max))
        # the walk records (lane, s) and v per step; poses come after, per lane visit
        path, speed = [], []
        for _ in range(T):
            path.append((cur.id, s))
            speed.append(v)
            # smooth speed profile inside the style's range
            v = min(max(v + rng.uniform(-0.2, 0.2), style.speed_min), style.speed_max)
            s += v * dt
            while s > cur.length:
                if not cur.successors:
                    s = cur.length  # stop at the dead end, stays on-lane
                    v = 0.0
                    break
                s -= cur.length
                nxt = cur.successors[int(rng.integers(0, len(cur.successors)))]
                cur = by_id[nxt]
        xyh = np.concatenate([point_at_arclength(by_id[lid].centerline, [arc for _, arc in visit])
                              for lid, visit in itertools.groupby(path, key=itemgetter(0))])
        h, speed = xyh[:, 2].tolist(), np.array(speed)
        states = np.column_stack([xyh[:, :2], speed * list(map(math.cos, h)),
                                  speed * list(map(math.sin, h)), np.ones(T)])
        cls = "truck" if rng.random() < 0.15 else "vehicle"
        agents.append(AgentTrack(f"veh{vi}", cls, states))
    n_ped = int(rng.integers(0, 3))
    for pi in range(n_ped):
        lane = lanes[int(rng.integers(0, len(lanes)))]
        x0, y0, h = point_at_arclength(lane.centerline,
                                       float(rng.uniform(0, lane.length))).tolist()
        side = 1 if rng.random() < 0.5 else -1
        off = rng.uniform(4.0, 9.0)
        x = x0 + side * off * -math.sin(h)
        y = y0 + side * off * math.cos(h)
        walk_h = float(rng.uniform(-math.pi, math.pi))
        speed = float(rng.uniform(0.5, 2.0))
        rows = []
        for t in range(T):
            vx, vy = speed * math.cos(walk_h), speed * math.sin(walk_h)
            rows.append((x, y, vx, vy, 1.0))
            x += vx * dt
            y += vy * dt
            if t % 10 == 9:  # piecewise-straight: re-aim every second
                walk_h = normalize_angle(walk_h + float(rng.uniform(-0.8, 0.8)))
                speed = min(max(speed + rng.uniform(-0.3, 0.3), 0.3), 2.0)
        agents.append(AgentTrack(f"ped{pi}", "pedestrian", rows))
    return agents


def gen_scene(style: MapStyle, seed_pair, scene_id: str,
              t_history: int = DEFAULT_T_H, t_future: int = DEFAULT_T_F,
              dt: float = DEFAULT_DT) -> Scene:
    rng = np.random.default_rng(np.random.SeedSequence(seed_pair))
    lanes = gen_map(style, rng)
    agents = gen_agents(lanes, style, rng, t_history, t_future, dt)
    return Scene(scene_id, dt, t_history, t_future, agents, lanes)


def gen_dataset(style_name: str, n: int, seed: int, out_dir: str,
                t_history: int = DEFAULT_T_H, t_future: int = DEFAULT_T_F,
                dt: float = DEFAULT_DT) -> list:
    """n reproducible scenario files plus a manifest. Returns scene ids."""
    if style_name not in STYLES:
        raise ConfigError(f"unknown style {style_name!r} (expected one of {sorted(STYLES)})")
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    style = STYLES[style_name]
    os.makedirs(out_dir, exist_ok=True)
    ids = []
    for i in range(n):
        sid = f"{style_name}_{seed}_{i:05d}"
        scene = gen_scene(style, (seed, i), sid, t_history, t_future, dt)
        save_scene(scene, os.path.join(out_dir, f"scene_{i:05d}.json"))
        ids.append(sid)
    manifest = {"style": style.__dict__, "n": n, "seed": seed, "scene_ids": ids,
                "t_history": t_history, "t_future": t_future, "dt": dt}
    write_json(os.path.join(out_dir, "manifest.json"), manifest, indent=1)
    return ids
