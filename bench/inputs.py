"""Workload inputs, made through the public API.

Scene sizes vary a lot between synthgen draws (1 to 6 agents, 2 to 11
lanes), and so does the cost of a scene. So that every seed gets the same
spread of sizes, a set of n scenes is drawn from a pool of POOL * n
candidates: slot j takes the candidate whose size proxy is closest to a
fixed target, the targets spread evenly over the central 80% of the
proxy's range. The proxy is fitted to measured Model.predict times:
agents, pedestrians (each brings 6 x 288 decide edges) and agents x lanes.
The seed still draws every map, track and pedestrian.
"""

from __future__ import annotations

import os

import numpy as np
from goalgraph import scene as scene_mod
from goalgraph import synthgen
from goalgraph.scene import AgentTrack, LaneDef, Scene

POOL = 4
PINNED_SEED = 0        # seed of the pinned sets, whatever the workload seed
STREAMS = {"heldout": 1, "dense-a": 4, "dense-b": 5,
           "pin-train": 10, "pin-heldout": 11, "pin-dense-a": 14, "pin-dense-b": 15}


def _counts(s: Scene):
    n_ped = sum(a.agent_class == "pedestrian" for a in s.agents)
    return len(s.agents), n_ped, len(s.lanes)


def predict_proxy(s: Scene) -> float:
    n_ag, n_ped, n_lanes = _counts(s)
    return n_ag + 2.5 * n_ped + 0.05 * n_lanes * n_ag


# target range of the proxy, about its 10% and 90% points in both styles
PROXY_RANGE = (2.0, 11.0)


def pick(candidates: list, n: int) -> list:
    """n candidates matched to the size targets, smallest target first."""
    lo, hi = PROXY_RANGE
    targets = lo + (hi - lo) * (np.arange(n) + 0.5) / n
    size = [predict_proxy(c) for c in candidates]
    free = set(range(len(candidates)))
    out = [None] * n
    # the extreme targets have the fewest near candidates: match them first
    for j in sorted(range(n), key=lambda j: -abs(targets[j] - 0.5 * (lo + hi))):
        best = min(sorted(free), key=lambda i: abs(size[i] - targets[j]))
        free.remove(best)
        out[j] = candidates[best]
    return out


def synth_scenes(style: str, n: int, seed: int, stream: str) -> list:
    st = synthgen.STYLES[style]
    k = STREAMS[stream]
    pool = [synthgen.gen_scene(st, (seed, k, i), f"{stream}-{style}{i:03d}")
            for i in range(POOL * n)]
    return pick(pool, n)


def moved(s: Scene, dx: float, dy: float, th: float, prefix: str = "") -> Scene:
    """The scene rigidly moved (rotate by th, then shift), ids prefixed."""
    c, sn = np.cos(th), np.sin(th)
    R = np.array([[c, -sn], [sn, c]])
    off = np.array([dx, dy])

    def pts(p):
        return np.asarray(p, float) @ R.T + off

    def ref(i):
        return None if i is None else prefix + i

    agents = []
    for a in s.agents:
        st = a.states.copy()
        st[:, 0:2] = pts(st[:, 0:2])
        st[:, 2:4] = st[:, 2:4] @ R.T
        agents.append(AgentTrack(prefix + a.id, a.agent_class, st))
    lanes = [LaneDef(prefix + l.id, l.lane_type, pts(l.centerline), pts(l.left_boundary),
                     pts(l.right_boundary), [ref(x) for x in l.successors],
                     [ref(x) for x in l.predecessors], ref(l.left_neighbor),
                     ref(l.right_neighbor))
             for l in s.lanes]
    return Scene(s.id, s.dt, s.t_history, s.t_future, agents, lanes)


DENSE_TILES = 6
DENSE_SPACING = 40.0  # m between tile origins on a 3 x 2 grid


def dense_scenes(style: str, n: int, seed: int, stream: str) -> list:
    """Each scene overlays DENSE_TILES synthgen maps at grid offsets, with
    ids renamed per tile, so that radius edges join agents and lanes of
    different tiles."""
    st = synthgen.STYLES[style]
    k = STREAMS[stream]
    out = []
    for j in range(n):
        pool = [synthgen.gen_scene(st, (seed, k, j, i), "tile")
                for i in range(POOL * DENSE_TILES)]
        tiles = [moved(t, DENSE_SPACING * (m % 3), DENSE_SPACING * (m // 3), 0.0, f"t{m}.")
                 for m, t in enumerate(pick(pool, DENSE_TILES))]
        first = tiles[0]
        out.append(Scene(f"{stream}-{style}{j:03d}", first.dt, first.t_history,
                         first.t_future, [a for t in tiles for a in t.agents],
                         [l for t in tiles for l in t.lanes]))
    return out


def json_round_trip(scenes: list, directory: str) -> list:
    """Write the scenes as scenario JSON and read them back as a dataset."""
    os.makedirs(directory, exist_ok=True)
    for i, s in enumerate(scenes):
        scene_mod.save_scene(s, os.path.join(directory, f"scene_{i:04d}.json"))
    return scene_mod.load_dataset(directory)


def describe(scenes: list) -> dict:
    """Per-scene size summary: mean and range of agents, pedestrians, lanes, points."""
    rows = np.array([(len(s.agents), sum(a.agent_class == "pedestrian" for a in s.agents),
                      len(s.lanes), len(s.points)) for s in scenes])
    return {name: [round(float(col.mean()), 1), int(col.min()), int(col.max())]
            for name, col in zip(("agents", "pedestrians", "lanes", "points"), rows.T)}
