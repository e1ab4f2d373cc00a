"""Shared fixtures: hand-built scenes, small model configurations and oracles."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

# one-line verdicts from test_acceptance.py, printed after the test run
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

import goalgraph.autodiff as ad
from goalgraph.scene import AgentTrack, LaneDef, Scene
from goalgraph.synthgen import STYLE_A, gen_scene
from goalgraph.training import select_winners, winner_distances


def point_to_polyline_distance(xy, pts) -> float:
    """Minimum distance from a point to a polyline (N, 2), one segment at a
    time: the oracle for geometry.polyline_distances."""
    p, pts = np.asarray(xy, dtype=float), np.asarray(pts, dtype=float)
    best = math.inf
    for a, b in zip(pts[:-1], pts[1:]):
        ab = b - a
        den = float(ab @ ab)
        t = 0.0 if den < 1e-18 else min(max(float((p - a) @ ab) / den, 0.0), 1.0)
        best = min(best, math.hypot(*(a + t * ab - p)))
    return best


# Unfused tape ops, and the attention they compose: the oracle for
# ad.edge_attention, which computes the same expressions as one op.

def segment_sum(a, seg_ids, num_segments):
    """Sum rows of a into num_segments buckets by per-row bucket id."""
    seg = ad.segments(seg_ids)
    return ad._node(ad._scatter_add(a.value, seg, num_segments), (a,),
                    lambda g: ad._accum(a, g[seg.ids]))


def scale_last(a, w):
    """a (..., d) times per-row weights w (...,): a * w[..., None]."""
    av, wv = a.value, w.value

    def bw(g):
        ad._accum(a, g * wv[..., None])
        ad._accum(w, (g * av).sum(axis=-1))

    return ad._node(av * wv[..., None], (a, w), bw)


def sum_axis(a, axis):
    return ad._node(a.value.sum(axis=axis), (a,),
                    lambda g: ad._accum(a, np.expand_dims(g, axis) * np.ones_like(a.value)))


def unfused_edge_attention(q, k, v, e, src, dst, row, heads):
    """ad.edge_attention as one tape op per step: gathers, adds, reshapes,
    the q.k product, grouped softmax, weighting and the sum into destinations."""
    src, dst = ad.segments(src), ad.segments(dst)
    n_e, (n_dst, d) = len(dst.ids), q.shape
    d_head = d // heads
    q = ad.gather_rows(q, dst)
    if row is not None:
        e = ad.gather_rows(e, row)
    k = ad.add(ad.gather_rows(k, src), e)
    v = ad.add(ad.gather_rows(v, src), e)
    qh, kh, vh = (ad.reshape(t, (n_e, heads, d_head)) for t in (q, k, v))
    logits = ad.scalar_mul(sum_axis(ad.mul(qh, kh), axis=2), 1.0 / math.sqrt(d_head))
    alpha = ad.softmax_grouped(logits, dst, n_dst)
    return segment_sum(ad.reshape(scale_last(vh, alpha), (n_e, d)), dst, n_dst)


def straight_lane(lane_id, x0, y0, length, width=3.7, n=None, heading=0.0, **kw):
    """Axis-aligned or rotated straight lane starting at (x0, y0)."""
    if n is None:
        n = max(2, int(length / 2.0) + 1)
    s = np.linspace(0.0, length, n)
    c, si = np.cos(heading), np.sin(heading)
    center = np.stack([x0 + s * c, y0 + s * si], axis=1)
    nx, ny = -si, c
    half = width / 2.0
    left = center + half * np.array([nx, ny])
    right = center - half * np.array([nx, ny])
    return LaneDef(lane_id, kw.pop("lane_type", "lane"), center, left, right, **kw)


def const_vel_track(agent_id, cls, x0, y0, vx, vy, T, dt=0.1, valid=None):
    t = np.arange(T) * dt
    st = np.zeros((T, 5))
    st[:, 0] = x0 + vx * t
    st[:, 1] = y0 + vy * t
    st[:, 2] = vx
    st[:, 3] = vy
    st[:, 4] = 1.0 if valid is None else valid
    return AgentTrack(agent_id, cls, st)


def make_line_scene(t_history=10, t_future=30, dt=0.1, n_lanes=3, lane_len=60.0,
                    n_vehicles=1, n_peds=0, scene_id="line"):
    """Chain of straight lanes along +x with constant-velocity agents."""
    T = t_history + t_future
    lanes = []
    for i in range(n_lanes):
        suc = [f"L{i+1}"] if i + 1 < n_lanes else []
        pre = [f"L{i-1}"] if i > 0 else []
        lanes.append(straight_lane(f"L{i}", i * lane_len, 0.0, lane_len,
                                   successors=suc, predecessors=pre))
    agents = []
    for j in range(n_vehicles):
        agents.append(const_vel_track(f"veh{j}", "vehicle", 2.0 + 6.0 * j, 0.0,
                                      10.0, 0.0, T, dt))
    for j in range(n_peds):
        agents.append(const_vel_track(f"ped{j}", "pedestrian", 5.0, 6.0 + 2.0 * j,
                                      1.0, 0.5, T, dt))
    return Scene(scene_id, dt, t_history, t_future, agents, lanes)


def dense_overlay(style, seed, tiles=6, spacing=40.0):
    """synthgen maps overlaid on a 3 x 2 grid with ids renamed per tile, as
    the benchmark builds its dense scenes."""
    parts = [gen_scene(style, (seed, m), "tile") for m in range(tiles)]
    agents, lanes = [], []
    for m, s in enumerate(parts):
        off, pre = np.array([spacing * (m % 3), spacing * (m // 3)]), f"t{m}."

        def ref(i):
            return None if i is None else pre + i

        for a in s.agents:
            st = a.states.copy()
            st[:, 0:2] += off
            agents.append(AgentTrack(pre + a.id, a.agent_class, st))
        lanes += [LaneDef(pre + l.id, l.lane_type, l.centerline + off, l.left_boundary + off,
                          l.right_boundary + off, [ref(x) for x in l.successors],
                          [ref(x) for x in l.predecessors], ref(l.left_neighbor),
                          ref(l.right_neighbor)) for l in s.lanes]
    p = parts[0]
    return Scene("dense", p.dt, p.t_history, p.t_future, agents, lanes)


@pytest.fixture
def line_scene():
    return make_line_scene()


@pytest.fixture
def synth_scene():
    return gen_scene(STYLE_A, (11, 0), "synth0")


@pytest.fixture
def small_mcfg():
    from goalgraph.model import ModelConfig
    return ModelConfig(d_h=32, heads=4, K=3, T_f=30, ffn_hidden=64, dropout=0.0)


def winner_of(preds: list, gt, lane_xy, rb: bool = True, goal: bool = True) -> tuple:
    """(mode, stage) of training.select_winners for one agent whose modes are
    given as objects with ModePrediction's fields. Row i of lane_xy starts
    with lane i's midpoint; goal=False scores the modes as the baseline's."""
    fr = SimpleNamespace(
        graph=SimpleNamespace(lane_pose=np.asarray(lane_xy, dtype=float)),
        lane=np.array([p.selected_lane_idx if rb else -1 for p in preds]),
        point=np.zeros(len(preds), dtype=int) if goal else None,
        point_pose=np.array([p.selected_point_pose for p in preds]),
        goal_scene=np.array([p.goal_scene for p in preds]),
        traj_scene=np.array([p.traj_scene for p in preds]))
    mode, stage = select_winners(winner_distances(fr, np.arange(len(preds))[None, :],
                                                  np.asarray(gt, dtype=float)[None, :]))
    return int(mode[0]), int(stage[0])
