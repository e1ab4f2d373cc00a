"""Shared fixtures: hand-built scenes, small model configurations and oracles."""

import json
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
from goalgraph.geometry import normalize_angle, polyline_distances
from goalgraph.graph import build_decide_point_edges
from goalgraph.scene import AgentTrack, LaneDef, Scene
from goalgraph.synthgen import STYLE_A, gen_map, gen_scene
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


# The per-lane lane tests that geometry's edge-pair kernels replaced, kept
# unchanged as the oracle: every (point, edge) pair of one polygon at a time.

def points_in_polygon(xy: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Even-odd (ray casting) point-in-polygon test, vectorized over points.

    xy: (M, 2) query points; poly: (N, 2) closed implicitly.
    """
    xy = np.atleast_2d(np.asarray(xy, dtype=float))
    poly = np.asarray(poly, dtype=float)
    x, y = xy[:, 0][:, None], xy[:, 1][:, None]
    x1, y1 = poly[:, 0][None, :], poly[:, 1][None, :]
    x2, y2 = np.roll(poly[:, 0], -1)[None, :], np.roll(poly[:, 1], -1)[None, :]
    crosses = (y1 > y) != (y2 > y)
    dy = np.where(y2 - y1 == 0.0, 1.0, y2 - y1)
    xint = x1 + (y - y1) * (x2 - x1) / dy
    hits = crosses & (x < xint)
    return (hits.sum(axis=1) % 2).astype(bool)


def points_near_polygon_boundary(xy: np.ndarray, poly: np.ndarray, eps: float) -> np.ndarray:
    """True where a point is within eps of any polygon edge."""
    xy = np.atleast_2d(np.asarray(xy, dtype=float))
    poly = np.asarray(poly, dtype=float)
    a = poly
    b = np.roll(poly, -1, axis=0)
    ab = b - a
    denom = np.einsum("ij,ij->i", ab, ab)
    denom = np.where(denom < 1e-18, 1.0, denom)
    diff = xy[:, None, :] - a[None, :, :]
    t = np.clip(np.einsum("mnj,nj->mn", diff, ab) / denom[None, :], 0.0, 1.0)
    proj = a[None, :, :] + t[..., None] * ab[None, :, :]
    d = np.hypot(*(np.transpose(xy[:, None, :] - proj, (2, 0, 1))))
    return (d <= eps).any(axis=1)


def seed_lanes_per_lane(scene, xy, cfg):
    """graph._seed_lanes with one points_in_polygon call per lane: the lanes
    whose polygon holds each position, else the nearest centerline within
    the seed radius (the first lane on a tie), else none."""
    inside = np.zeros((len(xy), len(scene.lanes)), dtype=bool)
    for j, lane in enumerate(scene.lanes):
        inside[:, j] = points_in_polygon(xy, lane.polygon())
    seeds = [np.nonzero(row)[0].tolist() for row in inside]
    lost = [k for k, s in enumerate(seeds) if not s]
    if lost and scene.lanes:
        d = polyline_distances(xy[lost], [lane.centerline for lane in scene.lanes])
        for k, row in zip(lost, d):
            nearest = int(np.argmin(row))
            seeds[k] = [nearest] if row[nearest] <= cfg.seed_lane_radius else []
    return seeds


# The loss's stage targets picked one winner at a time: the oracle for
# training.nearest_decide_edges, which picks them all with
# Model.argmax_per_group.

def nearest_lanes(scene, points, candidates: list) -> tuple:
    """For each of the (P, 2) points, the nearest lane among its own lane
    indices in `candidates`, and the nearest among all lanes; a tie goes to
    the lane listed first."""
    d = polyline_distances(points, [lane.centerline for lane in scene.lanes])
    near = [int(c[np.argmin(row[c])]) for row, c in zip(d, map(np.asarray, candidates))]
    return near, np.argmin(d, axis=1).tolist()


def nearest_candidate(edges, cand_pose, qi: int, xy) -> int:
    """Edge position of query qi's decide edge whose candidate lies nearest
    to xy; a tie goes to the first edge."""
    pos = np.nonzero(edges.src == qi)[0]
    cand_xy = cand_pose[edges.dst[pos], 0:2]
    return int(pos[np.argmin(np.hypot(cand_xy[:, 0] - xy[0], cand_xy[:, 1] - xy[1]))])


def stage_targets_loop(g, scene, q, ends) -> dict:
    """The loss's teacher targets for the ascending winning queries q, whose
    ground-truth endpoints are the rows of ends, one winner at a time. For
    road-bound winners: "lane", the position of the decide-lane edge to the
    nearest reachable lane; "teacher", the nearest lane of all; "point", the
    position of the decide-point edge (built on the teacher lanes) to the
    nearest center segment. For the others: "nrb", the position of the
    decide-nrb edge to the nearest ring candidate."""
    rb = g.rb[q // g.K]
    out = {"lane": [], "teacher": [], "point": [], "nrb": []}
    if rb.any():
        lane_edges = g.edges["dec_lane"]
        pos = [np.nonzero(lane_edges.src == qi)[0] for qi in q[rb]]
        cands = [lane_edges.dst[p] for p in pos]
        targets, out["teacher"] = nearest_lanes(scene, ends[rb], cands)
        out["lane"] = [int(p[c == t][0]) for p, c, t in zip(pos, cands, targets)]
        points = build_decide_point_edges(g, q[rb], np.array(out["teacher"]))
        out["point"] = [nearest_candidate(points, g.point_pose, qi, xy)
                        for qi, xy in zip(q[rb], ends[rb])]
    out["nrb"] = [nearest_candidate(g.edges["dec_nrb"], g.nrb_pose, qi, xy)
                  for qi, xy in zip(q[~rb], ends[~rb])]
    return out


# Unfused tape ops, and the attention they compose: the oracles for
# ad.edge_attention, which computes the same expressions as one op. Then the
# ops as they were before each kept only what its backward needs: the
# attention op that kept its per-edge q, k and v rows, LeakyReLU on its own
# node with a float mask, the decide-edge hidden layer as gathers and adds,
# and dropout with a float mask. The new ops must match them bit for bit.

def segment_sum(a, seg_ids, num_segments):
    """Sum rows of a into num_segments buckets by per-row bucket id."""
    seg = ad.Segments(seg_ids)
    return ad._op(ad._scatter_add(a.value, seg, num_segments), (a,),
                  lambda g: (g[seg.ids],))


def scale_last(a, w):
    """a (..., d) times per-row weights w (...,): a * w[..., None]."""
    av, wv = a.value, w.value

    return ad._op(av * wv[..., None], (a, w),
                  lambda g: (g * wv[..., None], (g * av).sum(axis=-1)))


def sum_axis(a, axis):
    av = a.value
    return ad._op(av.sum(axis=axis), (a,),
                  lambda g: (np.expand_dims(g, axis) * np.ones_like(av),))


def unfused_edge_attention(q, k, v, e, edges, heads):
    """ad.edge_attention as one tape op per step: gathers, adds, reshapes,
    the q.k product, a grouped softmax per head, weighting and the sum into
    destinations. Arguments as ad.edge_attention's."""
    src, dst, row = edges.by_src, edges.by_dst, edges.by_row.ids
    n_e, (n_dst, d) = len(dst.ids), q.shape
    d_head = d // heads
    q = ad.gather_rows(q, dst.ids)
    e = ad.gather_rows(e, row)
    k = ad.add(ad.gather_rows(k, src.ids), e)
    v = ad.add(ad.gather_rows(v, src.ids), e)
    qh, kh, vh = (ad.reshape(t, (n_e, heads, d_head)) for t in (q, k, v))
    logits = ad.scalar_mul(sum_axis(ad.mul(qh, kh), axis=2), 1.0 / math.sqrt(d_head))
    heads_p = [ad.softmax_grouped(ad.reshape(ad.slice_cols(logits, h, h + 1), (n_e,)), dst, n_dst)
               for h in range(heads)]
    alpha = ad.concat([ad.reshape(p, (n_e, 1)) for p in heads_p], axis=1)
    return segment_sum(ad.reshape(scale_last(vh, alpha), (n_e, d)), dst.ids, n_dst)


def edge_attention_oracle(q, k, v, e, edges, heads):
    """ad.edge_attention in edge order, keeping the per-edge q, k and v rows
    for its backward."""
    src, dst, row = edges.by_src, edges.by_dst, edges.by_row.ids
    n_e, (n_dst, d) = len(dst.ids), q.value.shape
    d_head = d // heads
    c = 1.0 / np.sqrt(d_head)
    ev = e.value[row]
    qe = q.value[dst.ids]
    ke = k.value[src.ids] + ev
    ve = v.value[src.ids] + ev
    qh, kh, vh = (a.reshape(n_e, heads, d_head) for a in (qe, ke, ve))
    p = ad._softmax((qh * kh).sum(axis=2) * c, dst)  # (E, heads)

    def bw(g):
        g3 = g[dst.ids].reshape(n_e, heads, d_head)
        ga = (g3 * vh).sum(axis=-1)
        gl = p * (ga - ad._reduce(np.add, p * ga, dst)[dst.rank]) * c
        gq = (gl[..., None] * kh).reshape(n_e, d)
        gk = (gl[..., None] * qh).reshape(n_e, d)
        gv = (g3 * p[..., None]).reshape(n_e, d)
        return (ad._scatter_add(gq, dst, n_dst), ad._scatter_add(gk, src, n_k),
                ad._scatter_add(gv, src, n_v),
                ad._scatter_add(gk + gv, ad.Segments(row), n_e_rows))

    n_k, n_v, n_e_rows = k.value.shape[0], v.value.shape[0], e.value.shape[0]
    msg = ad._scatter_add((vh * p[..., None]).reshape(n_e, d), dst, n_dst)
    return ad._op(msg, (q, k, v, e), bw)


def leaky_relu(a):
    """max(x, LEAKY_SLOPE * x) as its own op, with a float mask in backward."""
    av = a.value
    out = av * ad.LEAKY_SLOPE
    np.maximum(av, out, out=out)
    if ad.kink_monitor is not None:
        ad.kink_monitor.append(av >= 0.0)

    def bw(g):
        mask = (av >= 0.0).astype(np.float64)
        np.maximum(mask, ad.LEAKY_SLOPE, out=mask)
        return (g * mask,)

    return ad._op(out, (a,), bw)


def affine_leaky(x, w, b):
    """LeakyReLU(x @ w + b) as one op that keeps x, w and the bool sign mask:
    the first half of mlp_leaky_oracle."""
    xv, wv = x.value, w.value
    out, pos = ad._leaky(ad._affine_value(xv, wv, b.value, "affine_leaky"))
    ad._report_kinks(pos)
    return ad._op(out, (x, w, b), lambda g: ad._affine_grads(xv, wv, ad._leaky_grad(g, pos)))


def affine_leaky_oracle(x, w, b):
    """affine_leaky as an affine op, then a LeakyReLU op."""
    return leaky_relu(ad.affine(x, w, b))


def mlp_leaky_oracle(x, w0, b0, w1, b1, p, rng):
    """ad.mlp_leaky as three ops that each keep their input: affine_leaky,
    ad.dropout and ad.affine."""
    return ad.affine(ad.dropout(affine_leaky(x, w0, b0), p, rng), w1, b1)


def edge_sum_leaky_oracle(hi, hj, hij, edges):
    """ad.edge_sum_leaky as three row gathers, two adds and a LeakyReLU."""
    h = ad.add(ad.gather_rows(hi, edges.by_src.rank), ad.gather_rows(hj, edges.by_dst.rank))
    return leaky_relu(ad.add(h, ad.gather_rows(hij, edges.by_row.ids)))


def dropout_oracle(a, p, rng):
    """ad.dropout with a float mask of 0 and 1 / (1 - p) kept for backward."""
    keep = (rng.random(a.value.shape) >= p) / (1.0 - p)
    return ad._op(a.value * keep, (a,), lambda g: (g * keep,))


# The per-step scene generator and the json.dump scenario writer: the oracles
# for synthgen.gen_agents, which interpolates each lane visit in one call, and
# for scene.save_scene, which writes through one json.dumps call.

def point_at_arclength_scalar(pts, s: float) -> tuple:
    """Interpolate (x, y, tangent heading) at one arc length s along a polyline."""
    pts = np.asarray(pts, dtype=float)
    seg = np.hypot(*(pts[1:] - pts[:-1]).T)
    cum = np.concatenate(([0.0], np.cumsum(seg)))
    s = min(max(s, 0.0), cum[-1])
    i = int(np.searchsorted(cum, s + 1e-9 * max(cum[-1], 1.0), side="right") - 1)
    i = min(i, len(seg) - 1)
    t = 0.0 if seg[i] < 1e-12 else (s - cum[i]) / seg[i]
    p = pts[i] + t * (pts[i + 1] - pts[i])
    d = pts[i + 1] - pts[i]
    heading = math.atan2(d[1], d[0]) if seg[i] > 1e-12 else 0.0
    return float(p[0]), float(p[1]), heading


def gen_agents_per_step(lanes, style, rng, t_history, t_future, dt) -> list:
    """synthgen.gen_agents with one point_at_arclength_scalar call per vehicle step."""
    T = t_history + t_future
    agents = []
    for vi in range(int(rng.integers(1, 5))):
        lane = lanes[int(rng.integers(0, len(lanes)))]
        s = float(rng.uniform(0.0, 0.5 * lane.length))
        v = float(rng.uniform(style.speed_min, style.speed_max))
        states = np.zeros((T, 5))
        cur = lane
        for t in range(T):
            x, y, h = point_at_arclength_scalar(cur.centerline, s)
            states[t] = (x, y, v * math.cos(h), v * math.sin(h), 1.0)
            v = float(np.clip(v + rng.uniform(-0.2, 0.2), style.speed_min, style.speed_max))
            s += v * dt
            while s > cur.length:
                if not cur.successors:
                    s = cur.length
                    v = 0.0
                    break
                s -= cur.length
                nxt = cur.successors[int(rng.integers(0, len(cur.successors)))]
                cur = next(l for l in lanes if l.id == nxt)
        cls = "truck" if rng.random() < 0.15 else "vehicle"
        agents.append(AgentTrack(f"veh{vi}", cls, states))
    for pi in range(int(rng.integers(0, 3))):
        lane = lanes[int(rng.integers(0, len(lanes)))]
        x0, y0, h = point_at_arclength_scalar(lane.centerline, float(rng.uniform(0, lane.length)))
        side = 1 if rng.random() < 0.5 else -1
        off = rng.uniform(4.0, 9.0)
        x = x0 + side * off * -math.sin(h)
        y = y0 + side * off * math.cos(h)
        walk_h = float(rng.uniform(-math.pi, math.pi))
        speed = float(rng.uniform(0.5, 2.0))
        states = np.zeros((T, 5))
        for t in range(T):
            vx, vy = speed * math.cos(walk_h), speed * math.sin(walk_h)
            states[t] = (x, y, vx, vy, 1.0)
            x += vx * dt
            y += vy * dt
            if t % 10 == 9:
                walk_h = normalize_angle(walk_h + float(rng.uniform(-0.8, 0.8)))
                speed = float(np.clip(speed + rng.uniform(-0.3, 0.3), 0.3, 2.0))
        agents.append(AgentTrack(f"ped{pi}", "pedestrian", states))
    return agents


def gen_scene_per_step(style, seed_pair, scene_id, t_history=10, t_future=30, dt=0.1):
    rng = np.random.default_rng(np.random.SeedSequence(seed_pair))
    lanes = gen_map(style, rng)
    agents = gen_agents_per_step(lanes, style, rng, t_history, t_future, dt)
    return Scene(scene_id, dt, t_history, t_future, agents, lanes)


def scene_json_dump(scene, f) -> None:
    """The scenario file of a scene, one value at a time through json.dump."""
    d = {"id": scene.id, "dt": scene.dt, "t_history": scene.t_history,
         "t_future": scene.t_future,
         "agents": [{"id": a.id, "class": a.agent_class,
                     "states": [[float(x), float(y), float(vx), float(vy), bool(v > 0.5)]
                                for x, y, vx, vy, v in a.states]} for a in scene.agents],
         "lanes": [{"id": l.id, "type": l.lane_type, "centerline": l.centerline.tolist(),
                    "left_boundary": l.left_boundary.tolist(),
                    "right_boundary": l.right_boundary.tolist(),
                    "successors": list(l.successors), "predecessors": list(l.predecessors),
                    "left_neighbor": l.left_neighbor, "right_neighbor": l.right_neighbor}
                   for l in scene.lanes]}
    json.dump(d, f, sort_keys=True)
    f.write("\n")


# malformed scenario files that load_scene must turn into a DataError
MALFORMED = {"state-abc": ("agents", 0, "states", 3, 1),
             "centerline-abc": ("lanes", 0, "centerline", 1, 0),
             "dt-abc": ("dt",),
             "not-utf8": None}


def write_malformed_scene(path, d: dict, kind: str) -> None:
    """Write the scenario dict d to path with the fault MALFORMED[kind]: "abc"
    at a path of keys, or (None) a Latin-1 byte that is not UTF-8."""
    where = MALFORMED[kind]
    if where is None:
        d = {**d, "id": "sc\u00e9ne"}
        path.write_bytes(json.dumps(d, ensure_ascii=False).encode("latin-1"))
        return
    d = json.loads(json.dumps(d))
    *keys, last = where
    node = d
    for key in keys:
        node = node[key]
    node[last] = "abc"
    path.write_text(json.dumps(d))


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
