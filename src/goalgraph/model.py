"""The goal-conditioned trajectory prediction network and its direct-regression baseline."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .errors import ConfigError, StructuralError
from .graph import (
    LANE_RELATIONS,
    EdgeSet,
    GraphConfig,
    HeteroGraph,
    build_decide_point_edges,
    build_graph,
    center_points_of_lane,
)
from .scene import AGENT_CLASSES, LANE_TYPES, SIDES, Scene

EDGE_TYPES = ("p2l", "l2l", "a_suc", "a_soc", "l2a",
              "a_self_q", "a_soc_q", "l2q", "q2q")
DECIDE_EDGE_TYPES = ("dec_lane", "dec_point", "dec_nrb")
B_FLOOR = 1e-3


@dataclass
class ModelConfig:
    d_h: int = 128
    heads: int = 8
    K: int = 6
    T_h: int = 10
    T_f: int = 30
    dropout: float = 0.1
    variant: str = "goal"  # or "baseline"
    ffn_hidden: int = 512
    graph: GraphConfig = field(default_factory=GraphConfig)
    brier_literal: bool = False  # see metrics.brier_min_fde_k

    def __post_init__(self):
        if self.d_h % self.heads:
            raise ConfigError(f"d_h={self.d_h} not divisible by heads={self.heads}")
        if self.K < 1:
            raise ConfigError(f"K must be >= 1, got {self.K}")
        if self.variant not in ("goal", "baseline"):
            raise ConfigError(f"unknown variant {self.variant!r}")

    def to_dict(self):
        d = self.__dict__.copy()
        d["graph"] = self.graph.__dict__.copy()
        return d

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        if "graph" in d:
            d["graph"] = GraphConfig(**d["graph"])
        return cls(**d)


@dataclass
class ModePrediction:
    """One predicted mode for one agent."""

    agent_id: str
    agent_idx: int
    mode: int
    score: float
    traj_mu_local: np.ndarray   # (T_f, 2) in the agent's last-observed frame
    traj_b: np.ndarray          # (T_f, 2) Laplace scales
    traj_scene: np.ndarray      # (T_f, 2) scene frame
    selected_lane_id: str | None = None
    selected_lane_idx: int | None = None
    selected_point_idx: int | None = None
    selected_point_pose: np.ndarray | None = None
    goal_offset: np.ndarray | None = None
    goal_scene: np.ndarray | None = None
    goal_local: np.ndarray | None = None


@dataclass
class ForwardResult:
    """Forward-pass handles needed for loss construction and prediction."""

    graph: HeteroGraph
    query_feats: Tensor
    enc: dict
    preds: list
    lane_edges: EdgeSet | None = None
    lane_scores: Tensor | None = None
    point_edges: EdgeSet | None = None
    point_scores: Tensor | None = None
    nrb_edges: EdgeSet | None = None
    nrb_scores: Tensor | None = None
    sel_lane: dict = field(default_factory=dict)     # query -> lane idx
    sel_edge_lane: dict = field(default_factory=dict)  # query -> edge pos in lane_edges
    sel_edge_point: dict = field(default_factory=dict)
    sel_edge_nrb: dict = field(default_factory=dict)
    nrb_fe: Tensor | None = None
    agent_pose_q: np.ndarray | None = None
    base_logits: Tensor | None = None
    base_scores: Tensor | None = None
    base_mu: Tensor | None = None
    base_b: Tensor | None = None


def _rot_rows(xy: Tensor, ang: np.ndarray) -> Tensor:
    """Rotate each row of an (N, 2) tensor by its own (constant) angle."""
    c, s = np.cos(ang)[:, None], np.sin(ang)[:, None]
    x, y = ad.slice_cols(xy, 0, 1), ad.slice_cols(xy, 1, 2)
    return ad.concat([ad.sub(ad.mul(x, Tensor(c)), ad.mul(y, Tensor(s))),
                      ad.add(ad.mul(x, Tensor(s)), ad.mul(y, Tensor(c)))], axis=1)


class Model:
    """Owns a ParamStore plus forward methods for both variants."""

    def __init__(self, cfg: ModelConfig, seed: int = 0, ps: nn.ParamStore | None = None):
        self.cfg = cfg
        self.ps = ps if ps is not None else nn.ParamStore(seed)
        if ps is None:
            self._create_params()
        self._graph_cache = {}
        self._eemb_cache = {}

    # ------------------------------------------------------------------
    def _create_params(self):
        ps, cfg = self.ps, self.cfg
        d = cfg.d_h

        # node embeddings
        nn.create_mlp(ps, "emb.agent.cont", [2, d, d])
        ps.create("emb.agent.table", (len(AGENT_CLASSES), d), "embedding")
        nn.create_mlp(ps, "emb.agent.out", [d, d, d])
        nn.create_mlp(ps, "emb.lane.cont", [1, d, d])
        ps.create("emb.lane.table", (len(LANE_TYPES), d), "embedding")
        nn.create_mlp(ps, "emb.lane.out", [d, d, d])
        nn.create_mlp(ps, "emb.point.cont", [1, d, d])
        ps.create("emb.point.type_table", (len(LANE_TYPES), d), "embedding")
        ps.create("emb.point.side_table", (len(SIDES), d), "embedding")
        nn.create_mlp(ps, "emb.point.out", [d, d, d])
        ps.create("emb.query.shared", (1, d), "embedding")
        ps.create("emb.query.mode", (cfg.K, d), "embedding")

        etypes = EDGE_TYPES
        if cfg.variant == "goal":
            nn.create_mlp(ps, "emb.nrb.cont", [1, d, d])
            nn.create_mlp(ps, "emb.nrb.out", [d, d, d])
            etypes = EDGE_TYPES + DECIDE_EDGE_TYPES
        for et in etypes:
            nn.create_mlp(ps, f"emb.edge.{et}.cont", [6, d, d])
            nn.create_mlp(ps, f"emb.edge.{et}.out", [d, d, d])
        ps.create("emb.edge.l2l.rel_table", (len(LANE_RELATIONS), d), "embedding")

        # encoder: map-block once, agent-block twice
        for name in ("enc.map.p2l", "enc.map.l2l",
                     "enc.agent0.suc", "enc.agent0.soc", "enc.agent0.ti",
                     "enc.agent1.suc", "enc.agent1.soc", "enc.agent1.ti",
                     "dec.q0.self", "dec.q0.soc", "dec.q0.ti", "dec.q0.mode",
                     "dec.q1.self", "dec.q1.soc", "dec.q1.ti", "dec.q1.mode"):
            nn.create_graph_attention_layer(ps, name, d, cfg.ffn_hidden)

        if cfg.variant == "goal":
            for stage in ("lane", "point", "nrb"):
                nn.create_mlp(ps, f"score.{stage}.mlp", [3 * d, d, d])
                nn.create_affine(ps, f"score.{stage}.out", d, 1)
            for grp in ("rb", "nrb"):
                nn.create_mlp(ps, f"off.{grp}", [3 * d, d, 2])
                nn.create_mlp(ps, f"traj.{grp}", [d + 2, d, 4 * cfg.T_f])
        else:
            nn.create_mlp(ps, "base.traj", [d, d, 4 * cfg.T_f])
            nn.create_mlp(ps, "base.score", [d, d, 1])

    # ------------------------------------------------------------------
    # embeddings

    def embed_edge(self, etype: str, feat: np.ndarray, rel: np.ndarray | None = None) -> Tensor:
        ps = self.ps
        x = nn.mlp(ps, f"emb.edge.{etype}.cont", Tensor(feat), 2)
        if rel is not None:
            x = ad.add(x, ad.embedding_lookup(ps[f"emb.edge.{etype}.rel_table"], rel))
        return nn.mlp(ps, f"emb.edge.{etype}.out", x, 2)

    def embed_nodes(self, g: HeteroGraph) -> dict:
        ps = self.ps
        out = {}
        a = nn.mlp(ps, "emb.agent.cont", Tensor(g.agent_vel_local), 2)
        a = ad.add(a, ad.embedding_lookup(ps["emb.agent.table"], g.agent_class_id))
        out["agent"] = nn.mlp(ps, "emb.agent.out", a, 2)

        l = nn.mlp(ps, "emb.lane.cont", Tensor(g.lane_length[:, None]), 2)
        l = ad.add(l, ad.embedding_lookup(ps["emb.lane.table"], g.lane_type_id))
        out["lane"] = nn.mlp(ps, "emb.lane.out", l, 2)

        p = nn.mlp(ps, "emb.point.cont", Tensor(g.point_seg_length[:, None]), 2)
        p = ad.add(p, ad.embedding_lookup(ps["emb.point.type_table"], g.point_type_id))
        p = ad.add(p, ad.embedding_lookup(ps["emb.point.side_table"], g.point_side_id))
        out["point"] = nn.mlp(ps, "emb.point.out", p, 2)

        if self.cfg.variant == "goal" and len(g.nrb_pose):
            nr = nn.mlp(ps, "emb.nrb.cont", Tensor(g.nrb_radius[:, None]), 2)
            out["nrb"] = nn.mlp(ps, "emb.nrb.out", nr, 2)
        else:
            out["nrb"] = Tensor(np.zeros((0, self.cfg.d_h)))

        shared = ad.embedding_lookup(ps["emb.query.shared"],
                                     np.zeros(g.n_queries, dtype=int))
        out["query"] = ad.add(shared, ad.embedding_lookup(ps["emb.query.mode"], g.query_mode))
        return out

    # ------------------------------------------------------------------
    # encoder / decoder

    def _edge_emb(self, etype: str, edges: EdgeSet, rel=None) -> Tensor:
        """Edge-type embedding, computed once per forward pass and shared by
        every block that consumes the same edge set."""
        key = (etype, id(edges))
        hit = self._eemb_cache.get(key)
        if hit is None:
            hit = self._eemb_cache[key] = self.embed_edge(etype, edges.feat, rel)
        return hit

    def _gal(self, prefix, src, dst, edges: EdgeSet, etype, train, rng, rel=None):
        emb = self._edge_emb(etype, edges, rel)
        return nn.graph_attention_layer(self.ps, prefix, src, dst, edges.by_src, edges.by_dst,
                                        emb, heads=self.cfg.heads,
                                        p_drop=self.cfg.dropout, train=train, rng=rng)

    def encode(self, g: HeteroGraph, feats: dict, train=False, rng=None) -> dict:
        e = g.edges
        lane = self._gal("enc.map.p2l", feats["point"], feats["lane"], e["p2l"], "p2l", train, rng)
        lane = self._gal("enc.map.l2l", lane, lane, e["l2l"], "l2l", train, rng, rel=e["l2l"].rel)
        agent = feats["agent"]
        for r in range(2):
            agent = self._gal(f"enc.agent{r}.suc", agent, agent, e["a_suc"], "a_suc", train, rng)
            agent = self._gal(f"enc.agent{r}.soc", agent, agent, e["a_soc"], "a_soc", train, rng)
            agent = self._gal(f"enc.agent{r}.ti", lane, agent, e["l2a"], "l2a", train, rng)
        return {"agent": agent, "lane": lane, "point": feats["point"], "nrb": feats["nrb"]}

    def decode_queries(self, g: HeteroGraph, enc: dict, q: Tensor, train=False, rng=None) -> Tensor:
        e = g.edges
        for r in range(2):
            q = self._gal(f"dec.q{r}.self", enc["agent"], q, e["a_self_q"], "a_self_q", train, rng)
            q = self._gal(f"dec.q{r}.soc", enc["agent"], q, e["a_soc_q"], "a_soc_q", train, rng)
            q = self._gal(f"dec.q{r}.ti", enc["lane"], q, e["l2q"], "l2q", train, rng)
            q = self._gal(f"dec.q{r}.mode", q, q, e["q2q"], "q2q", train, rng)
        return q

    # ------------------------------------------------------------------
    # goal machinery

    def score_decide_edges(self, stage: str, etype: str, q_feats: Tensor,
                           cand_feats: Tensor, edges: EdgeSet, n_groups: int):
        """Per-edge logit = affine(MLP(concat[f_i, f_j, f_ij]) + f_ij); grouped softmax.

        The MLP's first layer is linear in the concatenation, so its weight is
        applied in row blocks: the f_i and f_j blocks multiply each distinct
        query and candidate once and are then gathered per edge.
        """
        if edges.count == 0:
            raise StructuralError(f"empty candidate set for stage {stage}")
        fe = self._edge_emb(etype, edges)
        ps, pre = self.ps, f"score.{stage}.mlp"
        d = fe.shape[1]
        w = ps[pre + ".l0.W"]
        by_src, by_dst = edges.by_src, edges.by_dst
        hi = ad.matmul(ad.gather_rows(q_feats, by_src.present), ad.slice_rows(w, 0, d))
        hj = ad.matmul(ad.gather_rows(cand_feats, by_dst.present), ad.slice_rows(w, d, 2 * d))
        h = ad.add(ad.add(ad.gather_rows(hi, by_src.rank), ad.gather_rows(hj, by_dst.rank)),
                   ad.affine(fe, ad.slice_rows(w, 2 * d, 3 * d), ps[pre + ".l0.b"]))
        hidden = ad.add(nn.affine(ps, pre + ".l1", ad.leaky_relu(h)), fe)
        logits = ad.reshape(nn.affine(ps, f"score.{stage}.out", hidden), (edges.count,))
        return ad.softmax_grouped(logits, by_src, n_groups), fe

    @staticmethod
    def argmax_per_group(scores: np.ndarray, groups: np.ndarray) -> dict:
        """First (lowest edge position) maximum per group; deterministic."""
        groups = np.asarray(groups)
        order = np.lexsort((-np.asarray(scores), groups))  # stable: ties keep position order
        g = groups[order]
        first = np.ones(len(g), dtype=bool)
        first[1:] = g[1:] != g[:-1]
        return dict(zip(g[first].tolist(), order[first].tolist()))

    def regress_offset(self, grp: str, q_feats, cand_feats, fe: Tensor,
                       edges: EdgeSet, positions: np.ndarray) -> Tensor:
        """Offset head on the selected decide edges; returns (N, 2) in goal frames."""
        fi = ad.gather_rows(q_feats, edges.src[positions])
        fj = ad.gather_rows(cand_feats, edges.dst[positions])
        fij = ad.gather_rows(fe, positions)
        return nn.mlp(self.ps, f"off.{grp}", ad.concat([fi, fj, fij], axis=1), 2)

    def complete_trajectory(self, grp: str, q_rows: Tensor, goal_local: Tensor):
        """Group-specific head: cumulative-sum means and softplus scales."""
        T_f = self.cfg.T_f
        n = q_rows.shape[0]
        raw = nn.mlp(self.ps, f"traj.{grp}", ad.concat([q_rows, goal_local], axis=1), 2)
        dmu = ad.reshape(ad.slice_cols(raw, 0, 2 * T_f), (n, T_f, 2))
        mu = ad.cumsum_axis(dmu, axis=1)
        b = ad.add(ad.softplus(ad.reshape(ad.slice_cols(raw, 2 * T_f, 4 * T_f), (n, T_f, 2))),
                   Tensor(np.full((n, T_f, 2), B_FLOOR)))
        return mu, b

    def goal_local_tensor(self, offset: Tensor, goal_pose: np.ndarray,
                          agent_pose: np.ndarray) -> Tensor:
        """Goal position in each agent's last-observed frame, on the tape.

        goal_local = R(goal_h - h0) @ offset + R(-h0) (goal_xy - p0)
        """
        rel_ang = goal_pose[:, 2] - agent_pose[:, 2]
        const = np.stack([
            np.cos(-agent_pose[:, 2]) * (goal_pose[:, 0] - agent_pose[:, 0])
            - np.sin(-agent_pose[:, 2]) * (goal_pose[:, 1] - agent_pose[:, 1]),
            np.sin(-agent_pose[:, 2]) * (goal_pose[:, 0] - agent_pose[:, 0])
            + np.cos(-agent_pose[:, 2]) * (goal_pose[:, 1] - agent_pose[:, 1]),
        ], axis=1)
        return ad.add(_rot_rows(offset, rel_ang), Tensor(const))

    # ------------------------------------------------------------------
    # full forward passes

    def get_graph(self, scene: Scene, cache: bool = False) -> HeteroGraph:
        if cache and scene.id in self._graph_cache:
            return self._graph_cache[scene.id]
        g = build_graph(scene, self.cfg.K, self.cfg.graph)
        if cache:
            self._graph_cache[scene.id] = g
        return g

    def forward(self, scene: Scene, train: bool = False, rng=None,
                graph: HeteroGraph | None = None, cache_graph: bool = False) -> ForwardResult:
        self.ps.fresh()
        self._eemb_cache = {}
        g = graph if graph is not None else self.get_graph(scene, cache=cache_graph)
        feats = self.embed_nodes(g)
        enc = self.encode(g, feats, train, rng)
        q = self.decode_queries(g, enc, feats["query"], train, rng)
        fr = ForwardResult(graph=g, query_feats=q, enc=enc, preds=[])
        if g.n_queries == 0:
            return fr
        if self.cfg.variant == "goal":
            self._forward_goal(fr, train)
        else:
            self._forward_baseline(fr)
        return fr

    def _forward_goal(self, fr: ForwardResult, train: bool):
        g, q = fr.graph, fr.query_feats
        cfg = self.cfg
        K = cfg.K
        t_last = g.scene.t_history - 1
        statics = getattr(g, "_query_statics", None)
        if statics is None:
            agent_pose_q = np.stack([
                g.agent_pose[g.agent_node_id(g.query_agent[i], t_last)]
                for i in range(g.n_queries)
            ]) if g.n_queries else np.zeros((0, 3))
            rb_queries = np.array([i for i in range(g.n_queries)
                                   if g.goal_rb[g.query_agent[i]]], dtype=int)
            nrb_queries = np.array([i for i in range(g.n_queries)
                                    if not g.goal_rb[g.query_agent[i]]], dtype=int)
            statics = g._query_statics = (agent_pose_q, rb_queries, nrb_queries)
        agent_pose_q, rb_queries, nrb_queries = statics
        fr.agent_pose_q = agent_pose_q

        results = {}  # query -> dict of numeric per-mode outputs
        # --- road-bound pipeline: lane stage, then point stage on the argmax lane
        if len(rb_queries):
            lane_edges = g.edges["dec_lane"]
            lane_scores, _ = self.score_decide_edges("lane", "dec_lane", q, fr.enc["lane"],
                                                     lane_edges, g.n_queries)
            fr.lane_edges, fr.lane_scores = lane_edges, lane_scores
            best = self.argmax_per_group(lane_scores.value, lane_edges.src)
            fr.sel_edge_lane = best
            fr.sel_lane = {qi: int(lane_edges.dst[pos]) for qi, pos in best.items()}

            point_edges = build_decide_point_edges(g, fr.sel_lane)
            point_scores, fe_pt = self.score_decide_edges("point", "dec_point", q,
                                                          fr.enc["point"], point_edges,
                                                          g.n_queries)
            fr.point_edges, fr.point_scores = point_edges, point_scores
            best_pt = self.argmax_per_group(point_scores.value, point_edges.src)
            fr.sel_edge_point = best_pt

            positions = np.array([best_pt[qi] for qi in rb_queries], dtype=int)
            goal_pose = g.point_pose[point_edges.dst[positions]]
            offset = self.regress_offset("rb", q, fr.enc["point"], fe_pt, point_edges, positions)
            goal_local = self.goal_local_tensor(offset, goal_pose, agent_pose_q[rb_queries])
            mu, b = self.complete_trajectory("rb", ad.gather_rows(q, rb_queries), goal_local)
            for row, qi in enumerate(rb_queries):
                lane_pos = best[qi]
                pt_pos = best_pt[qi]
                s = float(lane_scores.value[lane_pos] * point_scores.value[pt_pos])
                results[qi] = {
                    "score_raw": s,
                    "lane_idx": int(lane_edges.dst[lane_pos]),
                    "point_idx": int(point_edges.dst[pt_pos]),
                    "point_pose": goal_pose[row],
                    "offset": offset.value[row],
                    "goal_local": goal_local.value[row],
                    "mu": mu.value[row], "b": b.value[row],
                }
        # --- non-road-bound pipeline
        if len(nrb_queries):
            nrb_edges = g.edges["dec_nrb"]
            nrb_scores, fe_nrb = self.score_decide_edges("nrb", "dec_nrb", q, fr.enc["nrb"],
                                                         nrb_edges, g.n_queries)
            fr.nrb_edges, fr.nrb_scores, fr.nrb_fe = nrb_edges, nrb_scores, fe_nrb
            best_nrb = self.argmax_per_group(nrb_scores.value, nrb_edges.src)
            fr.sel_edge_nrb = best_nrb
            positions = np.array([best_nrb[qi] for qi in nrb_queries], dtype=int)
            goal_pose = g.nrb_pose[nrb_edges.dst[positions]]
            offset = self.regress_offset("nrb", q, fr.enc["nrb"], fe_nrb, nrb_edges, positions)
            goal_local = self.goal_local_tensor(offset, goal_pose, agent_pose_q[nrb_queries])
            mu, b = self.complete_trajectory("nrb", ad.gather_rows(q, nrb_queries), goal_local)
            for row, qi in enumerate(nrb_queries):
                pos = best_nrb[qi]
                results[qi] = {
                    "score_raw": float(nrb_scores.value[pos]),
                    "lane_idx": None,
                    "point_idx": int(nrb_edges.dst[pos]),
                    "point_pose": goal_pose[row],
                    "offset": offset.value[row],
                    "goal_local": goal_local.value[row],
                    "mu": mu.value[row], "b": b.value[row],
                }

        # assemble predictions, renormalizing scores over the K modes per agent
        scene = g.scene
        T_f = cfg.T_f
        for base in range(0, g.n_queries, K):
            raw = np.array([results[base + k]["score_raw"] for k in range(K)])
            norm = raw / raw.sum()
            a_idx = int(g.query_agent[base])
            pose0 = agent_pose_q[base]
            # one rigid transform covers every mode's trajectory and goal
            pts = np.concatenate(
                [results[base + k]["mu"] for k in range(K)]
                + [np.stack([results[base + k]["goal_local"] for k in range(K)])], axis=0)
            pts_scene = _local_to_scene(pts, pose0)
            for k in range(K):
                r = results[base + k]
                traj_scene = pts_scene[k * T_f:(k + 1) * T_f]
                goal_scene = pts_scene[K * T_f + k]
                lane_idx = r["lane_idx"]
                fr.preds.append(ModePrediction(
                    agent_id=scene.agents[a_idx].id, agent_idx=a_idx, mode=k,
                    score=float(norm[k]), traj_mu_local=r["mu"], traj_b=r["b"],
                    traj_scene=traj_scene,
                    selected_lane_id=None if lane_idx is None else scene.lanes[lane_idx].id,
                    selected_lane_idx=lane_idx,
                    selected_point_idx=r["point_idx"],
                    selected_point_pose=r["point_pose"],
                    goal_offset=r["offset"], goal_scene=goal_scene,
                    goal_local=r["goal_local"]))

    def _forward_baseline(self, fr: ForwardResult):
        g, q = fr.graph, fr.query_feats
        cfg = self.cfg
        T_f, K = cfg.T_f, cfg.K
        n = g.n_queries
        raw = nn.mlp(self.ps, "base.traj", q, 2)
        mu = ad.cumsum_axis(ad.reshape(ad.slice_cols(raw, 0, 2 * T_f), (n, T_f, 2)), axis=1)
        b = ad.add(ad.softplus(ad.reshape(ad.slice_cols(raw, 2 * T_f, 4 * T_f), (n, T_f, 2))),
                   Tensor(np.full((n, T_f, 2), B_FLOOR)))
        logits = ad.reshape(nn.mlp(self.ps, "base.score", q, 2), (n,))
        scores = ad.softmax_grouped(logits, np.arange(n) // K, n // K)
        fr.base_logits, fr.base_scores, fr.base_mu, fr.base_b = logits, scores, mu, b
        t_last = g.scene.t_history - 1
        fr.agent_pose_q = np.stack([
            g.agent_pose[g.agent_node_id(int(g.query_agent[qi]), t_last)]
            for qi in range(n)
        ])
        for qi in range(n):
            a_idx = int(g.query_agent[qi])
            pose0 = g.agent_pose[g.agent_node_id(a_idx, t_last)]
            fr.preds.append(ModePrediction(
                agent_id=g.scene.agents[a_idx].id, agent_idx=a_idx,
                mode=int(g.query_mode[qi]), score=float(scores.value[qi]),
                traj_mu_local=mu.value[qi], traj_b=b.value[qi],
                traj_scene=_local_to_scene(mu.value[qi], pose0)))

    def predict(self, scene: Scene) -> list:
        """Inference: K ModePredictions per predicted agent."""
        with ad.no_grad():
            return self.forward(scene, train=False).preds


def _local_to_scene(pts_local: np.ndarray, pose: np.ndarray) -> np.ndarray:
    c, s = math.cos(pose[2]), math.sin(pose[2])
    x = pts_local[:, 0] * c - pts_local[:, 1] * s + pose[0]
    y = pts_local[:, 0] * s + pts_local[:, 1] * c + pose[1]
    return np.stack([x, y], axis=1)


def scene_to_local(pts_scene: np.ndarray, pose: np.ndarray) -> np.ndarray:
    c, s = math.cos(-pose[2]), math.sin(-pose[2])
    dx, dy = pts_scene[:, 0] - pose[0], pts_scene[:, 1] - pose[1]
    return np.stack([c * dx - s * dy, s * dx + c * dy], axis=1)
