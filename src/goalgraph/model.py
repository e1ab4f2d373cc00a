"""The goal-conditioned trajectory prediction network and its direct-regression baseline."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .config import Config
from .errors import ConfigError, StructuralError
from .geometry import to_local, to_scene
from .graph import (
    LANE_RELATIONS,
    EdgeSet,
    GraphConfig,
    HeteroGraph,
    build_decide_point_edges,
    build_graph,
)
from .scene import AGENT_CLASSES, LANE_TYPES, SIDES, Scene

EDGE_TYPES = ("p2l", "l2l", "a_suc", "a_soc", "l2a",
              "a_self_q", "a_soc_q", "l2q", "q2q")
DECIDE_EDGE_TYPES = ("dec_lane", "dec_point", "dec_nrb")
B_FLOOR = 1e-3


@dataclass
class ModelConfig(Config):
    d_h: int = 128
    heads: int = 8
    K: int = 6
    T_f: int = 30
    dropout: float = 0.1  # applied when the forward pass is given an rng
    variant: str = "goal"  # or "baseline"
    ffn_hidden: int = 512
    graph: GraphConfig = field(default_factory=GraphConfig)

    def check(self):
        for name in ("d_h", "heads", "K", "T_f", "ffn_hidden"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d_h % self.heads:
            raise ConfigError(f"d_h={self.d_h} not divisible by heads={self.heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.variant not in ("goal", "baseline"):
            raise ConfigError(f"unknown variant {self.variant!r}")


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
    """The forward pass's outputs, one row per query (K per predicted agent,
    agent-major), and the tape handles the loss needs.

    score is normalised over each agent's K modes, lane is -1 where no lane
    was selected (nrb queries and the baseline), and the goal arrays (point
    to goal_scene) stay None for the baseline."""

    graph: HeteroGraph
    query_feats: Tensor
    enc: dict
    score: np.ndarray | None = None
    lane: np.ndarray | None = None
    point: np.ndarray | None = None
    point_pose: np.ndarray | None = None
    offset: np.ndarray | None = None
    goal_local: np.ndarray | None = None
    goal_scene: np.ndarray | None = None
    mu: np.ndarray | None = None
    b: np.ndarray | None = None
    traj_scene: np.ndarray | None = None
    lane_scores: Tensor | None = None
    nrb_scores: Tensor | None = None
    nrb_fe: Tensor | None = None
    base_scores: Tensor | None = None
    base_mu: Tensor | None = None
    base_b: Tensor | None = None


def mode_predictions(fr: ForwardResult) -> list:
    """The forward pass's rows as ModePredictions, K per predicted agent."""
    g = fr.graph
    preds = []
    for qi, (a_idx, k) in enumerate(zip(g.query_agent.tolist(), g.query_mode.tolist())):
        li = int(fr.lane[qi])
        goal = {} if fr.point is None else dict(
            selected_point_idx=int(fr.point[qi]), selected_point_pose=fr.point_pose[qi],
            goal_offset=fr.offset[qi], goal_scene=fr.goal_scene[qi], goal_local=fr.goal_local[qi])
        preds.append(ModePrediction(
            agent_id=g.scene.agents[a_idx].id, agent_idx=a_idx, mode=k, score=float(fr.score[qi]),
            traj_mu_local=fr.mu[qi], traj_b=fr.b[qi], traj_scene=fr.traj_scene[qi],
            selected_lane_id=None if li < 0 else g.scene.lanes[li].id,
            selected_lane_idx=None if li < 0 else li, **goal))
    return preds


def _mean_and_scale(raw: Tensor, T_f: int):
    """A trajectory head's (n, 4 T_f) output as cumulative-sum means and
    softplus scales floored at B_FLOOR, each (n, T_f, 2)."""
    n = raw.shape[0]
    mu = ad.cumsum_axis(ad.reshape(ad.slice_cols(raw, 0, 2 * T_f), (n, T_f, 2)), axis=1)
    b = ad.add(ad.softplus(ad.reshape(ad.slice_cols(raw, 2 * T_f, 4 * T_f), (n, T_f, 2))),
               Tensor(np.full((n, T_f, 2), B_FLOOR)))
    return mu, b


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

    # ------------------------------------------------------------------
    def _create_params(self):
        ps, cfg = self.ps, self.cfg
        d = cfg.d_h

        # node embeddings
        nn.create_mlp(ps, "emb.agent.cont", 2, d, d)
        ps.create("emb.agent.table", (len(AGENT_CLASSES), d), "embedding")
        nn.create_mlp(ps, "emb.agent.out", d, d, d)
        nn.create_mlp(ps, "emb.lane.cont", 1, d, d)
        ps.create("emb.lane.table", (len(LANE_TYPES), d), "embedding")
        nn.create_mlp(ps, "emb.lane.out", d, d, d)
        nn.create_mlp(ps, "emb.point.cont", 1, d, d)
        ps.create("emb.point.type_table", (len(LANE_TYPES), d), "embedding")
        ps.create("emb.point.side_table", (len(SIDES), d), "embedding")
        nn.create_mlp(ps, "emb.point.out", d, d, d)
        ps.create("emb.query.shared", (1, d), "embedding")
        ps.create("emb.query.mode", (cfg.K, d), "embedding")

        etypes = EDGE_TYPES
        if cfg.variant == "goal":
            nn.create_mlp(ps, "emb.nrb.cont", 1, d, d)
            nn.create_mlp(ps, "emb.nrb.out", d, d, d)
            etypes = EDGE_TYPES + DECIDE_EDGE_TYPES
        for et in etypes:
            nn.create_mlp(ps, f"emb.edge.{et}.cont", 6, d, d)
            nn.create_mlp(ps, f"emb.edge.{et}.out", d, d, d)
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
                nn.create_mlp(ps, f"score.{stage}.mlp", 3 * d, d, d)
                nn.create_affine(ps, f"score.{stage}.out", d, 1)
            for grp in ("rb", "nrb"):
                nn.create_mlp(ps, f"off.{grp}", 3 * d, d, 2)
                nn.create_mlp(ps, f"traj.{grp}", d + 2, d, 4 * cfg.T_f)
        else:
            nn.create_mlp(ps, "base.traj", d, d, 4 * cfg.T_f)
            nn.create_mlp(ps, "base.score", d, d, 1)

    # ------------------------------------------------------------------
    # embeddings

    def embed_edge(self, etype: str, edges: EdgeSet) -> Tensor:
        """Embeddings of the set's distinct feature rows (edges.feat)."""
        ps = self.ps
        x = nn.mlp(ps, f"emb.edge.{etype}.cont", Tensor(edges.feat))
        if edges.rel is not None:
            x = ad.add(x, ad.embedding_lookup(ps[f"emb.edge.{etype}.rel_table"], edges.rel))
        return nn.mlp(ps, f"emb.edge.{etype}.out", x)

    def embed_nodes(self, g: HeteroGraph) -> dict:
        ps = self.ps
        out = {}
        a = nn.mlp(ps, "emb.agent.cont", Tensor(g.agent_vel_local))
        a = ad.add(a, ad.embedding_lookup(ps["emb.agent.table"], g.agent_class_id))
        out["agent"] = nn.mlp(ps, "emb.agent.out", a)

        l = nn.mlp(ps, "emb.lane.cont", Tensor(g.lane_length[:, None]))
        l = ad.add(l, ad.embedding_lookup(ps["emb.lane.table"], g.lane_type_id))
        out["lane"] = nn.mlp(ps, "emb.lane.out", l)

        p = nn.mlp(ps, "emb.point.cont", Tensor(g.point_seg_length[:, None]))
        p = ad.add(p, ad.embedding_lookup(ps["emb.point.type_table"], g.point_type_id))
        p = ad.add(p, ad.embedding_lookup(ps["emb.point.side_table"], g.point_side_id))
        out["point"] = nn.mlp(ps, "emb.point.out", p)

        if self.cfg.variant == "goal" and len(g.nrb_pose):
            nr = nn.mlp(ps, "emb.nrb.cont", Tensor(g.nrb_radius[:, None]))
            out["nrb"] = nn.mlp(ps, "emb.nrb.out", nr)
        else:
            out["nrb"] = Tensor(np.zeros((0, self.cfg.d_h)))

        shared = ad.embedding_lookup(ps["emb.query.shared"],
                                     np.zeros(g.n_queries, dtype=int))
        out["query"] = ad.add(shared, ad.embedding_lookup(ps["emb.query.mode"], g.query_mode))
        return out

    # ------------------------------------------------------------------
    # encoder / decoder

    def embed_edges(self, g: HeteroGraph) -> dict:
        """Embeddings of the encoder and decoder edge sets, by edge type; each
        is shared by every block that consumes its edge set."""
        return {et: self.embed_edge(et, g.edges[et]) for et in EDGE_TYPES}

    def _gal(self, prefix, src, dst, g: HeteroGraph, eemb: dict, etype, rng):
        return nn.graph_attention_layer(self.ps, prefix, src, dst, g.edges[etype], eemb[etype],
                                        self.cfg.heads, self.cfg.dropout, rng)

    def encode(self, g: HeteroGraph, feats: dict, eemb: dict, rng=None) -> dict:
        lane = self._gal("enc.map.p2l", feats["point"], feats["lane"], g, eemb, "p2l", rng)
        lane = self._gal("enc.map.l2l", lane, lane, g, eemb, "l2l", rng)
        agent = feats["agent"]
        for r in range(2):
            agent = self._gal(f"enc.agent{r}.suc", agent, agent, g, eemb, "a_suc", rng)
            agent = self._gal(f"enc.agent{r}.soc", agent, agent, g, eemb, "a_soc", rng)
            agent = self._gal(f"enc.agent{r}.ti", lane, agent, g, eemb, "l2a", rng)
        return {"agent": agent, "lane": lane, "point": feats["point"], "nrb": feats["nrb"]}

    def decode_queries(self, g: HeteroGraph, enc: dict, q: Tensor, eemb: dict, rng=None) -> Tensor:
        for r in range(2):
            q = self._gal(f"dec.q{r}.self", enc["agent"], q, g, eemb, "a_self_q", rng)
            q = self._gal(f"dec.q{r}.soc", enc["agent"], q, g, eemb, "a_soc_q", rng)
            q = self._gal(f"dec.q{r}.ti", enc["lane"], q, g, eemb, "l2q", rng)
            q = self._gal(f"dec.q{r}.mode", q, q, g, eemb, "q2q", rng)
        return q

    # ------------------------------------------------------------------
    # goal machinery

    def score_decide_edges(self, stage: str, etype: str, q_feats: Tensor,
                           cand_feats: Tensor, edges: EdgeSet, n_groups: int):
        """Per-edge logit = affine(MLP(concat[f_i, f_j, f_ij]) + f_ij); grouped softmax.

        The MLP's first layer is linear in the concatenation, so its weight is
        applied in row blocks: the f_i and f_j blocks multiply each distinct
        query and candidate once, and the f_ij block each distinct edge
        feature row. One ad.edge_sum_leaky op then gathers and adds them per
        edge and applies the LeakyReLU. Returns the scores and f_ij by
        distinct row.
        """
        if edges.count == 0:
            raise StructuralError(f"empty candidate set for stage {stage}")
        fe = self.embed_edge(etype, edges)
        ps, pre = self.ps, f"score.{stage}.mlp"
        d = fe.shape[1]
        w = ps[pre + ".l0.W"]
        lay = edges.layout
        by_src, by_dst = lay.by_src, lay.by_dst
        hi = ad.matmul(ad.gather_rows(q_feats, by_src.present), ad.slice_rows(w, 0, d))
        hj = ad.matmul(ad.gather_rows(cand_feats, by_dst.present), ad.slice_rows(w, d, 2 * d))
        hij = ad.affine(fe, ad.slice_rows(w, 2 * d, 3 * d), ps[pre + ".l0.b"])
        hidden = ad.add(nn.affine(ps, pre + ".l1", ad.edge_sum_leaky(hi, hj, hij, lay)),
                        ad.gather_rows(fe, edges.row))
        logits = ad.reshape(nn.affine(ps, f"score.{stage}.out", hidden), (edges.count,))
        return ad.softmax_grouped(logits, by_src, n_groups), fe

    @staticmethod
    def argmax_per_group(scores: np.ndarray, groups: np.ndarray, n_groups: int) -> np.ndarray:
        """Position of each group's first (lowest edge position) maximum, by
        group id in range(n_groups); -1 for a group without edges."""
        groups = np.asarray(groups)
        order = np.lexsort((-np.asarray(scores), groups))  # stable: ties keep position order
        g = groups[order]
        first = np.ones(len(g), dtype=bool)
        first[1:] = g[1:] != g[:-1]
        best = np.full(n_groups, -1)
        best[g[first]] = order[first]
        return best

    def regress_offset(self, grp: str, q_feats, cand_feats, fe: Tensor,
                       edges: EdgeSet, positions: np.ndarray) -> Tensor:
        """Offset head on the selected decide edges, fe being the set's edge
        embeddings by distinct row; returns (N, 2) in goal frames."""
        fi = ad.gather_rows(q_feats, edges.src[positions])
        fj = ad.gather_rows(cand_feats, edges.dst[positions])
        fij = ad.gather_rows(fe, edges.row[positions])
        return nn.mlp(self.ps, f"off.{grp}", ad.concat([fi, fj, fij], axis=1))

    def complete_trajectory(self, grp: str, q_rows: Tensor, goal_local: Tensor):
        """Group-specific head: cumulative-sum means and softplus scales."""
        raw = nn.mlp(self.ps, f"traj.{grp}", ad.concat([q_rows, goal_local], axis=1))
        return _mean_and_scale(raw, self.cfg.T_f)

    def goal_local_tensor(self, offset: Tensor, goal_pose: np.ndarray,
                          agent_pose: np.ndarray) -> Tensor:
        """Goal position in each agent's last-observed frame, on the tape.

        goal_local = R(goal_h - h0) @ offset + R(-h0) (goal_xy - p0)
        """
        return ad.add(_rot_rows(offset, goal_pose[:, 2] - agent_pose[:, 2]),
                      Tensor(to_local(goal_pose[:, 0:2], agent_pose)))

    def goal_head(self, grp: str, fr: ForwardResult, fe: Tensor, edges: EdgeSet,
                  positions: np.ndarray, queries: np.ndarray):
        """The goal-conditioned step both pipelines share: each query's goal
        candidate sits on its decide edge at `positions`; regress the offset
        from it, place the goal in the agent's frame and complete the
        trajectory. Returns (goal pose, offset, goal_local, mu, b)."""
        g = fr.graph
        cand_pose, cand_feats = ((g.point_pose, fr.enc["point"]) if grp == "rb"
                                 else (g.nrb_pose, fr.enc["nrb"]))
        goal_pose = cand_pose[edges.dst[positions]]
        offset = self.regress_offset(grp, fr.query_feats, cand_feats, fe, edges, positions)
        goal_local = self.goal_local_tensor(offset, goal_pose, g.query_pose[queries])
        mu, b = self.complete_trajectory(grp, ad.gather_rows(fr.query_feats, queries), goal_local)
        return goal_pose, offset, goal_local, mu, b

    # ------------------------------------------------------------------
    # full forward passes

    def forward(self, scene: Scene, rng=None, graph: HeteroGraph | None = None) -> ForwardResult:
        """Dropout runs when `rng` is given. `graph`, when given, must be
        build_graph(scene, cfg.K, cfg.graph)."""
        g = graph if graph is not None else build_graph(scene, self.cfg.K, self.cfg.graph)
        if g.K != self.cfg.K:
            raise ConfigError(f"graph built for K={g.K}, model has K={self.cfg.K}")
        feats = self.embed_nodes(g)
        eemb = self.embed_edges(g)
        enc = self.encode(g, feats, eemb, rng)
        q = self.decode_queries(g, enc, feats["query"], eemb, rng)
        fr = ForwardResult(graph=g, query_feats=q, enc=enc)
        if g.n_queries == 0:
            return fr
        if self.cfg.variant == "goal":
            self._forward_goal(fr)
        else:
            self._forward_baseline(fr)
        fr.traj_scene = to_scene(fr.mu, g.query_pose[:, None, :])
        return fr

    def _forward_goal(self, fr: ForwardResult):
        g, q = fr.graph, fr.query_feats
        K, T_f, n = self.cfg.K, self.cfg.T_f, g.n_queries
        rb = np.repeat(g.rb, K)
        # a score is the product of its stage probabilities
        score, fr.lane, fr.point = np.ones(n), np.full(n, -1), np.zeros(n, dtype=int)
        fr.point_pose, fr.offset = np.zeros((n, 3)), np.zeros((n, 2))
        fr.goal_local, fr.mu, fr.b = np.zeros((n, 2)), np.zeros((n, T_f, 2)), np.zeros((n, T_f, 2))
        for grp, queries in (("rb", np.nonzero(rb)[0]), ("nrb", np.nonzero(~rb)[0])):
            if not len(queries):
                continue
            if grp == "rb":  # lane stage, then the point stage on the argmax lane
                lanes = g.edges["dec_lane"]
                fr.lane_scores, _ = self.score_decide_edges("lane", "dec_lane", q, fr.enc["lane"],
                                                            lanes, n)
                lane_pos = self.argmax_per_group(fr.lane_scores.value, lanes.src, n)[queries]
                fr.lane[queries] = lanes.dst[lane_pos]
                score[queries] = fr.lane_scores.value[lane_pos]
                edges = build_decide_point_edges(g, queries, fr.lane[queries])
                scores, fe = self.score_decide_edges("point", "dec_point", q, fr.enc["point"],
                                                     edges, n)
            else:
                edges = g.edges["dec_nrb"]
                scores, fe = self.score_decide_edges("nrb", "dec_nrb", q, fr.enc["nrb"], edges, n)
                fr.nrb_scores, fr.nrb_fe = scores, fe
            positions = self.argmax_per_group(scores.value, edges.src, n)[queries]
            score[queries] *= scores.value[positions]
            fr.point[queries] = edges.dst[positions]
            pose, off, gl, m, s = self.goal_head(grp, fr, fe, edges, positions, queries)
            fr.point_pose[queries], fr.offset[queries] = pose, off.value
            fr.goal_local[queries], fr.mu[queries], fr.b[queries] = gl.value, m.value, s.value
        score = score.reshape(-1, K)
        fr.score = (score / score.sum(axis=1, keepdims=True)).reshape(n)
        fr.goal_scene = to_scene(fr.goal_local, g.query_pose)

    def _forward_baseline(self, fr: ForwardResult):
        g, q = fr.graph, fr.query_feats
        K, n = self.cfg.K, g.n_queries
        mu, b = _mean_and_scale(nn.mlp(self.ps, "base.traj", q), self.cfg.T_f)
        logits = ad.reshape(nn.mlp(self.ps, "base.score", q), (n,))
        scores = ad.softmax_grouped(logits, ad.Segments(np.arange(n) // K), n // K)
        fr.base_scores, fr.base_mu, fr.base_b = scores, mu, b
        fr.score, fr.lane, fr.mu, fr.b = scores.value, np.full(n, -1), mu.value, b.value

    def predict(self, scene: Scene) -> list:
        """Inference: K ModePredictions per predicted agent."""
        with ad.no_grad():
            return mode_predictions(self.forward(scene))
