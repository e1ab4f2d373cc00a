"""Per-layer timings: wrappers installed from outside around the public
functions of each goalgraph module, for the traced run only.

A span's time is inclusive (children included), except
metrics.evaluate_self, which leaves out the Model.predict calls made inside
evaluate(). A span called with gradients off is a `predict` span, with them
on a `train` span. Times are mean milliseconds per call (per scene for
evaluate_self). Call counts are per set-up for the set-up spans
(synthgen, scene) and per round for the others; edge counts are means per
graph build and tape nodes means per backward. The runner clears the round
spans after the first round, which warms caches, as it does for the
end-to-end figures.
"""

from __future__ import annotations

import time
from collections import defaultdict

import goalgraph.autodiff as ad
from goalgraph import graph, metrics, model, nn, scene, synthgen, training

EDGE_TYPES = ("p2l", "l2l", "a_suc", "a_soc", "l2a", "a_self_q", "a_soc_q", "l2q", "q2q",
              "dec_lane", "dec_nrb")
MODEL_STAGES = ("embed_nodes", "encode", "decode_queries", "score.lane", "score.point",
                "score.nrb", "regress_offset", "complete_trajectory", "argmax_per_group")
GAL_PREFIXES = ("enc.map.p2l", "enc.map.l2l",
                *(f"enc.agent{r}.{b}" for r in (0, 1) for b in ("suc", "soc", "ti")),
                *(f"dec.q{r}.{b}" for r in (0, 1) for b in ("self", "soc", "ti", "mode")))
PHASES = ("train", "predict")

# (metric, source span or counter, kind): kind "ms" is the mean time per
# call, "calls" the call count, "mean" a counter's mean per call of its span
SETUP_SPANS = ("synthgen.gen_scene", "scene.load")
_SPANS = [("synthgen.gen_scene", "synthgen.gen_scene"), ("scene.load", "scene.load"),
          ("graph.build", "graph.build"), ("graph.decide_point", "graph.decide_point")]
LAYOUT = []
for _name, _span in _SPANS:
    LAYOUT += [(f"{_name}_ms", _span, "ms"), (f"{_name}_calls", _span, "calls")]
LAYOUT += [(f"graph.edges.{t}", "graph.build", f"edges.{t}") for t in EDGE_TYPES]
LAYOUT += [(f"model.{s}.{p}_{kind}", f"model.{s}.{p}", kind)
           for s in MODEL_STAGES for p in PHASES for kind in ("ms", "calls")]
LAYOUT += [("model.forward.train_ms", "model.forward.train", "ms"),
           ("model.forward.train_calls", "model.forward.train", "calls"),
           ("model.predict_ms", "model.predict", "ms"),
           ("model.predict_calls", "model.predict", "calls")]
LAYOUT += [(f"nn.gal.{g}.{p}_ms", f"nn.gal.{g}.{p}", "ms") for g in GAL_PREFIXES for p in PHASES]
LAYOUT += [("nn.save_checkpoint_ms", "nn.save_checkpoint", "ms"),
           ("nn.save_checkpoint_calls", "nn.save_checkpoint", "calls"),
           ("autodiff.backward_ms", "autodiff.backward", "ms"),
           ("autodiff.backward_calls", "autodiff.backward", "calls"),
           ("autodiff.tape_nodes", "autodiff.backward", "tape_nodes")]
for _name in ("loss", "augment", "adamw"):
    LAYOUT += [(f"training.{_name}_ms", f"training.{_name}", "ms"),
               (f"training.{_name}_calls", f"training.{_name}", "calls")]
LAYOUT += [("metrics.evaluate_self_ms", "metrics.evaluate_self", "per_scene"),
           ("metrics.evaluate_scenes", "metrics.evaluate_self", "scenes"),
           ("metrics.offroad_ms", "metrics.offroad", "ms"),
           ("metrics.offroad_calls", "metrics.offroad", "calls")]


def unit(kind: str) -> str:
    return "ms" if kind in ("ms", "per_scene") else "count"


def _phase() -> str:
    return "train" if ad._grad_enabled else "predict"


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.counters = defaultdict(float)
        self.enabled = True
        self._predict_s = 0.0  # Model.predict time, for evaluate's self time

    def add(self, span: str, dt: float):
        if self.enabled:
            self.calls[span] += 1
            self.seconds[span] += dt

    def count(self, key: str, n: float):
        if self.enabled:
            self.counters[key] += n

    def clear_rounds(self):
        """Forget every span but the set-up ones."""
        for table in (self.calls, self.seconds, self.counters):
            for key in [k for k in table if not k.startswith(SETUP_SPANS)]:
                del table[key]

    # -- installation (for the life of the process) -------------------------
    def _timed(self, fn, name_of, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            tracer.add(name_of(args, kwargs), time.perf_counter() - t0)
            if after is not None:
                after(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        fixed = lambda name: (lambda a, k: name)  # noqa: E731
        timed = self._timed
        synthgen.gen_scene = timed(synthgen.gen_scene, fixed("synthgen.gen_scene"))
        scene.load_scene = timed(scene.load_scene, fixed("scene.load"))

        def edges(args, g):
            for t in EDGE_TYPES:
                self.count(f"graph.build.edges.{t}", g.edges[t].count)

        build = timed(graph.build_graph, fixed("graph.build"), edges)
        for mod in (graph, model):
            mod.build_graph = build
        decide = timed(graph.build_decide_point_edges, fixed("graph.decide_point"))
        for mod in (graph, model, training):
            mod.build_decide_point_edges = decide

        M = model.Model
        for stage in ("embed_nodes", "encode", "decode_queries", "regress_offset",
                      "complete_trajectory"):
            setattr(M, stage, timed(getattr(M, stage),
                                    lambda a, k, s=stage: f"model.{s}.{_phase()}"))
        M.score_decide_edges = timed(M.score_decide_edges,
                                     lambda a, k: f"model.score.{a[1]}.{_phase()}")
        M.argmax_per_group = staticmethod(timed(
            M.__dict__["argmax_per_group"].__func__,
            lambda a, k: f"model.argmax_per_group.{_phase()}"))
        forward = M.forward

        def traced_forward(self_, *args, **kwargs):
            if not ad._grad_enabled:
                return forward(self_, *args, **kwargs)
            t0 = time.perf_counter()
            out = forward(self_, *args, **kwargs)
            self.add("model.forward.train", time.perf_counter() - t0)
            return out

        M.forward = traced_forward
        predict = M.predict

        def traced_predict(self_, s):
            t0 = time.perf_counter()
            out = predict(self_, s)
            dt = time.perf_counter() - t0
            self.add("model.predict", dt)
            self._predict_s += dt
            return out

        M.predict = traced_predict
        nn.graph_attention_layer = timed(nn.graph_attention_layer,
                                         lambda a, k: f"nn.gal.{a[1]}.{_phase()}")
        nn.save_checkpoint = timed(nn.save_checkpoint, fixed("nn.save_checkpoint"))
        backward = ad.Tensor.backward

        def traced_backward(t):
            self.count("autodiff.backward.tape_nodes", _tape_size(t))
            t0 = time.perf_counter()
            out = backward(t)
            self.add("autodiff.backward", time.perf_counter() - t0)
            return out

        ad.Tensor.backward = traced_backward
        training.compute_scene_loss = timed(training.compute_scene_loss, fixed("training.loss"))
        training.augment_scene = timed(training.augment_scene, fixed("training.augment"))
        training.AdamW.step = timed(training.AdamW.step, fixed("training.adamw"))
        metrics.trajectory_offroad = timed(metrics.trajectory_offroad, fixed("metrics.offroad"))
        evaluate = metrics.evaluate

        def traced_evaluate(m, dataset, *args, **kwargs):
            p0 = self._predict_s
            t0 = time.perf_counter()
            out = evaluate(m, dataset, *args, **kwargs)
            total = time.perf_counter() - t0
            self.add("metrics.evaluate_self", total - (self._predict_s - p0))
            self.count("metrics.evaluate_self.scenes", len(dataset))
            return out

        metrics.evaluate = traced_evaluate

    # -- report --------------------------------------------------------------
    def metrics(self, rounds: int, setups: int) -> dict:
        out = {}
        for name, span, kind in LAYOUT:
            n = self.calls.get(span, 0)
            if kind == "ms":
                v = 1e3 * self.seconds[span] / n if n else 0.0
            elif kind == "calls":
                v = n / (setups if span in SETUP_SPANS else rounds)
            elif kind == "per_scene":
                scenes = self.counters.get(f"{span}.scenes", 0)
                v = 1e3 * self.seconds[span] / scenes if scenes else 0.0
            elif kind == "scenes":
                v = self.counters.get(f"{span}.scenes", 0) / rounds
            else:  # a counter's mean per call of its span
                v = self.counters.get(f"{span}.{kind}", 0.0) / n if n else 0.0
            out[name] = {"value": v, "unit": unit(kind)}
        return out


def _tape_size(t) -> int:
    """Nodes reachable from t through parent links."""
    seen = {id(t)}
    stack = [t]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)
