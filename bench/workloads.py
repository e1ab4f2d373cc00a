"""The two workloads. Each has a set-up (timed as setup_s), a round of
operations that the runner repeats for the run's seconds, and checks of
what the rounds returned, made after the clock stops."""

from __future__ import annotations

import hashlib
import os
import time
import traceback

import numpy as np
import goalgraph.autodiff as ad
from goalgraph import graph, metrics, nn, training
from goalgraph.model import Model, ModelConfig
from goalgraph.training import TrainConfig

import checks
import inputs


class Record:
    """Samples and operation counts of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.predict_ms = []  # (scene id, ms) per timed Model.predict call
        # per timed train / evaluate call: (scenes done, the call's pieces in seconds)
        self.train = []
        self.evaluate = []
        self.xstyle = []

    def op(self, fn, *args, **kwargs):
        """One operation on the package; a raise counts as failed."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # noqa: BLE001 - any raise is a failed operation; the run goes on
            self.failed += 1
            self.errors.append(f"{getattr(fn, '__name__', fn)}: {traceback.format_exc()}")
            return None


class Marks:
    """Splits one call into pieces: while it is open, stamps the time at
    each entry to the given functions ((owner, name) pairs). A round repeats
    the same work, so piece j of a call is the same work in every round,
    and a piece's median over the rounds leaves out the rounds in which the
    shared machine slowed just that piece down."""

    def __init__(self, *targets):
        self.targets = targets
        self.stamps = []

    def __enter__(self):
        self.saved = [(owner, name, getattr(owner, name)) for owner, name in self.targets]
        for owner, name, fn in self.saved:
            setattr(owner, name, self._stamped(fn))
        self.stamps.append(time.perf_counter())
        return self

    def _stamped(self, fn):
        stamps = self.stamps

        def stamped(*args, **kwargs):
            stamps.append(time.perf_counter())
            return fn(*args, **kwargs)

        return stamped

    def __exit__(self, *exc):
        self.stamps.append(time.perf_counter())
        for owner, name, fn in self.saved:
            setattr(owner, name, fn)
        return False

    def pieces(self) -> list:
        return np.diff(self.stamps).tolist()


class Timed:
    """Stands in for a Model in metrics.evaluate: times each predict call
    into `sink` and keeps the predictions evaluate() was given."""

    def __init__(self, model, sink, keep=None):
        self.model, self.sink, self.keep = model, sink, keep

    def predict(self, s):
        t0 = time.perf_counter()
        preds = self.model.predict(s)
        if self.sink is not None:
            self.sink.append((s.id, 1e3 * (time.perf_counter() - t0)))
        if self.keep is not None:
            self.keep.append(preds)
        return preds


def fingerprint(summary, *pred_sets) -> str:
    """Hash of a round's logs and reports (summary) and its predictions
    (lists of per-scene prediction lists), to compare rounds."""
    h = hashlib.sha256(repr(summary).encode())
    for preds_per_scene in pred_sets:
        for preds in preds_per_scene:
            for p in preds:
                h.update(np.asarray(p.traj_scene, float).tobytes())
                h.update(repr((p.agent_idx, p.mode, p.score, p.selected_lane_idx)).encode())
    return h.hexdigest()


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.first = None  # fingerprint of round 1
        self.rounds = 0
        self.determinism_errors = []

    def predict_all(self, rec, model, scenes, keep):
        """Model.predict on each scene; the predictions go to keep."""
        for s in scenes:
            t0 = time.perf_counter()
            preds = rec.op(model.predict, s)
            if preds is not None:
                rec.predict_ms.append((s.id, 1e3 * (time.perf_counter() - t0)))
                keep.append(preds)

    def train(self, rec, dataset, tcfg, mcfg, **kwargs):
        with Marks((Model, "forward"), (ad.Tensor, "backward"), (training.AdamW, "step"),
                   (nn, "save_checkpoint")) as marks:
            out = rec.op(training.train, dataset, tcfg, mcfg, **kwargs)
        if out is not None:
            rec.train.append((len(dataset) * tcfg.total_epochs, marks.pieces()))
        return out

    def evaluate(self, rec, model, dataset, sink, keep):
        with Marks((Timed, "predict"), (metrics, "trajectory_offroad")) as marks:
            rep = rec.op(metrics.evaluate, Timed(model, sink, keep), dataset)
        if rep is not None and sink is not None:
            rec.evaluate.append((len(dataset), marks.pieces()))
        return rep

    def settle(self, state: dict, fp: str):
        """Keep round 1's outputs for the checks; later rounds must repeat them."""
        self.rounds += 1
        if self.first is None:
            self.first = fp
            self.out = state
        elif fp != self.first:
            self.determinism_errors.append(f"round {self.rounds} differs from round 1")

    # -- checks shared by the workloads ----------------------------------------
    def check_outputs(self, model, scenes, preds_per_scene) -> list:
        cfg = model.cfg
        errs = []
        for s, preds in zip(scenes, preds_per_scene):
            errs += checks.check_predictions(s, preds, cfg.K, cfg.T_f)
            errs += checks.check_selected_lanes(s, preds, cfg.graph.seed_lane_radius,
                                                cfg.graph.reach_distance_cap)
        return errs

    def check_report(self, dataset, preds_per_scene, rep) -> list:
        if len(preds_per_scene) != len(dataset):
            return [f"evaluate predicted {len(preds_per_scene)} of {len(dataset)} scenes"]
        return checks.check_report(rep, checks.recompute_metrics(dataset, preds_per_scene))

    def check_geometry(self, model, scenes, n_moved: int) -> list:
        """Brute-force radius edge counts on every scene, and SE(2)
        invariance on n_moved of them, each moved at random."""
        errs = []
        for s in scenes:
            g = graph.build_graph(s, model.cfg.K, model.cfg.graph)
            errs += checks.check_edge_counts(
                s.id, {t: es.count for t, es in g.edges.items()},
                checks.radius_edge_counts(s, model.cfg.K, model.cfg.graph))
        rng = np.random.default_rng([self.seed, 99])
        for i in sorted(rng.choice(len(scenes), size=min(n_moved, len(scenes)), replace=False)):
            s = scenes[i]
            dx, dy = rng.uniform(-200.0, 200.0, size=2)
            th = float(rng.uniform(-np.pi, np.pi))
            errs += checks.check_se2(model.predict(s),
                                     model.predict(inputs.moved(s, dx, dy, th)), dx, dy, th)
        return errs

    def check_training(self, model, rows) -> list:
        return checks.check_finite(rows, {n: t.value for n, t in model.ps.params.items()})


def pinned(style, n, stream):
    return inputs.synth_scenes(style, n, inputs.PINNED_SEED, stream)


class TrainGoalA(Workload):
    """Pinned training run at the default size, then predict on seed scenes."""

    name = "train-goal-a"

    def tcfg(self):
        return TrainConfig(batch_size=4, total_epochs=1, warmup_epochs=0,
                           seed=inputs.PINNED_SEED)

    def setup(self, tmp: str):
        self.tmp = tmp
        self.train_set = inputs.json_round_trip(pinned("A", 8, "pin-train"),
                                                os.path.join(tmp, "train"))
        self.eval_set = inputs.json_round_trip(pinned("B", 8, "pin-heldout"),
                                               os.path.join(tmp, "eval"))
        self.held = inputs.json_round_trip(
            inputs.synth_scenes("B", 8, self.seed, "heldout"), os.path.join(tmp, "heldout"))
        self.inputs = {"pinned train (A)": self.train_set, "pinned evaluate (B)": self.eval_set,
                       "seed predict (B)": self.held}

    def round(self, rec):
        out = self.train(rec, self.train_set, self.tcfg(), ModelConfig(),
                         out_dir=os.path.join(self.tmp, "run"), augment=True)
        if out is None:
            return
        model, rows = out
        preds, eval_preds = [], []
        rep = self.evaluate(rec, model, self.eval_set, rec.predict_ms, eval_preds)
        self.predict_all(rec, model, self.held, preds)
        if rep is None:
            return
        rec.xstyle.append(rep.minFDE[6])
        self.settle({"model": model, "rows": rows, "preds": preds, "eval_preds": eval_preds,
                     "rep": rep}, fingerprint((rows, rep.to_dict()), preds, eval_preds))

    def checks(self) -> list:
        o = self.out
        m = o["model"]
        errs = self.check_outputs(m, self.held, o["preds"])
        errs += self.check_outputs(m, self.eval_set, o["eval_preds"])
        errs += self.check_report(self.eval_set, o["eval_preds"], o["rep"])
        errs += self.check_geometry(m, self.held, 2)
        errs += self.check_training(m, o["rows"])
        errs += self.check_gradient(m)
        return errs

    def check_gradient(self, m, n_coords: int = 4) -> list:
        """Tape gradient of the training loss on a seed scene against
        central differences on a few coordinates, with dropout off."""
        tc = self.tcfg()
        for s in self.held:  # smallest first
            m.ps.zero_grad()
            loss, _, _ = training.compute_scene_loss(m, m.forward(s), s, tc)
            if loss is not None:
                break
        else:
            return ["no held-out scene has a supervised agent"]
        loss.backward()
        f0 = float(loss.value)

        def f():
            with ad.no_grad():
                return float(training.compute_scene_loss(m, m.forward(s), s, tc)[0].value)

        rng = np.random.default_rng([self.seed, 7])
        live = [n for n, t in sorted(m.ps.params.items())
                if t.grad is not None and np.abs(t.grad).max() > 0]
        coords = []
        for name in rng.choice(live, size=min(n_coords, len(live)), replace=False):
            t = m.ps.params[name]
            cand = rng.choice(t.value.size, size=min(64, t.value.size), replace=False)
            j = int(cand[np.argmax(np.abs(t.grad.reshape(-1)[cand]))])
            coords.append((f"{name}[{j}]", t.value, j, float(t.grad.reshape(-1)[j])))
        return checks.check_gradient(f, coords, f0)


class DenseScenes(Workload):
    """Pinned dense training, the model saved and reloaded, its evaluation on
    pinned dense scenes and predict on seed dense scenes."""

    name = "dense-scenes"

    def setup(self, tmp: str):
        self.tmp = tmp
        pin = inputs.PINNED_SEED
        self.train_set = inputs.json_round_trip(inputs.dense_scenes("A", 2, pin, "pin-dense-a"),
                                                os.path.join(tmp, "train"))
        self.eval_set = inputs.json_round_trip(inputs.dense_scenes("B", 2, pin, "pin-dense-b"),
                                               os.path.join(tmp, "eval"))
        self.seeded = inputs.json_round_trip(
            inputs.dense_scenes("A", 3, self.seed, "dense-a")
            + inputs.dense_scenes("B", 3, self.seed, "dense-b"), os.path.join(tmp, "seeded"))
        self.inputs = {"pinned dense train (A)": self.train_set,
                       "pinned dense evaluate (B)": self.eval_set,
                       "seed dense predict (A, B)": self.seeded}

    def round(self, rec):
        tcfg = TrainConfig(batch_size=2, total_epochs=2, warmup_epochs=1,
                           seed=inputs.PINNED_SEED)
        out = self.train(rec, self.train_set, tcfg, ModelConfig(d_h=32), augment=False)
        if out is None:
            return
        trained, rows = out
        path = os.path.join(self.tmp, "model.ckpt")
        failed = rec.failed
        rec.op(training.save_model, trained, path)
        model = rec.op(training.load_model, path) if rec.failed == failed else None
        if model is None:
            return
        preds, eval_preds = [], []
        self.predict_all(rec, model, self.seeded, preds)
        rep = self.evaluate(rec, model, self.eval_set, rec.predict_ms, eval_preds)
        if rep is None:
            return
        rec.xstyle.append(rep.minFDE[6])
        self.settle({"model": model, "rows": rows, "preds": preds, "eval_preds": eval_preds,
                     "rep": rep}, fingerprint((rows, rep.to_dict()), preds, eval_preds))

    def checks(self) -> list:
        o = self.out
        m = o["model"]
        errs = self.check_outputs(m, self.seeded, o["preds"])
        errs += self.check_outputs(m, self.eval_set, o["eval_preds"])
        errs += self.check_report(self.eval_set, o["eval_preds"], o["rep"])
        errs += self.check_geometry(m, self.seeded + self.eval_set, 2)
        errs += self.check_training(m, o["rows"])
        return errs


WORKLOADS = {w.name: w for w in (TrainGoalA, DenseScenes)}
