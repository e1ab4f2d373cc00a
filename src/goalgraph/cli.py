"""Command-line interface: generate, train, evaluate, predict, compare.

Exit codes: 0 ok, 2 usage, 3 data error, 4 numeric failure.
GOALGRAPH_SEED overrides any configured seed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import numpy as np

from . import metrics as metrics_mod
from . import synthgen
from .errors import ConfigError, DataError, GoalGraphError, NumericError
from .model import ModelConfig
from .scene import load_dataset, load_scene
from .svg import render_scene_svg
from .training import TrainConfig, load_model, train

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC = 0, 2, 3, 4


def _git_describe() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except Exception:
        return "unknown"


def write_manifest(out_dir: str, command: str, config: dict, seed: int,
                   outputs: list, t0: float) -> None:
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "git_describe": _git_describe(),
        "outputs": sorted(outputs),
        "duration_s": round(time.time() - t0, 3),
    }
    path = os.path.join(out_dir, "run_manifest.json")
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(manifest, f, sort_keys=True, indent=1)
        f.write("\n")
    os.replace(tmp, path)


def _seed_override(seed: int) -> int:
    env = os.environ.get("GOALGRAPH_SEED")
    return int(env) if env else seed


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except OSError as e:
        raise DataError(f"cannot read config file {path}: {e.strerror}") from e
    except json.JSONDecodeError as e:
        raise DataError(f"{path}: parse error at line {e.lineno}: {e.msg}") from e


# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    t0 = time.time()
    seed = _seed_override(args.seed)
    os.makedirs(args.out, exist_ok=True)
    synthgen.gen_dataset(args.style, args.n, seed, args.out,
                         t_history=args.t_history, t_future=args.t_future, dt=args.dt)
    write_manifest(args.out, "generate",
                   {"style": args.style, "n": args.n, "t_history": args.t_history,
                    "t_future": args.t_future, "dt": args.dt},
                   seed, [os.path.join(args.out, "manifest.json")], t0)
    return EXIT_OK


def cmd_train(args) -> int:
    t0 = time.time()
    dataset = load_dataset(args.data)
    tdict = _load_json(args.train_config) if args.train_config else {}
    mdict = _load_json(args.model_config) if args.model_config else {}
    tcfg = TrainConfig.from_dict(tdict)
    mdict.setdefault("T_h", dataset[0].t_history)
    mdict.setdefault("T_f", dataset[0].t_future)
    mdict["variant"] = args.variant
    mcfg = ModelConfig.from_dict(mdict)
    tcfg.seed = _seed_override(tcfg.seed)
    train(dataset, tcfg, mcfg, out_dir=args.out,
          augment=not args.no_augment, log_every=args.log_every)
    ckpt = os.path.join(args.out, "model.ckpt")
    write_manifest(args.out, "train",
                   {"train": tcfg.to_dict(), "model": mcfg.to_dict(),
                    "data": args.data, "variant": args.variant},
                   tcfg.seed, [ckpt, os.path.join(args.out, "loss_log.csv")], t0)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    t0 = time.time()
    model = load_model(args.model)
    dataset = load_dataset(args.data)
    rep = metrics_mod.evaluate(model, dataset, ks=tuple(args.k),
                               brier_literal=model.cfg.brier_literal)
    csv_path = args.out
    json_path = os.path.splitext(args.out)[0] + ".json"
    metrics_mod.write_report(rep, csv_path, json_path,
                             dataset_name=os.path.basename(args.data.rstrip("/")),
                             variant=model.cfg.variant)
    out_dir = os.path.dirname(os.path.abspath(args.out))
    write_manifest(out_dir, "evaluate",
                   {"model": args.model, "data": args.data, "k": list(args.k)},
                   model.ps.seed, [csv_path, json_path], t0)
    print(json.dumps(rep.to_dict(), sort_keys=True))
    return EXIT_OK


def cmd_predict(args) -> int:
    t0 = time.time()
    model = load_model(args.model)
    scene = load_scene(args.scene)
    preds = model.predict(scene)
    records = []
    for p in preds:
        records.append({
            "scene_id": scene.id, "agent_id": p.agent_id, "mode": p.mode,
            "score": p.score,
            "goal": None if p.goal_scene is None else p.goal_scene.tolist(),
            "trajectory": p.traj_scene.tolist(),
        })
    out_jsonl = args.out or (os.path.splitext(args.svg)[0] + ".jsonl" if args.svg else None)
    outputs = []
    if out_jsonl:
        with open(out_jsonl, "w", encoding="utf-8") as f:
            for r in records:
                f.write(json.dumps(r, sort_keys=True) + "\n")
        outputs.append(out_jsonl)
    else:
        for r in records:
            print(json.dumps(r, sort_keys=True))
    if args.svg:
        render_scene_svg(scene, preds, args.svg)
        outputs.append(args.svg)
    if outputs:
        write_manifest(os.path.dirname(os.path.abspath(outputs[0])), "predict",
                       {"model": args.model, "scene": args.scene}, model.ps.seed,
                       outputs, t0)
    return EXIT_OK


def cmd_compare(args) -> int:
    """Train goal and baseline on dataset A per seed; evaluate on A and B;
    emit absolute metrics plus relative degradation."""
    t0 = time.time()
    data_a = load_dataset(args.data_a)
    data_b = load_dataset(args.data_b)
    tdict = _load_json(args.train_config) if args.train_config else {}
    mdict = _load_json(args.model_config) if args.model_config else {}
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for variant in ("goal", "baseline"):
        for seed in args.seeds:
            tcfg = TrainConfig.from_dict(tdict)
            tcfg.seed = seed
            md = dict(mdict)
            md.setdefault("T_h", data_a[0].t_history)
            md.setdefault("T_f", data_a[0].t_future)
            md["variant"] = variant
            mcfg = ModelConfig.from_dict(md)
            run_dir = os.path.join(args.out, f"{variant}_seed{seed}")
            try:
                model, _ = train(data_a, tcfg, mcfg, out_dir=run_dir,
                                 augment=not args.no_augment, log_every=args.log_every)
            except GoalGraphError as e:
                _write_compare_csv(rows, os.path.join(args.out, "compare.csv"))
                raise NumericError(f"sub-run {variant}/seed{seed} failed "
                                   f"(partial results written): {e}") from e
            reps = {}
            for name, data in (("A", data_a), ("B", data_b)):
                reps[name] = metrics_mod.evaluate(model, data, ks=(1, 6))
            for name in ("A", "B"):
                r = reps[name]
                rows.append({"variant": variant, "seed": seed, "eval_set": name,
                             "minADE_6": r.minADE[6], "minFDE_6": r.minFDE[6],
                             "b_minFDE_6": r.b_minFDE[6], "minMR_6": r.minMR[6],
                             "missRateTopK_2_6": r.missRateTopK_2[6], "ORR": r.ORR})
            ra, rb = reps["A"], reps["B"]
            rows.append({"variant": variant, "seed": seed, "eval_set": "degradation",
                         **{k: _rel_change(getattr(ra, a)[6] if a else ra.ORR,
                                           getattr(rb, a)[6] if a else rb.ORR)
                            for k, a in (("minADE_6", "minADE"), ("minFDE_6", "minFDE"),
                                         ("b_minFDE_6", "b_minFDE"), ("minMR_6", "minMR"),
                                         ("missRateTopK_2_6", "missRateTopK_2"),
                                         ("ORR", None))}})
    csv_path = os.path.join(args.out, "compare.csv")
    _write_compare_csv(rows, csv_path)
    write_manifest(args.out, "compare",
                   {"data_a": args.data_a, "data_b": args.data_b,
                    "seeds": list(args.seeds), "train": tdict, "model": mdict},
                   args.seeds[0], [csv_path], t0)
    return EXIT_OK


def _rel_change(a: float, b: float) -> float:
    return (b - a) / a if a else (0.0 if b == 0 else float("inf"))


def _write_compare_csv(rows, path):
    cols = ("variant", "seed", "eval_set", "minADE_6", "minFDE_6", "b_minFDE_6",
            "minMR_6", "missRateTopK_2_6", "ORR")
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(cols) + "\n")
        for r in rows:
            f.write(",".join(_cell(r[c]) for c in cols) + "\n")


def _cell(v):
    return f"{v:.10g}" if isinstance(v, float) else str(v)


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="goalgraph",
                                description="Goal-conditioned trajectory prediction engine")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate synthetic scenario files")
    g.add_argument("--style", required=True, choices=sorted(synthgen.STYLES))
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--t-history", type=int, default=synthgen.DEFAULT_T_H)
    g.add_argument("--t-future", type=int, default=synthgen.DEFAULT_T_F)
    g.add_argument("--dt", type=float, default=synthgen.DEFAULT_DT)
    g.set_defaults(func=cmd_generate)

    t = sub.add_parser("train", help="train a model")
    t.add_argument("--data", required=True)
    t.add_argument("--model-config", default=None)
    t.add_argument("--train-config", default=None)
    t.add_argument("--variant", choices=("goal", "baseline"), default="goal")
    t.add_argument("--out", required=True)
    t.add_argument("--no-augment", action="store_true")
    t.add_argument("--log-every", type=int, default=0)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("evaluate", help="evaluate a checkpoint on a dataset")
    e.add_argument("--model", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--k", type=int, nargs="+", default=(1, 6))
    e.set_defaults(func=cmd_evaluate)

    pr = sub.add_parser("predict", help="predict one scene, dump JSONL and SVG")
    pr.add_argument("--model", required=True)
    pr.add_argument("--scene", required=True)
    pr.add_argument("--svg", default=None)
    pr.add_argument("--out", default=None)
    pr.set_defaults(func=cmd_predict)

    c = sub.add_parser("compare", help="goal-vs-baseline cross-style comparison")
    c.add_argument("--data-a", required=True)
    c.add_argument("--data-b", required=True)
    c.add_argument("--out", required=True)
    c.add_argument("--seeds", type=int, nargs="+", default=(0, 1, 2))
    c.add_argument("--model-config", default=None)
    c.add_argument("--train-config", default=None)
    c.add_argument("--no-augment", action="store_true")
    c.add_argument("--log-every", type=int, default=0)
    c.set_defaults(func=cmd_compare)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        if getattr(args, "n", None) is not None and args.n <= 0:
            raise ConfigError("--n must be a positive integer")
        return args.func(args)
    except (ConfigError,) as e:
        print(f"error: usage: {e}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as e:
        print(f"error: data: {e}", file=sys.stderr)
        return EXIT_DATA
    except (NumericError, GoalGraphError) as e:
        print(f"error: numeric: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
