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
from dataclasses import replace

from . import metrics as metrics_mod
from . import synthgen
from .errors import ConfigError, DataError, GoalGraphError
from .files import read_json, write_csv, write_json, written
from .model import ModelConfig
from .scene import load_dataset, load_scene
from .svg import render_scene_svg
from .training import TrainConfig, load_model, train

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC = 0, 2, 3, 4


def _git_describe() -> str:
    """The package's own commit, whatever the working directory."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=10,
                             cwd=os.path.dirname(os.path.abspath(__file__)))
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
    write_json(os.path.join(out_dir, "run_manifest.json"), manifest, indent=1)


def _seed_override(seed: int) -> int:
    """GOALGRAPH_SEED when set, else `seed`; a seed is an integer >= 0."""
    env = os.environ.get("GOALGRAPH_SEED")
    value = env or str(seed)
    if not (value.isascii() and value.isdigit()):
        raise ConfigError(f"{'GOALGRAPH_SEED' if env else 'seed'} must be an integer >= 0, "
                          f"got {value!r}")
    return int(value)


def _load_json(path: str) -> dict:
    d = read_json(path)
    if not isinstance(d, dict):
        raise ConfigError(f"{path} must hold a JSON object, not {type(d).__name__}")
    return d


def _check_out_dirs(*paths) -> None:
    """Each given output path's directory exists, checked before any work so
    that a bad path fails fast and leaves no file behind."""
    for path in filter(None, paths):
        where = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(where):
            raise DataError(f"cannot write {path}: {where} is not a directory")


def _model_config(mdict: dict, dataset: list) -> ModelConfig:
    """The --model-config settings; the future horizon defaults to the dataset's."""
    return ModelConfig.from_dict({"T_f": dataset[0].t_future, **mdict})


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
    mcfg = _model_config(mdict, dataset)
    tcfg.seed = _seed_override(tcfg.seed)
    model, _ = train(dataset, tcfg, mcfg, out_dir=args.out,
                     augment=not args.no_augment, log_every=args.log_every)
    ckpt = os.path.join(args.out, "model.ckpt")
    write_manifest(args.out, "train",
                   {"train": tcfg.to_dict(), "model": model.cfg.to_dict(),
                    "data": args.data},
                   tcfg.seed, [ckpt, os.path.join(args.out, "loss_log.csv")], t0)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    t0 = time.time()
    _check_out_dirs(args.out)
    model = load_model(args.model)
    dataset = load_dataset(args.data)
    rep = metrics_mod.evaluate(model, dataset, ks=tuple(args.k))
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
    _check_out_dirs(args.out, args.svg)
    model = load_model(args.model)
    scene = load_scene(args.scene)
    preds = model.predict(scene)
    lines = "".join(json.dumps({
        "scene_id": scene.id, "agent_id": p.agent_id, "mode": p.mode, "score": p.score,
        "goal": None if p.goal_scene is None else p.goal_scene.tolist(),
        "trajectory": p.traj_scene.tolist()}, sort_keys=True) + "\n" for p in preds)
    out_jsonl = args.out or (os.path.splitext(args.svg)[0] + ".jsonl" if args.svg else None)
    outputs = []
    if out_jsonl:
        with written(out_jsonl) as f:
            f.write(lines)
        outputs.append(out_jsonl)
    else:
        sys.stdout.write(lines)
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
    if "variant" in mdict:
        raise ConfigError(f"{args.model_config}: compare trains both variants; "
                          f"remove the key 'variant'")
    tcfgs = [replace(TrainConfig.from_dict(tdict), seed=seed) for seed in args.seeds]
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "compare.csv")
    cols = ("variant", "seed", "eval_set", *(f"{m}_6" for m in metrics_mod.METRICS), "ORR")
    rows = []
    for variant in ("goal", "baseline"):
        mcfg = _model_config({**mdict, "variant": variant}, data_a)
        for tcfg in tcfgs:
            seed = tcfg.seed
            run_dir = os.path.join(args.out, f"{variant}_seed{seed}")
            try:
                model, _ = train(data_a, tcfg, mcfg, out_dir=run_dir,
                                 augment=not args.no_augment, log_every=args.log_every)
            except GoalGraphError as e:
                write_csv(csv_path, cols, rows)
                raise type(e)(f"sub-run {variant}/seed{seed} failed "
                              f"(partial results written): {e}") from e
            cells = {}
            for name, data in (("A", data_a), ("B", data_b)):
                r = metrics_mod.evaluate(model, data, ks=(1, 6))
                cells[name] = [*(getattr(r, m)[6] for m in metrics_mod.METRICS), r.ORR]
                rows.append([variant, seed, name, *cells[name]])
            rows.append([variant, seed, "degradation",
                         *map(_rel_change, cells["A"], cells["B"])])
    write_csv(csv_path, cols, rows)
    write_manifest(args.out, "compare",
                   {"data_a": args.data_a, "data_b": args.data_b,
                    "seeds": list(args.seeds), "train": tdict, "model": mdict},
                   args.seeds[0], [csv_path], t0)
    return EXIT_OK


def _rel_change(a: float, b: float) -> float:
    return (b - a) / a if a else (0.0 if b == 0 else float("inf"))


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
    except OSError as e:  # an output that cannot be written or a directory not made
        print(f"error: data: cannot write {e.filename}: {e.strerror}", file=sys.stderr)
        return EXIT_DATA
    except GoalGraphError as e:
        print(f"error: numeric: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
