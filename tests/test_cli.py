import json
import os
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from conftest import MALFORMED, write_malformed_scene

MCFG = {"d_h": 32, "heads": 4, "K": 3, "ffn_hidden": 64}
TCFG = {"total_epochs": 2, "warmup_epochs": 1, "batch_size": 4, "seed": 3}


def run_cli(*args, env=None, cwd=None):
    e = dict(os.environ)
    if env:
        e.update(env)
    return subprocess.run([sys.executable, "-m", "goalgraph.cli", *args],
                          capture_output=True, text=True, env=e, cwd=cwd)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    (d / "mcfg.json").write_text(json.dumps(MCFG))
    (d / "tcfg.json").write_text(json.dumps(TCFG))
    r = run_cli("generate", "--style", "A", "--n", "4", "--seed", "7",
                "--out", str(d / "data"))
    assert r.returncode == 0, r.stderr
    r = run_cli("train", "--data", str(d / "data"),
                "--model-config", str(d / "mcfg.json"),
                "--train-config", str(d / "tcfg.json"),
                "--out", str(d / "run"), "--no-augment")
    assert r.returncode == 0, r.stderr
    return d


def test_generate_outputs(workdir):
    files = sorted(os.listdir(workdir / "data"))
    assert sum(f.startswith("scene_") for f in files) == 4
    assert "manifest.json" in files and "run_manifest.json" in files


def test_generate_byte_identical_rerun(workdir, tmp_path):
    out2 = str(tmp_path / "data2")
    r = run_cli("generate", "--style", "A", "--n", "4", "--seed", "7", "--out", out2)
    assert r.returncode == 0
    for f in sorted(os.listdir(workdir / "data")):
        if f == "run_manifest.json":
            continue  # contains wall-clock duration
        b1 = (workdir / "data" / f).read_bytes()
        b2 = open(os.path.join(out2, f), "rb").read()
        assert b1 == b2, f


def test_generate_n_zero_usage_error(tmp_path):
    r = run_cli("generate", "--style", "A", "--n", "0", "--seed", "1",
                "--out", str(tmp_path / "x"))
    assert r.returncode == 2
    assert r.stderr.strip()


def test_generate_unknown_style(tmp_path):
    r = run_cli("generate", "--style", "Z", "--n", "1", "--seed", "1",
                "--out", str(tmp_path / "x"))
    assert r.returncode == 2


def test_train_outputs(workdir):
    out = workdir / "run"
    for f in ("model.ckpt", "model.ckpt.config.json", "loss_log.csv",
              "ckpt_latest.ckpt", "run_manifest.json"):
        assert (out / f).exists(), f


def test_train_missing_config_file(workdir, tmp_path):
    r = run_cli("train", "--data", str(workdir / "data"),
                "--model-config", str(tmp_path / "nope.json"),
                "--out", str(tmp_path / "o"))
    assert r.returncode != 0
    assert "nope.json" in r.stderr


@pytest.mark.parametrize("command", ["train", "compare"])
@pytest.mark.parametrize("flag,cfg,bad", [
    ("--model-config", {"d_hh": 64}, "d_hh"),
    ("--model-config", {"graph": {"radius": 3}}, "graph.radius"),
    ("--model-config", {"graph": 3}, "'graph' must be a JSON object"),
    ("--model-config", [1], "must hold a JSON object"),
    ("--model-config", {"d_h": "64"}, "wrong type"),
    ("--train-config", {"batch_size": "4"}, "wrong type"),
    ("--train-config", "4", "must hold a JSON object"),
    ("--model-config", {"graph": {"social_radius": "5"}}, "social_radius must be a real number"),
    ("--model-config", {"graph": {"max_successor_gap": True}},
     "max_successor_gap must be an integer"),
    ("--model-config", {"K": True}, "K must be an integer"),
    ("--model-config", {"T_f": 30.5}, "T_f must be an integer"),
    ("--model-config", {"d_h": 16.0, "heads": 4}, "d_h must be an integer"),
    ("--model-config", {"dropout": "0.1"}, "dropout must be a real number"),
    ("--model-config", {"T_h": 10, "brier_literal": 1},
     "unknown ModelConfig keys: ['T_h', 'brier_literal']"),
    ("--model-config", {"dropout": 1.0}, "dropout must be in [0, 1), got 1.0"),
    ("--model-config", {"dropout": -0.1}, "dropout must be in [0, 1), got -0.1"),
    ("--train-config", {"total_epochs": 2.5}, "total_epochs must be an integer"),
    ("--train-config", {"batch_size": True}, "batch_size must be an integer"),
    ("--train-config", {"seed": 1.5}, "seed must be an integer"),
    ("--train-config", {"seed": -1}, "seed must be >= 0, got -1"),
    ("--train-config", {"dropout": 0.1}, "unknown TrainConfig keys: ['dropout']"),
], ids=["top-level", "graph", "graph-not-object", "not-object", "wrong-type",
        "train-wrong-type", "train-not-object", "graph-wrong-type", "graph-bool",
        "int-bool", "int-float", "int-float-divisible", "real-str", "removed-keys",
        "dropout-one", "dropout-negative", "train-int-float", "train-int-bool",
        "train-seed-float", "train-seed-negative", "train-dropout"])
def test_unknown_model_config_key(workdir, tmp_path, command, flag, cfg, bad):
    """Config files that are valid JSON but not a valid config exit 2, with no traceback.
    Dropout is a model config key only; T_h and brier_literal are keys no longer."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    data = str(workdir / "data")
    where = ["--data", data] if command == "train" else ["--data-a", data, "--data-b", data]
    r = run_cli(command, *where, flag, str(path), "--out", str(tmp_path / "o"))
    assert r.returncode == 2, r.stderr
    assert bad in r.stderr and "Traceback" not in r.stderr


# {data}, {ckpt}, {scene} and {tmp} stand for the fixture's data, checkpoint
# and first scene file and the test's temporary directory
BAD_PATH_PROBES = {
    "train-model-config-not-utf8": (
        ["train", "--data", "{data}", "--model-config", "{tmp}/latin1.json",
         "--out", "{tmp}/o"], "latin1.json"),
    "compare-train-config-not-utf8": (
        ["compare", "--data-a", "{data}", "--data-b", "{data}",
         "--train-config", "{tmp}/latin1.json", "--out", "{tmp}/o"], "latin1.json"),
    "evaluate-out-missing-dir": (
        ["evaluate", "--model", "{ckpt}", "--data", "{data}", "--out", "{tmp}/no/r.csv"],
        "no/r.csv"),
    "predict-out-missing-dir": (
        ["predict", "--model", "{ckpt}", "--scene", "{scene}", "--out", "{tmp}/no/p.jsonl"],
        "no/p.jsonl"),
    "predict-svg-missing-dir": (
        ["predict", "--model", "{ckpt}", "--scene", "{scene}", "--out", "{tmp}/p.jsonl",
         "--svg", "{tmp}/no/s.svg"], "no/s.svg"),
    "train-out-is-a-file": (
        ["train", "--data", "{data}", "--out", "{tmp}/file"], "file"),
    "generate-out-under-a-file": (
        ["generate", "--style", "A", "--n", "1", "--out", "{tmp}/file/data"], "file/data"),
}


@pytest.mark.parametrize("probe", sorted(BAD_PATH_PROBES))
def test_bad_path_exits_3_and_names_the_file(workdir, tmp_path, probe):
    """A config that is not UTF-8, an output in a directory that does not
    exist and an --out that is or lies under a file each exit 3 with one
    stderr line that names the file; each ended in a traceback and exit 1."""
    (tmp_path / "latin1.json").write_bytes(b'{"variant": "gr\xfcn"}')
    (tmp_path / "file").write_text("")
    args, name = BAD_PATH_PROBES[probe]
    paths = {"data": workdir / "data", "ckpt": workdir / "run" / "model.ckpt",
             "scene": workdir / "data" / "scene_00000.json", "tmp": tmp_path}
    r = run_cli(*(a.format(**paths) for a in args))
    assert r.returncode == 3, r.stderr
    assert "Traceback" not in r.stderr and len(r.stderr.splitlines()) == 1, r.stderr
    assert name in r.stderr


def test_predict_bad_svg_path_writes_no_file(workdir, tmp_path):
    """predict checks the directory of every output before it loads the
    model: a bad --svg path leaves no --out file and no manifest behind."""
    r = run_cli("predict", "--model", str(workdir / "run" / "model.ckpt"),
                "--scene", str(workdir / "data" / "scene_00000.json"),
                "--out", str(tmp_path / "p.jsonl"), "--svg", str(tmp_path / "no" / "s.svg"))
    assert r.returncode == 3, r.stderr
    assert "no/s.svg" in r.stderr and "Traceback" not in r.stderr
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("cfg,bad", [
    ({"heads": 0}, "heads must be >= 1, got 0"),
    ({"d_h": 0, "heads": 4}, "d_h must be >= 1, got 0"),
    ({"heads": -4, "d_h": 16}, "heads must be >= 1, got -4"),
    ({"ffn_hidden": 0}, "ffn_hidden must be >= 1, got 0"),
], ids=["heads-zero", "d_h-zero", "heads-negative", "ffn_hidden-zero"])
def test_train_model_size_below_one(workdir, tmp_path, cfg, bad):
    """A model size below 1 exits 2 with one stderr line: the first three
    ended in a ZeroDivisionError or numpy ValueError traceback, and the
    last trained."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    r = run_cli("train", "--data", str(workdir / "data"), "--model-config", str(path),
                "--out", str(tmp_path / "o"))
    assert r.returncode == 2, r.stderr
    assert len(r.stderr.splitlines()) == 1 and bad in r.stderr, r.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag,cfg,bad", [
    ("--train-config", {"aug_drop_frac": -0.5}, "aug_drop_frac must be in [0, 1], got -0.5"),
    ("--train-config", {"aug_scale_min": 1.5, "aug_scale_max": 0.5},
     "aug_scale_min must be <= aug_scale_max, got 1.5 > 0.5"),
    ("--train-config", {"aug_scale_min": 0, "aug_scale_max": 0},
     "aug_scale_min must be positive, got 0"),
    ("--train-config", {"beta2": 1.0}, "beta2 must be in [0, 1), got 1.0"),
    ("--train-config", {"beta1": -0.1}, "beta1 must be in [0, 1), got -0.1"),
    ("--train-config", {"adam_eps": -1}, "adam_eps must be positive, got -1"),
    ("--train-config", {"weight_decay": -1e-4}, "weight_decay must be >= 0, got -0.0001"),
    ("--train-config", {"warmup_epochs": -1}, "warmup_epochs must be >= 0, got -1"),
    ("--model-config", {"graph": {"social_radius": -1.0}},
     "social_radius must be >= 0, got -1.0"),
    ("--model-config", {"graph": {"reach_distance_cap": -5}},
     "reach_distance_cap must be >= 0, got -5"),
    ("--model-config", {"graph": {"max_successor_gap": 0}},
     "max_successor_gap must be >= 1, got 0"),
], ids=["aug_drop_frac-negative", "aug_scale-reversed", "aug_scale-zero", "beta2-one",
        "beta1-negative", "adam_eps-negative", "weight_decay-negative",
        "warmup_epochs-negative", "graph-radius-negative", "graph-cap-negative", "graph-successor-gap-zero"])
def test_train_config_out_of_range(workdir, tmp_path, flag, cfg, bad):
    """A config value out of its range exits 2 with one stderr line that
    names the key, and trains nothing. The first two ended in a numpy
    ValueError traceback, aug_scale 0 exited 3 blaming a lane, beta2 1 exited
    4 on a NaN loss, and a negative adam_eps or warmup_epochs (which starts
    the lr schedule mid-decay) or a graph radius, cap or successor gap out
    of range trained without complaint."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    r = run_cli("train", "--data", str(workdir / "data"), flag, str(path),
                "--out", str(tmp_path / "o"))
    assert r.returncode == 2, r.stderr
    assert len(r.stderr.splitlines()) == 1 and bad in r.stderr, r.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_run_manifest_records_the_package_commit(tmp_path):
    """git_describe names the commit of the package, not that of a git repo
    the run is started in."""
    import goalgraph
    pkg = os.path.dirname(os.path.abspath(goalgraph.__file__))

    def describe(cwd):
        return subprocess.run(["git", "describe", "--always", "--dirty"], cwd=cwd,
                              capture_output=True, text=True).stdout.strip() or "unknown"

    other = tmp_path / "other"
    other.mkdir()
    for cmd in (["init", "-q"], ["-c", "user.name=t", "-c", "user.email=t@t", "commit",
                                 "-q", "--allow-empty", "-m", "other"]):
        subprocess.run(["git", *cmd], cwd=other, check=True, capture_output=True)
    r = run_cli("generate", "--style", "A", "--n", "1", "--out", "data", cwd=other,
                env={"PYTHONPATH": os.path.dirname(pkg)})
    assert r.returncode == 0, r.stderr
    recorded = json.loads((other / "data" / "run_manifest.json").read_text())["git_describe"]
    assert recorded == describe(pkg) and recorded != describe(other)


def test_train_empty_data_dir(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    r = run_cli("train", "--data", str(empty), "--out", str(tmp_path / "o"))
    assert r.returncode == 3


def test_train_determinism(workdir, tmp_path):
    out2 = str(tmp_path / "run2")
    r = run_cli("train", "--data", str(workdir / "data"),
                "--model-config", str(workdir / "mcfg.json"),
                "--train-config", str(workdir / "tcfg.json"),
                "--out", out2, "--no-augment")
    assert r.returncode == 0, r.stderr
    b1 = (workdir / "run" / "model.ckpt").read_bytes()
    b2 = open(os.path.join(out2, "model.ckpt"), "rb").read()
    assert b1 == b2
    assert (workdir / "run" / "loss_log.csv").read_bytes() == \
        open(os.path.join(out2, "loss_log.csv"), "rb").read()


def test_evaluate(workdir, tmp_path):
    out = str(tmp_path / "report.csv")
    r = run_cli("evaluate", "--model", str(workdir / "run" / "model.ckpt"),
                "--data", str(workdir / "data"), "--out", out, "--k", "1", "3")
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout.strip().splitlines()[-1])
    assert set(rep) >= {"minADE", "minFDE", "b_minFDE", "minMR",
                        "missRateTopK_2", "ORR"}
    for k in ("1", "3"):
        assert rep["minFDE"][k] >= 0
    assert os.path.exists(out)
    assert os.path.exists(str(tmp_path / "report.json"))


@pytest.mark.parametrize("k", ["0", "-1"])
def test_evaluate_k_below_one(workdir, tmp_path, k):
    """--k 0 used to end in a traceback and --k -1 in a report over K - 1 modes."""
    out = tmp_path / "report.csv"
    r = run_cli("evaluate", "--model", str(workdir / "run" / "model.ckpt"),
                "--data", str(workdir / "data"), "--out", str(out), "--k", "1", k)
    assert r.returncode == 2, r.stderr
    assert "k must be >= 1" in r.stderr and "Traceback" not in r.stderr
    assert not out.exists()


def test_evaluate_latest_checkpoint(workdir, tmp_path):
    r = run_cli("evaluate", "--model", str(workdir / "run" / "ckpt_latest.ckpt"),
                "--data", str(workdir / "data"), "--out", str(tmp_path / "report.csv"))
    assert r.returncode == 0, r.stderr


def test_evaluate_truncated_checkpoint(workdir, tmp_path):
    blob = (workdir / "run" / "model.ckpt").read_bytes()
    bad = tmp_path / "cut.ckpt"
    bad.write_bytes(blob[:len(blob) // 2])
    (tmp_path / "cut.ckpt.config.json").write_bytes(
        (workdir / "run" / "model.ckpt.config.json").read_bytes())
    r = run_cli("evaluate", "--model", str(bad), "--data", str(workdir / "data"),
                "--out", str(tmp_path / "report.csv"))
    assert r.returncode == 3, r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("sidecar", [None, '{"d_h": 32, "no_such_field": 1}'],
                         ids=["missing", "unknown-field"])
def test_evaluate_checkpoint_without_config(workdir, tmp_path, sidecar):
    bare = tmp_path / "bare.ckpt"
    bare.write_bytes((workdir / "run" / "model.ckpt").read_bytes())
    if sidecar is not None:
        (tmp_path / "bare.ckpt.config.json").write_text(sidecar)
    r = run_cli("evaluate", "--model", str(bare), "--data", str(workdir / "data"),
                "--out", str(tmp_path / "report.csv"))
    assert r.returncode == 3, r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("key", ["T_h", "brier_literal"])
def test_evaluate_sidecar_with_removed_key(workdir, tmp_path, key):
    """A sidecar that still holds a key ModelConfig no longer has exits 3 and names it."""
    ckpt = tmp_path / "old.ckpt"
    ckpt.write_bytes((workdir / "run" / "model.ckpt").read_bytes())
    cfg = json.loads((workdir / "run" / "model.ckpt.config.json").read_text())
    (tmp_path / "old.ckpt.config.json").write_text(json.dumps({**cfg, key: 0}))
    r = run_cli("evaluate", "--model", str(ckpt), "--data", str(workdir / "data"),
                "--out", str(tmp_path / "report.csv"))
    assert r.returncode == 3, r.stderr
    assert f"'{key}'" in r.stderr and "Traceback" not in r.stderr


def test_model_config_dropout_is_trained_and_recorded(workdir, tmp_path):
    """A model config's dropout is the rate the model trains with, and the
    one its sidecar and the run manifest record."""
    (tmp_path / "mcfg.json").write_text(json.dumps({**MCFG, "dropout": 0.3}))
    out = tmp_path / "run"
    r = run_cli("train", "--data", str(workdir / "data"),
                "--model-config", str(tmp_path / "mcfg.json"),
                "--train-config", str(workdir / "tcfg.json"), "--out", str(out), "--no-augment")
    assert r.returncode == 0, r.stderr
    sidecar = json.loads((out / "model.ckpt.config.json").read_text())
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert sidecar["dropout"] == manifest["config"]["model"]["dropout"] == 0.3
    assert (out / "model.ckpt").read_bytes() != (workdir / "run" / "model.ckpt").read_bytes()


def test_model_config_variant_is_trained_and_recorded(workdir, tmp_path):
    """A model config's variant is the one train builds and records: there
    is no second knob that overrides it."""
    (tmp_path / "mcfg.json").write_text(json.dumps({**MCFG, "variant": "baseline"}))
    out = tmp_path / "run"
    r = run_cli("train", "--data", str(workdir / "data"),
                "--model-config", str(tmp_path / "mcfg.json"),
                "--train-config", str(workdir / "tcfg.json"), "--out", str(out), "--no-augment")
    assert r.returncode == 0, r.stderr
    sidecar = json.loads((out / "model.ckpt.config.json").read_text())
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert sidecar["variant"] == manifest["config"]["model"]["variant"] == "baseline"
    assert "variant" not in manifest["config"]


def test_compare_rejects_variant_key(workdir, tmp_path):
    (tmp_path / "mcfg.json").write_text(json.dumps({**MCFG, "variant": "goal"}))
    data = str(workdir / "data")
    r = run_cli("compare", "--data-a", data, "--data-b", data,
                "--model-config", str(tmp_path / "mcfg.json"), "--out", str(tmp_path / "o"))
    assert r.returncode == 2, r.stderr
    assert "'variant'" in r.stderr and "Traceback" not in r.stderr
    assert not (tmp_path / "o").exists()


def test_compare_keeps_sub_run_error_class(workdir, tmp_path):
    """A sub-run's data error exits 3, as train does, and the partial table
    is still written."""
    (tmp_path / "mcfg.json").write_text(json.dumps({**MCFG, "T_f": 20}))
    data, out = str(workdir / "data"), tmp_path / "o"
    r = run_cli("compare", "--data-a", data, "--data-b", data, "--seeds", "3",
                "--model-config", str(tmp_path / "mcfg.json"), "--out", str(out))
    assert r.returncode == 3, r.stderr
    assert "partial results written" in r.stderr and "T_f=20" in r.stderr
    assert (out / "compare.csv").read_text().splitlines() == [
        "variant,seed,eval_set,minADE_6,minFDE_6,b_minFDE_6,minMR_6,missRateTopK_2_6,ORR"]


@pytest.mark.parametrize("command", ["evaluate", "predict"])
@pytest.mark.parametrize("where,name", [(("agents", 0, "states", 3, 1), "agent veh0"),
                                        (("lanes", 0, "centerline", 1, 0), "lane L0"),
                                        (("lanes", 1, "left_boundary", 0, 1), "lane L1")],
                         ids=["agent", "centerline", "boundary"])
def test_non_finite_scenario_value_is_data_error(workdir, tmp_path, command, where, name):
    """A NaN in a scenario file exits 3 and names the agent or lane."""
    d = json.loads((workdir / "data" / "scene_00000.json").read_text())
    *path, last = where
    node = d
    for key in path:
        node = node[key]
    node[last] = float("nan")
    data = tmp_path / "data"
    data.mkdir()
    (data / "scene_00000.json").write_text(json.dumps(d))
    model = str(workdir / "run" / "model.ckpt")
    args = (["--data", str(data), "--out", str(tmp_path / "r.csv")] if command == "evaluate"
            else ["--scene", str(data / "scene_00000.json"), "--out", str(tmp_path / "p.jsonl")])
    r = run_cli(command, "--model", model, *args)
    assert r.returncode == 3, r.stderr
    assert name in r.stderr and "non-finite" in r.stderr and "Traceback" not in r.stderr


def test_fractional_validity_flag_is_data_error(workdir, tmp_path):
    """A validity flag of 0.3 exits 3 and names the agent, where it used to
    load as valid."""
    d = json.loads((workdir / "data" / "scene_00000.json").read_text())
    d["agents"][0]["states"][2][4] = 0.3
    data = tmp_path / "data"
    data.mkdir()
    (data / "scene_00000.json").write_text(json.dumps(d))
    r = run_cli("evaluate", "--model", str(workdir / "run" / "model.ckpt"),
                "--data", str(data), "--out", str(tmp_path / "r.csv"))
    assert r.returncode == 3, r.stderr
    assert f"agent {d['agents'][0]['id']}: validity flag" in r.stderr
    assert "Traceback" not in r.stderr


def test_evaluate_no_scorable_agent_is_data_error(workdir, tmp_path):
    """A set in which no agent has a fully valid future exits 3 and says so,
    where it used to write bare NaN into the report and the stdout line,
    which a strict JSON parser rejects."""
    d = json.loads((workdir / "data" / "scene_00000.json").read_text())
    for agent in d["agents"]:
        agent["states"][-1][4] = 0
    data = tmp_path / "data"
    data.mkdir()
    (data / "scene_00000.json").write_text(json.dumps(d))
    out = tmp_path / "r.csv"
    r = run_cli("evaluate", "--model", str(workdir / "run" / "model.ckpt"),
                "--data", str(data), "--out", str(out))
    assert r.returncode == 3, r.stderr
    assert "no agent could be scored" in r.stderr and "Traceback" not in r.stderr
    assert len(r.stderr.splitlines()) == 1 and r.stdout == ""
    assert not out.exists() and not (tmp_path / "r.json").exists()


def test_nan_dt_is_data_error(workdir, tmp_path):
    """A scenario file whose dt is NaN exits 3 and names the file and dt,
    where it used to evaluate non-finite trajectories."""
    d = json.loads((workdir / "data" / "scene_00000.json").read_text())
    d["dt"] = float("nan")
    data = tmp_path / "data"
    data.mkdir()
    (data / "scene_00000.json").write_text(json.dumps(d))
    r = run_cli("evaluate", "--model", str(workdir / "run" / "model.ckpt"),
                "--data", str(data), "--out", str(tmp_path / "r.csv"))
    assert r.returncode == 3, r.stderr
    assert "scene_00000.json: dt must be" in r.stderr and "Traceback" not in r.stderr


def test_zero_length_centerline_is_data_error(workdir, tmp_path):
    """A lane whose centerline vertices are all one point exits 3 and names
    the lane, not 4 from the goal stage finding no points on it."""
    d = json.loads((workdir / "data" / "scene_00000.json").read_text())
    lane = d["lanes"][0]
    lane["centerline"] = [lane["centerline"][0]] * len(lane["centerline"])
    data = tmp_path / "data"
    data.mkdir()
    (data / "scene_00000.json").write_text(json.dumps(d))
    r = run_cli("evaluate", "--model", str(workdir / "run" / "model.ckpt"),
                "--data", str(data), "--out", str(tmp_path / "r.csv"))
    assert r.returncode == 3, r.stderr
    assert f"lane {lane['id']}: centerline has zero length" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("kind", sorted(MALFORMED))
def test_train_malformed_scenario_is_data_error(workdir, tmp_path, kind):
    """train on a directory holding a scenario file with a non-numeric value,
    or one that is not UTF-8, exits 3 with a one-line message."""
    data = tmp_path / "data"
    data.mkdir()
    d = json.loads((workdir / "data" / "scene_00000.json").read_text())
    write_malformed_scene(data / "scene_00000.json", d, kind)
    r = run_cli("train", "--data", str(data), "--out", str(tmp_path / "o"))
    assert r.returncode == 3, r.stderr
    assert r.stderr.startswith("error: data:") and "Traceback" not in r.stderr


def test_train_malformed_value_names_its_file(workdir, tmp_path):
    """A malformed value in the second of three scenario files exits 3 with a
    message that names that file."""
    data = tmp_path / "data"
    data.mkdir()
    for i in range(3):
        name = f"scene_{i:05d}.json"
        d = json.loads((workdir / "data" / name).read_text())
        if i == 1:
            write_malformed_scene(data / name, d, "state-abc")
        else:
            (data / name).write_text(json.dumps(d))
    r = run_cli("train", "--data", str(data), "--out", str(tmp_path / "o"))
    assert r.returncode == 3, r.stderr
    assert f"{data / 'scene_00001.json'}: agent " in r.stderr and "'abc'" in r.stderr


def test_train_horizon_mismatch(workdir, tmp_path):
    """A model T_f other than the data's future length is a data error
    before the first step, naming the scene and both lengths."""
    (tmp_path / "mcfg.json").write_text(json.dumps({**MCFG, "T_f": 20}))
    r = run_cli("train", "--data", str(workdir / "data"),
                "--model-config", str(tmp_path / "mcfg.json"), "--out", str(tmp_path / "o"))
    assert r.returncode == 3, r.stderr
    assert "scene A_7_00000" in r.stderr and "30 steps" in r.stderr and "T_f=20" in r.stderr
    assert not (tmp_path / "o" / "ckpt_latest.ckpt").exists()


@pytest.mark.parametrize("command,args,env,bad", [
    ("generate", ["--seed", "-1"], None, "seed must be an integer >= 0, got '-1'"),
    ("generate", ["--seed", "1"], {"GOALGRAPH_SEED": "abc"},
     "GOALGRAPH_SEED must be an integer >= 0, got 'abc'"),
    ("train", [], {"GOALGRAPH_SEED": "-1"}, "GOALGRAPH_SEED must be an integer >= 0, got '-1'"),
    ("compare", ["--seeds", "3", "-1"], None, "seed must be >= 0, got -1"),
], ids=["generate", "env-not-integer", "env-negative", "compare"])
def test_seed_below_zero(workdir, tmp_path, command, args, env, bad):
    """A seed below 0 or a malformed GOALGRAPH_SEED exits 2 before any work."""
    data = str(workdir / "data")
    where = {"generate": ["--style", "A", "--n", "1"], "train": ["--data", data],
             "compare": ["--data-a", data, "--data-b", data]}[command]
    out = tmp_path / "o"
    r = run_cli(command, *where, *args, "--out", str(out), env=env)
    assert r.returncode == 2, r.stderr
    assert bad in r.stderr and "Traceback" not in r.stderr
    assert not out.exists()


def test_train_missing_data_dir(tmp_path):
    r = run_cli("train", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o"))
    assert r.returncode == 3, r.stderr
    assert "Traceback" not in r.stderr


def test_predict_jsonl_and_svg(workdir, tmp_path):
    scene = str(workdir / "data" / "scene_00000.json")
    out = str(tmp_path / "preds.jsonl")
    svg = str(tmp_path / "scene.svg")
    r = run_cli("predict", "--model", str(workdir / "run" / "model.ckpt"),
                "--scene", scene, "--out", out, "--svg", svg)
    assert r.returncode == 0, r.stderr
    lines = open(out).read().splitlines()
    recs = [json.loads(l) for l in lines]
    assert all({"scene_id", "agent_id", "mode", "score", "trajectory"} <= set(r)
               for r in recs)
    # K modes per predicted agent
    agents = {r["agent_id"] for r in recs}
    assert len(recs) == MCFG["K"] * len(agents)
    # SVG parses and contains the right number of prediction polylines
    root = ET.parse(svg).getroot()
    assert root.tag.endswith("svg")
    svg_text = open(svg).read()
    assert svg_text.count('class="pred"') == len(recs)


def test_predict_svg_bbox_covers_geometry(workdir, tmp_path):
    scene_path = str(workdir / "data" / "scene_00000.json")
    svg = str(tmp_path / "s.svg")
    r = run_cli("predict", "--model", str(workdir / "run" / "model.ckpt"),
                "--scene", scene_path, "--out", str(tmp_path / "p.jsonl"),
                "--svg", svg)
    assert r.returncode == 0
    root = ET.parse(svg).getroot()
    xmin, ymin, w, h = (float(v) for v in root.get("viewBox").split())
    from goalgraph.scene import load_scene
    sc = load_scene(scene_path)
    for lane in sc.lanes:
        for b in (lane.left_boundary, lane.right_boundary):
            assert b[:, 0].min() >= xmin - 1e-6
            assert b[:, 0].max() <= xmin + w + 1e-6


def test_predict_malformed_scene(workdir, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    r = run_cli("predict", "--model", str(workdir / "run" / "model.ckpt"),
                "--scene", str(bad), "--out", str(tmp_path / "p.jsonl"))
    assert r.returncode == 3


def test_predict_byte_identical_rerun(workdir, tmp_path):
    scene = str(workdir / "data" / "scene_00001.json")
    outs = []
    for i in range(2):
        out = str(tmp_path / f"p{i}.jsonl")
        svg = str(tmp_path / f"s{i}.svg")
        r = run_cli("predict", "--model", str(workdir / "run" / "model.ckpt"),
                    "--scene", scene, "--out", out, "--svg", svg)
        assert r.returncode == 0
        outs.append((open(out, "rb").read(), open(svg, "rb").read()))
    assert outs[0] == outs[1]


def test_seed_env_override(workdir, tmp_path):
    d1, d2 = str(tmp_path / "e1"), str(tmp_path / "e2")
    r1 = run_cli("generate", "--style", "A", "--n", "2", "--seed", "1",
                 "--out", d1, env={"GOALGRAPH_SEED": "42"})
    r2 = run_cli("generate", "--style", "A", "--n", "2", "--seed", "42", "--out", d2)
    assert r1.returncode == 0 and r2.returncode == 0
    assert open(os.path.join(d1, "scene_00000.json"), "rb").read() == \
        open(os.path.join(d2, "scene_00000.json"), "rb").read()


def test_run_manifest_contents(workdir):
    man = json.loads((workdir / "run" / "run_manifest.json").read_text())
    assert man["command"] == "train"
    assert "seed" in man and "outputs" in man and "duration_s" in man


def test_compare(workdir, tmp_path):
    data_b = str(tmp_path / "data_b")
    assert run_cli("generate", "--style", "B", "--n", "4", "--seed", "8",
                   "--out", data_b).returncode == 0
    out = tmp_path / "cmp"
    r = run_cli("compare", "--data-a", str(workdir / "data"), "--data-b", data_b,
                "--seeds", "3", "--model-config", str(workdir / "mcfg.json"),
                "--train-config", str(workdir / "tcfg.json"), "--out", str(out))
    assert r.returncode == 0, r.stderr
    header, *lines = (out / "compare.csv").read_text().splitlines()
    assert header == ("variant,seed,eval_set,minADE_6,minFDE_6,b_minFDE_6,minMR_6,"
                      "missRateTopK_2_6,ORR")
    cols = header.split(",")
    rows = {(v, e): dict(zip(cols[3:], map(float, rest)))
            for v, _, e, *rest in (line.split(",") for line in lines)}
    assert len(lines) == 6
    assert set(rows) == {(v, e) for v in ("goal", "baseline")
                         for e in ("A", "B", "degradation")}
    for v in ("goal", "baseline"):
        for col, deg in rows[(v, "degradation")].items():
            a, b = rows[(v, "A")][col], rows[(v, "B")][col]
            assert deg == (pytest.approx((b - a) / a, rel=1e-8) if a
                           else (0.0 if b == 0 else float("inf"))), (v, col)
