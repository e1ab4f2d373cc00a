import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

MCFG = {"d_h": 32, "heads": 4, "K": 3, "ffn_hidden": 64}
TCFG = {"total_epochs": 2, "warmup_epochs": 1, "batch_size": 4, "seed": 3}


def run_cli(*args, env=None):
    e = dict(os.environ)
    if env:
        e.update(env)
    return subprocess.run([sys.executable, "-m", "goalgraph.cli", *args],
                          capture_output=True, text=True, env=e)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    (d / "mcfg.json").write_text(json.dumps(MCFG))
    (d / "tcfg.json").write_text(json.dumps(TCFG))
    r = run_cli("generate", "--style", "A", "--n", "4", "--seed", "7",
                "--out", str(d / "data"))
    assert r.returncode == 0, r.stderr
    r = run_cli("train", "--data", str(d / "data"), "--variant", "goal",
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


def test_train_empty_data_dir(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    r = run_cli("train", "--data", str(empty), "--out", str(tmp_path / "o"))
    assert r.returncode == 3


def test_train_determinism(workdir, tmp_path):
    out2 = str(tmp_path / "run2")
    r = run_cli("train", "--data", str(workdir / "data"), "--variant", "goal",
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
