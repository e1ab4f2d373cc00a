import io
import json
import os

import numpy as np
import pytest

from goalgraph.errors import ConfigError
from goalgraph.metrics import trajectory_offroad
from goalgraph.scene import load_dataset, save_scene
from goalgraph.synthgen import (
    STYLE_A,
    STYLE_B,
    gen_dataset,
    gen_map,
    gen_scene,
)

from conftest import gen_scene_per_step, scene_json_dump


def test_styles_differ():
    assert STYLE_A.lane_width > STYLE_B.lane_width
    assert STYLE_A.curvature_max < STYLE_B.curvature_max
    assert STYLE_B.intersection_prob > STYLE_A.intersection_prob


def test_gen_map_valid_lanes():
    rng = np.random.default_rng(0)
    for _ in range(5):
        lanes = gen_map(STYLE_B, rng)
        ids = {l.id for l in lanes}
        for l in lanes:
            assert l.length > 0
            for s in l.successors:
                assert s in ids
            for nb in (l.left_neighbor, l.right_neighbor):
                assert nb is None or nb in ids


def test_gen_scene_invariants():
    for i in range(6):
        sc = gen_scene(STYLE_A, (20, i), f"s{i}")
        assert sc.t_history == 10 and sc.t_future == 30
        assert len(sc.agents) >= 1
        assert len(sc.predicted_agents()) >= 1
        for a in sc.agents:
            assert np.isfinite(a.states[:, :4]).all()


def test_vehicle_futures_on_lane():
    for i in range(8):
        sc = gen_scene(STYLE_B, (21, i), f"s{i}")
        for a in sc.agents:
            if a.road_bound:
                assert not trajectory_offroad(a.states[sc.t_history:, :2],
                                              [l.polygon() for l in sc.lanes])


def test_vehicle_speeds_in_style_range():
    sc = gen_scene(STYLE_A, (22, 0), "s")
    hi = STYLE_A.speed_max
    for a in sc.agents:
        if a.road_bound:
            sp = np.hypot(a.states[:, 2], a.states[:, 3])
            moving = sp[sp > 0.1]
            assert moving.max() <= hi + 1e-6
            # dead-end stops are allowed, so no lower bound on every step


def test_pedestrian_speed_cap():
    for i in range(10):
        sc = gen_scene(STYLE_B, (23, i), f"s{i}")
        for a in sc.agents:
            if not a.road_bound:
                sp = np.hypot(a.states[:, 2], a.states[:, 3])
                assert sp.mean() <= 2.0 + 1e-9


def test_scene_determinism():
    a = gen_scene(STYLE_A, (24, 3), "x")
    b = gen_scene(STYLE_A, (24, 3), "x")
    for ta, tb in zip(a.agents, b.agents):
        assert np.array_equal(ta.states, tb.states)
    for la, lb in zip(a.lanes, b.lanes):
        assert np.array_equal(la.centerline, lb.centerline)


def test_dataset_files_and_determinism(tmp_path):
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    gen_dataset("A", 4, 99, d1)
    gen_dataset("A", 4, 99, d2)
    f1 = sorted(os.listdir(d1))
    assert len([f for f in f1 if f.startswith("scene_")]) == 4
    assert "manifest.json" in f1
    for f in f1:
        assert open(os.path.join(d1, f), "rb").read() == \
            open(os.path.join(d2, f), "rb").read()
    # loads back cleanly
    assert len(load_dataset(d1)) == 4


def test_dataset_manifest_lists_scenes(tmp_path):
    out = str(tmp_path / "d")
    gen_dataset("B", 3, 5, out)
    man = json.load(open(os.path.join(out, "manifest.json")))
    assert len(man["scene_ids"]) == 3
    assert man["style"]["name"] == "B"


def test_unknown_style_rejected(tmp_path):
    with pytest.raises(ConfigError):
        gen_dataset("C", 2, 0, str(tmp_path / "x"))
    with pytest.raises(ConfigError):
        gen_dataset("A", 0, 0, str(tmp_path / "y"))


def test_style_curvature_statistic():
    """Mean absolute lane curvature differs by more than 2x between styles."""
    def mean_curv(style, seed0):
        vals = []
        for i in range(20):
            sc = gen_scene(style, (seed0, i), f"s{i}")
            for l in sc.lanes:
                c = l.centerline
                if len(c) < 3:
                    continue
                d = np.diff(c, axis=0)
                head = np.arctan2(d[:, 1], d[:, 0])
                dh = np.abs(np.diff(np.unwrap(head)))
                seg = np.hypot(d[:, 0], d[:, 1])
                vals.append(float(dh.sum() / seg.sum()))
        return float(np.mean(vals))

    ca, cb = mean_curv(STYLE_A, 30), mean_curv(STYLE_B, 30)
    assert cb > 2.0 * ca


@pytest.mark.parametrize("style", [STYLE_A, STYLE_B], ids=["A", "B"])
def test_gen_scene_matches_per_step_oracle(style, tmp_path):
    """Over 1,000 seeds, every track equals, bit for bit, that of the per-step
    generator, and save_scene writes the bytes of the json.dump writer."""
    path = str(tmp_path / "scene.json")
    for i in range(1000):
        got = gen_scene(style, (5, i), f"s{i}")
        want = gen_scene_per_step(style, (5, i), f"s{i}")
        assert [a.agent_class for a in got.agents] == [a.agent_class for a in want.agents]
        for a, b in zip(got.agents, want.agents):
            assert np.array_equal(a.states.view(np.int64), b.states.view(np.int64)), (i, a.id)
        save_scene(got, path)
        oracle = io.StringIO()
        scene_json_dump(want, oracle)
        with open(path, "rb") as f:
            assert f.read() == oracle.getvalue().encode("utf-8"), i
