"""CLI commands: exit codes, output schemas, determinism."""

import csv
import json
import os
import shutil
import struct
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import semidense
from semidense.attention import AttentionStack
from semidense import cli
from semidense.cli import main
from semidense.config import MAX_TAU, MIN_TAU, RunConfig
from semidense.formats import load_model, load_scene, read_fmat, save_model, write_fmat
from semidense.matching import OracleMatcher
from semidense.pose_matching import coarse_match_2d3d, fine_match_2d3d, synthesize_query_maps
from semidense.refine import PointCloudModel
from semidense.scene import NoiseModel, generate_scene

FAST_SIZE = ["--n-points", "60", "--n-views", "6", "--n-query-views", "2"]
FAST = FAST_SIZE + ["--n-coarse-layers", "0", "--n-fine-layers", "0"]


def run(*argv) -> int:
    return main([str(a) for a in argv])


class TestSynth:
    def test_writes_scene_and_roundtrips(self, tmp_path):
        out = tmp_path / "scene.json"
        assert run("synth", "--out", out, *FAST) == 0
        scene = load_scene(out)
        direct = generate_scene(1, 60, 8, NoiseModel())
        assert np.array_equal(scene.points, direct.points)

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "r1" / "scene.json", tmp_path / "r2" / "scene.json"
        assert run("synth", "--out", a, *FAST) == 0
        assert run("synth", "--out", b, *FAST) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.with_suffix(".fmat").read_bytes() == b.with_suffix(".fmat").read_bytes()

    def test_invalid_views_exit_2(self, tmp_path):
        assert run("synth", "--out", tmp_path / "s.json", "--n-views", "1",
                   "--n-query-views", "0") == 2

    def test_unwritable_path_exit_2(self, tmp_path):
        target = tmp_path / "scene.json"
        target.mkdir()  # a directory at the file path makes the write fail
        assert run("synth", "--out", target, *FAST) == 2


class TestReconstruct:
    def test_noiseless_perfect_accuracy(self, tmp_path):
        scene_path = tmp_path / "scene.json"
        assert run("synth", "--out", scene_path, *FAST) == 0
        model_dir = tmp_path / "model"
        assert run("reconstruct", "--scene", scene_path, "--out", model_dir, *FAST) == 0
        stats = json.loads((model_dir / "stats.json").read_text())
        assert stats["accuracy"]["refined"]["0.001"] == 1.0
        assert stats["n_model_points"] > 0
        for name in ("coarse.ply", "refined.ply", "tracks.json", "features.fmat", "stats.json"):
            assert (model_dir / name).exists()

    def test_outliers_survive_with_conflicts(self, tmp_path):
        # smoke over 10 seeds: conflicts appear, pipeline still succeeds
        conflict_total = 0
        for seed in range(10):
            scene_path = tmp_path / f"s{seed}.json"
            model_dir = tmp_path / f"m{seed}"
            args = [
                "--seed", seed, "--n-points", 80, "--n-views", 8, "--n-query-views", 0,
                "--outlier-rate", 0.3,
            ]
            assert run("synth", "--out", scene_path, *args) == 0
            assert run("reconstruct", "--scene", scene_path, "--out", model_dir, *args) == 0
            stats = json.loads((model_dir / "stats.json").read_text())
            conflict_total += stats["tracks"]["conflicts"]
        assert conflict_total > 0

    def test_missing_scene_exit_2(self, tmp_path):
        assert run("reconstruct", "--scene", tmp_path / "nope.json",
                   "--out", tmp_path / "m", *FAST) == 2

    def test_dump_matches_csv(self, tmp_path):
        scene_path = tmp_path / "scene.json"
        assert run("synth", "--out", scene_path, *FAST) == 0
        model_dir = tmp_path / "model"
        assert run("reconstruct", "--scene", scene_path, "--out", model_dir,
                   "--dump-matches", *FAST) == 0
        with (model_dir / "matches.csv").open() as fh:
            header = fh.readline().strip()
            first = fh.readline().strip()
        assert header == "view_a,view_b,ua,va,ub,vb,score"
        assert first

    def test_dump_matches_reuses_the_reconstruction_matches(self, tmp_path, monkeypatch):
        scene_path = tmp_path / "scene.json"
        assert run("synth", "--out", scene_path, *FAST) == 0
        calls = []
        original = OracleMatcher.coarse_match_pair

        def counted(self, obs_a, obs_b):
            calls.append((obs_a.view_id, obs_b.view_id))
            return original(self, obs_a, obs_b)

        monkeypatch.setattr(OracleMatcher, "coarse_match_pair", counted)
        model_dir = tmp_path / "model"
        assert run("reconstruct", "--scene", scene_path, "--out", model_dir,
                   "--dump-matches", *FAST) == 0
        n_views = int(FAST[FAST.index("--n-views") + 1])
        assert sorted(calls) == [(a, b) for a in range(n_views) for b in range(a + 1, n_views)]
        with (model_dir / "matches.csv").open() as fh:
            rows = list(csv.reader(fh))[1:]
        assert sorted({(int(r[0]), int(r[1])) for r in rows}) == sorted(calls)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("ws")
    assert run("pipeline", "--out", root / "run", *FAST) == 0
    return root / "run"


class TestEstimateAndEval:
    def test_one_view_of_query_maps_alive_at_a_time(self, workspace, monkeypatch):
        # a view's maps must be freed before the next view's maps are built
        scene = load_scene(workspace / "scene.json")
        model, _ = load_model(workspace / "model")
        config = RunConfig(n_points=60, n_views=6, n_query_views=2,
                           n_coarse_layers=0, n_fine_layers=0)
        alive = []

        def tracked(scene, view, *args):
            assert all(ref() is None for ref in alive)
            maps = synthesize_query_maps(scene, view, *args)
            alive.append(weakref.ref(maps))
            return maps

        monkeypatch.setattr(cli, "synthesize_query_maps", tracked)
        results = cli.estimate_views(scene, model, config, [6, 7, 6])
        assert len(alive) == 3 and all(r["result"].ok for r in results)

    def test_noiseless_bypass_full_success(self, workspace):
        rows = list(csv.DictReader((workspace / "metrics.csv").open()))
        agg = rows[-1]
        assert agg["view"] == "aggregate"
        assert float(agg["ok_1pct_1deg"]) == 1.0
        assert float(agg["ok_1cm_1deg"]) == 1.0

    def test_timing_recorded(self, workspace):
        payload = json.loads((workspace / "estimate" / "poses.json").read_text())
        assert all("time_ms" in q and q["time_ms"] > 0 for q in payload["queries"])

    def test_correspondence_csv_schema(self, workspace):
        files = sorted((workspace / "estimate").glob("corr_q*.csv"))
        assert files
        with files[0].open() as fh:
            header = fh.readline().strip()
        assert header == "j,u,v,conf"

    def test_metrics_csv_schema(self, workspace):
        with (workspace / "metrics.csv").open() as fh:
            header = fh.readline().strip()
        assert header == (
            "view,t_err_cm,rot_err_deg,ok_1cm_1deg,ok_3cm_3deg,ok_5cm_5deg,"
            "ok_1pct_1deg,add,add_ok,add_s,add_s_ok,proj2d_px,proj2d_ok"
        )

    def test_estimate_explicit_view_range(self, tmp_path, workspace):
        out = tmp_path / "est_explicit"
        rc = run(
            "estimate", "--scene", workspace / "scene.json",
            "--model", workspace / "model", "--out", out, "--views", "6-7", *FAST,
        )
        assert rc == 0
        payload = json.loads((out / "poses.json").read_text())
        assert [q["view"] for q in payload["queries"]] == [6, 7]

    def test_estimate_empty_model_exit_3(self, tmp_path, workspace):
        empty = PointCloudModel(
            points=np.zeros((0, 3)),
            coarse_features=np.zeros((0, 32)),
            fine_features=np.zeros((0, 32)),
            track_ids=np.zeros(0, dtype=int),
        )
        save_model(tmp_path / "empty", empty, np.zeros((0, 3)), [0, 1])
        rc = run(
            "estimate", "--scene", workspace / "scene.json",
            "--model", tmp_path / "empty", "--out", tmp_path / "est", *FAST,
        )
        assert rc == 3

    def test_eval_ground_truth_poses_all_pass(self, tmp_path, workspace):
        scene = load_scene(workspace / "scene.json")
        queries = [
            {"view": v, "ok": True,
             "pose": [[float(x) for x in row] for row in scene.views[v][0].matrix]}
            for v in (4, 5)
        ]
        poses_path = tmp_path / "gt_poses.json"
        poses_path.write_text(json.dumps({"queries": queries}))
        out = tmp_path / "gt_metrics.csv"
        assert run("eval", "--scene", workspace / "scene.json",
                   "--poses", poses_path, "--out", out, *FAST) == 0
        rows = list(csv.DictReader(out.open()))
        agg = rows[-1]
        for col in ("ok_1cm_1deg", "ok_3cm_3deg", "ok_5cm_5deg", "add_ok", "proj2d_ok"):
            assert float(agg[col]) == 1.0

    def test_eval_two_degree_perturbation(self, tmp_path, workspace):
        from semidense.geometry import SE3Pose, rotation_from_axis_angle

        scene = load_scene(workspace / "scene.json")
        queries = []
        for v in (4, 5):
            gt = scene.views[v][0]
            R = rotation_from_axis_angle(np.array([0, 0, 1.0]), np.radians(2.0)) @ gt.rotation
            est = SE3Pose(R, gt.translation)
            queries.append(
                {"view": v, "ok": True,
                 "pose": [[float(x) for x in row] for row in est.matrix]}
            )
        poses_path = tmp_path / "p.json"
        poses_path.write_text(json.dumps({"queries": queries}))
        out = tmp_path / "m.csv"
        assert run("eval", "--scene", workspace / "scene.json",
                   "--poses", poses_path, "--out", out, *FAST) == 0
        agg = list(csv.DictReader(out.open()))[-1]
        assert float(agg["ok_1cm_1deg"]) == 0.0
        assert float(agg["ok_3cm_3deg"]) == 1.0


class TestBadInputs:
    """Each command turns a bad input into exit 2 and one `error:` line."""

    def _assert_usage_error(self, rc, capsys, mention):
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert mention in err

    def test_synth_nan_noise(self, tmp_path, capsys):
        rc = run("synth", "--out", tmp_path / "s.json", "--fine-noise-sigma", "nan", *FAST)
        self._assert_usage_error(rc, capsys, "fine_noise_sigma")
        assert not (tmp_path / "s.json").exists()

    def test_reconstruct_infinite_tau(self, tmp_path, workspace, capsys):
        rc = run("reconstruct", "--scene", workspace / "scene.json",
                 "--out", tmp_path / "m", "--tau", "inf", *FAST)
        self._assert_usage_error(rc, capsys, "tau")

    def test_pipeline_zero_units_to_cm(self, tmp_path, capsys):
        # every t_err_cm would read 0.0, judging cm-degree success on rotation alone
        rc = run("pipeline", "--out", tmp_path / "run", "--units-to-cm", "0", *FAST)
        self._assert_usage_error(rc, capsys, "units_to_cm")

    def test_estimate_unparsable_views(self, tmp_path, workspace, capsys):
        rc = run("estimate", "--scene", workspace / "scene.json", "--model", workspace / "model",
                 "--out", tmp_path / "est", "--views", "abc", *FAST)
        self._assert_usage_error(rc, capsys, "abc")

    @pytest.mark.parametrize(
        "views, mention",
        [
            ("12-13-14", "'12-13-14' is not a view or range a-b in [0, 8)"),
            ("-1", "'-1' is not a view"),
            ("7-6", "'7-6' is not a view"),
            ("6,", "'' is not a view"),
            ("6-99", "'6-99' is not a view"),
            ("6,6", "'6,6' names a view twice"),
            ("5-7,6", "'5-7,6' names a view twice"),
        ],
        ids=["three-ends", "negative", "reversed", "empty-part", "past-end", "twice", "in-range"],
    )
    def test_estimate_bad_views(self, tmp_path, workspace, capsys, views, mention):
        rc = run("estimate", "--scene", workspace / "scene.json", "--model", workspace / "model",
                 "--out", tmp_path / "est", f"--views={views}", *FAST)
        self._assert_usage_error(rc, capsys, f"--views: {mention}")
        assert not (tmp_path / "est").exists()

    def test_eval_poses_without_queries(self, tmp_path, workspace, capsys):
        poses_path = tmp_path / "p.json"
        poses_path.write_text(json.dumps({"poses": []}))
        rc = run("eval", "--scene", workspace / "scene.json", "--poses", poses_path,
                 "--out", tmp_path / "m.csv", *FAST)
        self._assert_usage_error(rc, capsys, "queries")

    def test_pipeline_one_node_tracks(self, tmp_path, capsys):
        rc = run("pipeline", "--out", tmp_path / "run", "--min-track-length", "1",
                 "--outlier-rate", "0.3", "--n-points", "100", "--n-views", "6",
                 "--n-query-views", "2")
        self._assert_usage_error(rc, capsys, "min_track_length")

    def test_pipeline_nan_focal(self, tmp_path, capsys):
        rc = run("pipeline", "--out", tmp_path / "run", "--focal", "nan", *FAST)
        self._assert_usage_error(rc, capsys, "focal")

    def _estimate(self, tmp_path, scene, model):
        return run("estimate", "--scene", scene, "--model", model,
                   "--out", tmp_path / "est", *FAST)

    def test_estimate_model_without_files(self, tmp_path, workspace, capsys):
        model = tmp_path / "model"
        shutil.copytree(workspace / "model", model)
        manifest = json.loads((model / "model.json").read_text())
        del manifest["files"]
        (model / "model.json").write_text(json.dumps(manifest))
        rc = self._estimate(tmp_path, workspace / "scene.json", model)
        self._assert_usage_error(rc, capsys, "files")

    def _estimate_edited_features(self, tmp_path, workspace, edit):
        model = tmp_path / "model"
        shutil.copytree(workspace / "model", model)
        sections = read_fmat(model / "features.fmat")
        edit(sections)
        write_fmat(model / "features.fmat", sections)
        return self._estimate(tmp_path, workspace / "scene.json", model)

    def test_estimate_narrow_model_features(self, tmp_path, workspace, capsys):
        def cut(sections):
            sections["coarse_features"] = sections["coarse_features"][:, :8].copy()

        rc = self._estimate_edited_features(tmp_path, workspace, cut)
        self._assert_usage_error(rc, capsys, "coarse features are 8 wide, scene descriptors 32")

    def test_estimate_non_unit_features(self, tmp_path, workspace, capsys):
        for kind in ("coarse", "fine"):
            def scale(sections, kind=kind):
                sections[f"{kind}_features"] = sections[f"{kind}_features"] * 100.0

            (tmp_path / kind).mkdir()
            rc = self._estimate_edited_features(tmp_path / kind, workspace, scale)
            self._assert_usage_error(rc, capsys, f"error: model {kind} features are not unit-norm")

    def test_estimate_float32_unit_features(self, tmp_path, workspace):
        # float32 unit rows round within the unit-norm tolerance
        def cast(sections):
            for kind in ("coarse", "fine"):
                sections[f"{kind}_features"] = sections[f"{kind}_features"].astype(np.float32)

        assert self._estimate_edited_features(tmp_path, workspace, cast) == 0

    def test_estimate_narrow_coarse_weights(self, tmp_path, workspace, capsys):
        weights = tmp_path / "coarse16.fmat"
        write_fmat(weights, AttentionStack.random(1, 16, seed=1).to_sections())
        rc = run("estimate", "--scene", workspace / "scene.json", "--model", workspace / "model",
                 "--out", tmp_path / "est", "--coarse-weights", weights, *FAST)
        self._assert_usage_error(rc, capsys, "coarse attention weights take 16-wide input")

    def test_estimate_inconsistent_fine_weights(self, tmp_path, workspace, capsys):
        # as wide as the scene, but one key projection disagrees with its query
        sections = AttentionStack.random(1, 32, seed=1).to_sections()
        sections["layer0.cross.k"] = sections["layer0.cross.k"][:, :8].copy()
        weights = tmp_path / "fine_bad_k.fmat"
        write_fmat(weights, sections)
        rc = run("estimate", "--scene", workspace / "scene.json", "--model", workspace / "model",
                 "--out", tmp_path / "est", "--fine-weights", weights, *FAST)
        self._assert_usage_error(rc, capsys, "layer0.cross.k is 32 x 8, expected 32 x 32")

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--refine-window", "-1"),
            ("--fine-window", "-1"),
            ("--fine-window", "513"),  # wider than the 256-px fine map
            ("--ransac-confidence", "2"),
            ("--coarse-dim", "0"),
            ("--ransac-max-iters", "0"),
            ("--inlier-px", "-1"),
            ("--max-reproj-px", "-1"),
            ("--min-refine-confidence", "2"),
            ("--seed", "-1"),
            ("--n-fine-layers", "-1"),
            ("--jitter-deg", "-5"),
            ("--image-size", "0"),
            ("--n-query-views", "0"),  # valid for synth and reconstruct, not for pipeline
        ],
    )
    def test_pipeline_config_value_out_of_range(self, tmp_path, capsys, flag, value):
        rc = run("pipeline", "--out", tmp_path / "run", *FAST, flag, value)
        self._assert_usage_error(rc, capsys, flag[2:].replace("-", "_"))
        assert not (tmp_path / "run").exists()

    def test_fine_window_wider_than_a_crop(self, tmp_path, capsys):
        # a query's maps cover at most a 512-px crop, whatever the image's size
        rc = run("pipeline", "--out", tmp_path / "run", "--image-size", 8192, "--focal", 20000,
                 "--fine-window", 301, *FAST)
        self._assert_usage_error(rc, capsys, "fine_window must be at most")

    def test_coarse_dim_too_narrow_for_the_encoding(self, tmp_path, capsys):
        # coarse attention encodes 3-D positions in a sin and a cos per axis: the
        # config is rejected before any file is written
        rc = run("pipeline", "--out", tmp_path / "run", *FAST_SIZE, "--coarse-dim", "5")
        self._assert_usage_error(rc, capsys, "coarse_dim must be at least 6")
        assert not (tmp_path / "run").exists()
        # and so are coarse attention weights that narrow
        weights = tmp_path / "coarse.fmat"
        write_fmat(weights, AttentionStack.random(1, 5, seed=1).to_sections())
        rc = run("pipeline", "--out", tmp_path / "run", *FAST, "--coarse-dim", "5",
                 "--coarse-weights", weights)
        self._assert_usage_error(
            rc, capsys, f"--coarse-weights {weights}: coarse attention weights take 5-wide input, "
            "narrower than the 6"
        )
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("kind", ["coarse", "fine"])
    def test_pipeline_weights_narrower_than_the_config(self, tmp_path, capsys, kind):
        # the weights' width is checked against the config before any file is written
        weights = tmp_path / f"{kind}16.fmat"
        write_fmat(weights, AttentionStack.random(1, 16, seed=1).to_sections())
        rc = run("pipeline", "--out", tmp_path / "run", *FAST_SIZE, f"--{kind}-weights", weights)
        self._assert_usage_error(rc, capsys, f"{kind} attention weights take 16-wide input")
        assert not (tmp_path / "run").exists()

    def test_pipeline_noise_sigma_past_bound(self, tmp_path, capsys):
        # 1e160 overflowed normalizing the noisy descriptors, after the scene was written
        rc = run("pipeline", "--out", tmp_path / "run", *FAST_SIZE, "--descriptor-noise-sigma", "1e160")
        self._assert_usage_error(rc, capsys, "descriptor_noise_sigma must be in [0, 1e+06]")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("value", [np.nan, 1e300], ids=["nan", "1e300"])
    def test_pipeline_non_finite_coarse_weights(self, tmp_path, capsys, value):
        # the weights are checked as they load, before any file is written
        sections = AttentionStack.random(1, 32, seed=1).to_sections()
        sections["layer0.self.v"][1, 2] = value
        weights = tmp_path / "coarse.fmat"
        write_fmat(weights, sections)
        rc = run("pipeline", "--out", tmp_path / "run", *FAST_SIZE, "--coarse-weights", weights)
        self._assert_usage_error(
            rc, capsys, f"--coarse-weights {weights}: layer0.self.v holds an entry that is not finite"
        )
        assert not (tmp_path / "run").exists()

    def test_pipeline_fine_weights_missing_a_section(self, tmp_path, capsys):
        # the message names the flag and the file, and the file only once
        sections = AttentionStack.random(1, 32, seed=1).to_sections()
        del sections["layer0.cross.ff1"]
        weights = tmp_path / "fine.fmat"
        write_fmat(weights, sections)
        rc = run("pipeline", "--out", tmp_path / "run", *FAST_SIZE, "--fine-weights", weights)
        err = capsys.readouterr().err
        assert rc == 2 and err.count("\n") == 1, err
        assert err == f"error: --fine-weights {weights}: attention weights have no section layer0.cross.ff1\n"
        assert not (tmp_path / "run").exists()

    def test_distances_past_float64_squares(self, tmp_path, capsys):
        # camera coordinates of 1e300 overflowed the squares that triangulation's gates sum
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run("pipeline", "--out", tmp_path / "run", *FAST_SIZE,
                     "--distance-min", "1e300", "--distance-max", "1e300")
        err = capsys.readouterr().err
        assert rc in (0, 2, 3) and err.count("\n") <= 1, err

    def test_pipeline_truncated_coarse_weights(self, tmp_path, capsys):
        # the weights are read before any stage runs: no scene or model is written
        weights = tmp_path / "coarse.fmat"
        write_fmat(weights, AttentionStack.random(1, 32, seed=1).to_sections())
        weights.write_bytes(weights.read_bytes()[:100])
        rc = run("pipeline", "--out", tmp_path / "run", "--coarse-weights", weights, *FAST)
        self._assert_usage_error(rc, capsys, "truncated")
        assert not (tmp_path / "run" / "scene.json").exists()
        assert not (tmp_path / "run" / "model").exists()

    def test_pipeline_tau_below_bound(self, tmp_path, capsys):
        rc = run("pipeline", "--out", tmp_path / "run", "--tau", "1e-7", *FAST)
        self._assert_usage_error(rc, capsys, "tau must be at least")

    def test_pipeline_tau_below_bound_as_a_child_process(self, tmp_path):
        # through `python -m semidense`: exit 2 and one line, no traceback
        src = str(Path(semidense.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "semidense", "pipeline", "--tau", "1e-7",
             "--out", str(tmp_path / "run"), *FAST],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: tau must be at least"), proc.stderr
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr

    def test_pipeline_tau_above_bound(self, tmp_path, capsys):
        # past the largest float32 the coarse block would score with tau = inf
        rc = run("pipeline", "--out", tmp_path / "run", "--tau", "1e300", *FAST)
        self._assert_usage_error(rc, capsys, "tau must be at most")
        assert not (tmp_path / "run").exists()

    def test_pipeline_out_of_memory(self, tmp_path, capsys, monkeypatch):
        # a stage that runs out of memory, as at --n-points 100000000000, without allocating
        message = "Unable to allocate 745. GiB for an array with shape (100000000000, 3)"
        for error, line in (
            (MemoryError(message), f"error: out of memory: {message}\n"),
            (MemoryError(), "error: out of memory: an allocation failed\n"),
        ):
            def exhausted(*args, error=error):
                raise error

            monkeypatch.setattr(cli, "reconstruct_scene", exhausted)
            rc = run("pipeline", "--out", tmp_path / "run", *FAST)
            assert rc == 2 and capsys.readouterr().err == line

    def test_synth_config_not_an_object(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text("5")
        rc = run("synth", "--config", config, "--out", tmp_path / "s.json")
        self._assert_usage_error(rc, capsys, "JSON object")

    def test_synth_config_list_seed(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"seed": [1]}))
        rc = run("synth", "--config", config, "--out", tmp_path / "s.json")
        self._assert_usage_error(rc, capsys, "seed must be int, got list")
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize(
        "entry, mention",
        [
            pytest.param({"view": 99, "ok": False}, "view 99 outside [0, 8)", id="view-past-end"),
            pytest.param({"view": -1, "ok": False}, "view -1 outside [0, 8)", id="view-negative"),
            pytest.param({"view": 6}, "ok must be true or false", id="ok-missing"),
            pytest.param({"view": 6, "ok": 1}, "ok must be true or false", id="ok-int"),
            pytest.param({"view": True, "ok": False}, "view must be an int", id="view-bool"),
            pytest.param({"view": 6.0, "ok": False}, "view must be an int", id="view-float"),
            pytest.param({"ok": False}, "view must be an int", id="view-missing"),
            pytest.param(
                {"view": 6, "ok": True, "pose": "x"}, "finite 3x4 or 4x4", id="pose-string"
            ),
            pytest.param({"view": 6, "ok": True}, "finite 3x4 or 4x4", id="pose-missing"),
            pytest.param(
                {"view": 6, "ok": True, "pose": [[1.0, 0.0], [0.0, 1.0]]}, "finite 3x4 or 4x4",
                id="pose-2x2",
            ),
            pytest.param(
                {"view": 6, "ok": True, "pose": [[1.0, 0.0, 0.0, 0.0], [0.0]]}, "finite 3x4 or 4x4",
                id="pose-ragged",
            ),
            pytest.param(
                {"view": 6, "ok": True, "pose": [[float("nan")] * 4] * 4}, "finite 3x4 or 4x4",
                id="pose-nan",
            ),
            pytest.param(
                {"view": 6, "ok": True, "pose": (2.0 * np.eye(4)).tolist()}, "not orthonormal",
                id="pose-not-rigid",
            ),
            pytest.param(
                {"view": 6, "ok": True, "pose": np.eye(4)[:3].tolist() + [[5.0, 5.0, 5.0, 9.0]]},
                "pose last row [5.0, 5.0, 5.0, 9.0] is not (0, 0, 0, 1)", id="pose-bad-last-row",
            ),
            pytest.param([5], "is not an object", id="entry-list"),
        ],
    )
    def test_eval_malformed_query_entry(self, tmp_path, workspace, capsys, entry, mention):
        # a good entry first: every entry is checked before any is scored
        good = {"view": 7, "ok": False}
        poses_path = tmp_path / "p.json"
        poses_path.write_text(json.dumps({"queries": [good, entry]}))
        out = tmp_path / "m.csv"
        rc = run("eval", "--scene", workspace / "scene.json", "--poses", poses_path,
                 "--out", out, *FAST)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: queries[1]") and err.count("\n") == 1, err
        assert mention in err
        assert not out.exists()

    def test_eval_deeply_nested_poses(self, tmp_path, workspace, capsys):
        poses_path = tmp_path / "p.json"
        poses_path.write_text("[" * 100_000 + "]" * 100_000)
        rc = run("eval", "--scene", workspace / "scene.json", "--poses", poses_path,
                 "--out", tmp_path / "m.csv", *FAST)
        self._assert_usage_error(rc, capsys, "nested too deeply")

    def _scene_with_fmat(self, tmp_path, workspace, edit):
        scene = tmp_path / "scene.json"
        shutil.copy(workspace / "scene.json", scene)
        fmat = bytearray((workspace / "scene.fmat").read_bytes())
        (tmp_path / "scene.fmat").write_bytes(edit(fmat))
        return scene

    def test_estimate_unknown_fmat_dtype(self, tmp_path, workspace, capsys):
        def bad_code(fmat):
            # magic, version and count, then the first section's name length and name
            (name_len,) = struct.unpack_from("<I", fmat, 12)
            fmat[16 + name_len] = 99
            return bytes(fmat)

        scene = self._scene_with_fmat(tmp_path, workspace, bad_code)
        rc = self._estimate(tmp_path, scene, workspace / "model")
        self._assert_usage_error(rc, capsys, "dtype code 99")

    def test_estimate_truncated_fmat(self, tmp_path, workspace, capsys):
        scene = self._scene_with_fmat(tmp_path, workspace, lambda fmat: bytes(fmat[:5000]))
        rc = self._estimate(tmp_path, scene, workspace / "model")
        self._assert_usage_error(rc, capsys, "truncated")

    def _reconstruct_edited_scene(self, tmp_path, workspace, edit):
        payload = json.loads((workspace / "scene.json").read_text())
        edit(payload)
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(payload))
        shutil.copy(workspace / "scene.fmat", tmp_path / "scene.fmat")
        return run("reconstruct", "--scene", scene, "--out", tmp_path / "m", *FAST)

    def test_reconstruct_view_without_intrinsics(self, tmp_path, workspace, capsys):
        rc = self._reconstruct_edited_scene(
            tmp_path, workspace, lambda p: p["views"][0].pop("intrinsics")
        )
        self._assert_usage_error(rc, capsys, "view 0: missing intrinsics")

    def test_reconstruct_2x2_pose(self, tmp_path, workspace, capsys):
        def edit(payload):
            payload["views"][1]["pose"] = [[1.0, 0.0], [0.0, 1.0]]

        rc = self._reconstruct_edited_scene(tmp_path, workspace, edit)
        self._assert_usage_error(rc, capsys, "view 1: pose must be a finite 4x4 matrix")

    def test_reconstruct_pose_bad_last_row(self, tmp_path, workspace, capsys):
        def edit(payload):
            payload["views"][1]["pose"][3] = [0.0, 0.0, 0.0, 2.0]

        rc = self._reconstruct_edited_scene(tmp_path, workspace, edit)
        self._assert_usage_error(rc, capsys, "view 1: last row [0.0, 0.0, 0.0, 2.0] is not")

    def test_reconstruct_views_not_a_list(self, tmp_path, workspace, capsys):
        rc = self._reconstruct_edited_scene(
            tmp_path, workspace, lambda p: p.update(views="abc")
        )
        self._assert_usage_error(rc, capsys, "views is not a list")

    def test_reconstruct_unknown_noise_key(self, tmp_path, workspace, capsys):
        def edit(payload):
            payload["noise"]["blur_sigma"] = 1.0

        rc = self._reconstruct_edited_scene(tmp_path, workspace, edit)
        self._assert_usage_error(rc, capsys, "unknown key blur_sigma")

    def test_reconstruct_nan_focal_length(self, tmp_path, workspace, capsys):
        def edit(payload):
            payload["views"][2]["intrinsics"]["fx"] = float("nan")

        rc = self._reconstruct_edited_scene(tmp_path, workspace, edit)
        self._assert_usage_error(rc, capsys, "view 2: intrinsics must be finite")

    def test_reconstruct_out_is_a_file(self, tmp_path, workspace, capsys):
        out = tmp_path / "model"
        out.write_text("")
        rc = run("reconstruct", "--scene", workspace / "scene.json", "--out", out, *FAST)
        self._assert_usage_error(rc, capsys, f"cannot write {out}")

    def test_estimate_out_is_a_file(self, tmp_path, workspace, capsys):
        out = tmp_path / "est"
        out.write_text("")
        rc = run("estimate", "--scene", workspace / "scene.json", "--model", workspace / "model",
                 "--out", out, *FAST)
        self._assert_usage_error(rc, capsys, f"cannot write {out}")

    def test_eval_out_is_a_directory(self, tmp_path, workspace, capsys):
        out = tmp_path / "m.csv"
        out.mkdir()
        rc = run("eval", "--scene", workspace / "scene.json",
                 "--poses", workspace / "estimate" / "poses.json", "--out", out, *FAST)
        self._assert_usage_error(rc, capsys, f"cannot write {out}")
        assert [p.name for p in tmp_path.iterdir()] == ["m.csv"]  # no file left beside it

    def test_pipeline_config_json_is_a_directory(self, tmp_path, capsys):
        (tmp_path / "run" / "config.json").mkdir(parents=True)
        rc = run("pipeline", "--out", tmp_path / "run", *FAST)
        self._assert_usage_error(rc, capsys, "config.json")

    def test_pipeline_out_is_a_file(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.write_text("")
        rc = run("pipeline", "--out", out, *FAST)
        self._assert_usage_error(rc, capsys, f"cannot write {out}")


class TestPipelineChain:
    def test_same_files_as_the_four_commands(self, tmp_path, workspace):
        steps = tmp_path / "steps"
        scene = steps / "scene.json"
        assert run("synth", "--out", scene, *FAST) == 0
        assert run("reconstruct", "--scene", scene, "--out", steps / "model", *FAST) == 0
        assert run("estimate", "--scene", scene, "--model", steps / "model",
                   "--out", steps / "estimate", *FAST) == 0
        assert run("eval", "--scene", scene, "--poses", steps / "estimate" / "poses.json",
                   "--out", steps / "metrics.csv", *FAST) == 0

        def files(root):
            return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())

        def content(path):
            if path.name != "poses.json":
                return path.read_bytes()
            queries = json.loads(path.read_text())["queries"]
            return [{k: v for k, v in q.items() if k != "time_ms"} for q in queries]

        assert files(workspace) == sorted(files(steps) + ["config.json"])
        for name in files(steps):
            assert content(workspace / name) == content(steps / name), name

    def test_reads_back_no_file_it_wrote(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError(f"pipeline read back {args[0]}")

        for name in ("load_scene", "load_model", "_load_json"):
            monkeypatch.setattr(cli, name, refuse)
        assert run("pipeline", "--out", tmp_path / "run", *FAST) == 0


class TestQueryWindow:
    """The query maps cover a crop of the object's box: large images and wide fine
    windows solve."""

    def test_2048_px_queries_solve(self, tmp_path):
        # over a full 256 x 256 coarse grid the noise floor keeps every probability below theta
        out = tmp_path / "run"
        rc = run("pipeline", "--seed", 2, "--image-size", 2048, "--focal", 5000,
                 "--n-points", 400, "--dump-matches", "--out", out)
        assert rc == 0
        queries = json.loads((out / "estimate" / "poses.json").read_text())["queries"]
        assert len(queries) == 6 and all(q["ok"] for q in queries)

    @pytest.mark.parametrize("size, focal", [(4096, 10000), (8192, 20000)])
    def test_crops_of_larger_images_solve(self, tmp_path, size, focal):
        # the 4096-px and 8192-px boxes hold 60k-270k coarse cells, where the noise floor
        # kept the best probabilities below theta; their crops hold at most 64 x 64
        out = tmp_path / "run"
        rc = run("pipeline", "--seed", 2, "--image-size", size, "--focal", focal,
                 "--n-points", 400, "--out", out)
        assert rc == 0
        queries = json.loads((out / "estimate" / "poses.json").read_text())["queries"]
        assert len(queries) == 6 and all(q["ok"] for q in queries)

    def test_fine_window_wider_than_the_object_box(self, tmp_path):
        # a 63-cell fine window is wider than the box of the small scene's objects
        assert run("pipeline", "--fine-window", 63, "--out", tmp_path / "run", *FAST_SIZE) == 0


class TestPipelineDeterminism:
    def test_metrics_byte_identical(self, tmp_path):
        assert run("pipeline", "--out", tmp_path / "r1", *FAST) == 0
        assert run("pipeline", "--out", tmp_path / "r2", *FAST) == 0
        m1 = (tmp_path / "r1" / "metrics.csv").read_bytes()
        m2 = (tmp_path / "r2" / "metrics.csv").read_bytes()
        assert m1 == m2

    def test_noisy_attention_on_pipeline(self, tmp_path):
        # default attention depth with seeded-random weights must still match:
        # untrained layers are damped toward identity by construction
        rc = run(
            "pipeline", "--out", tmp_path / "n",
            "--n-points", 150, "--n-views", 10, "--n-query-views", 4,
            "--fine-noise-sigma", 0.5, "--descriptor-noise-sigma", 0.1,
            "--dropout-rate", 0.1, "--outlier-rate", 0.1,
        )
        assert rc == 0
        agg = list(csv.DictReader((tmp_path / "n" / "metrics.csv").open()))[-1]
        assert float(agg["ok_5cm_5deg"]) == 1.0

    # at MAX_TAU the dual-softmax is uniform to 2e-6: no match passes theta
    @pytest.mark.parametrize("tau, code", [(MIN_TAU, 0), (0.02, 0), (0.08, 0), (MAX_TAU, 3)])
    def test_coarse_block_float32_at_every_tau(self, tmp_path, monkeypatch, tau, code):
        seen = set()

        def spy(model, query, stack, **kwargs):
            seen.add((model.coarse_features.dtype, query.coarse.dtype))
            return coarse_match_2d3d(model, query, stack, **kwargs)

        monkeypatch.setattr(cli, "coarse_match_2d3d", spy)
        assert run("pipeline", "--out", tmp_path / "run", "--tau", tau, *FAST_SIZE) == code
        assert seen == {(np.dtype(np.float32), np.dtype(np.float32))}

    def test_fine_block_float32_at_the_smallest_tau(self, tmp_path, monkeypatch):
        # at MIN_TAU the fine logits span up to 2 / tau = 2e6, far past
        # float32's exp range, so far cells underflow to probability 0;
        # that must pass without a warning of any kind
        seen = set()

        def spy(model, query, corr, stack, **kwargs):
            seen.add((model.fine_features.dtype, query.fine.dtype))
            out = fine_match_2d3d(model, query, corr, stack, **kwargs)
            assert out.fine_pixels.dtype == out.fine_conf.dtype == np.float64
            return out

        monkeypatch.setattr(cli, "fine_match_2d3d", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("pipeline", "--out", tmp_path / "run", "--tau", MIN_TAU, *FAST_SIZE) == 0
        assert seen == {(np.dtype(np.float32), np.dtype(np.float32))}

    def test_pipeline_does_not_import_numpy_ma(self, tmp_path):
        # np.median imports numpy.ma for its NaN check, a cost every CLI process would pay
        src = str(Path(semidense.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            "import sys\n"
            "from semidense.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "sys.exit('numpy.ma' in sys.modules)\n"
        )
        subprocess.run(
            [sys.executable, "-c", code, "pipeline", "--out", str(tmp_path / "run"), *FAST_SIZE],
            env=env, check=True, capture_output=True,
        )

    def test_blas_thread_count_does_not_change_results(self, tmp_path):
        # attention on, so the BLAS-backed matrix products run at both settings
        src = str(Path(semidense.__file__).resolve().parents[1])
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            subprocess.run(
                [sys.executable, "-m", "semidense", "pipeline",
                 "--out", str(tmp_path / f"t{threads}"), *FAST_SIZE],
                env=env, check=True, capture_output=True,
            )
        for name in ("metrics.csv", "model/refined.ply"):
            assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t2" / name).read_bytes()
