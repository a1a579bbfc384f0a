"""The three benchmark workloads: onboard, localize and cli.

Each workload builds its inputs from the workload seed in `setup`, then
offers one pass of operations through `inputs`; the runner times `run` on
each input, in repeated passes, and calls `check` on every output. The
program receives only the generated inputs. Public functions are looked up
on their modules at call time, so the traced run's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import io
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import semidense.attention
import semidense.cli
import semidense.scene
from semidense.config import RunConfig

import checks


def scene_for(config: RunConfig):
    """The synthetic scene (inputs and ground truth) that `config` describes."""
    return semidense.scene.generate_scene(
        config.seed,
        config.n_points,
        config.total_views,
        config.noise,
        coarse_dim=config.coarse_dim,
        fine_dim=config.fine_dim,
        image_size=config.image_size,
        focal=config.focal,
        distance_range=(config.distance_min, config.distance_max),
        jitter_deg=config.jitter_deg,
    )


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Onboard:
    """One operation is one `reconstruct_scene` on one seeded object.

    The objects use the criterion-2 camera with 0.5 px fine noise, 10%
    coarse outliers and 10% dropout, so the union-find conflict rule, the
    triangulation gates and the depth LM all do real work.
    """

    n_objects = 4

    @staticmethod
    def config(seed: int) -> RunConfig:
        return RunConfig(
            seed=seed, n_points=400, n_views=12, n_query_views=0,
            fine_noise_sigma=0.5, outlier_rate=0.1, dropout_rate=0.1,
            image_size=2048, focal=5000.0, distance_min=3.5, distance_max=5.0,
            jitter_deg=3.0,
        )

    def setup(self, seed: int) -> list[str]:
        self.objects = []
        for k in range(self.n_objects):
            cfg = self.config(seed * self.n_objects + k)
            self.objects.append((k, cfg, scene_for(cfg)))
        self.accuracy: dict[int, tuple[float, float]] = {}
        self.first: dict[int, np.ndarray] = {}
        return self.check(self.objects[0], self.run(self.objects[0]))

    def inputs(self):
        return self.objects

    def run(self, obj):
        _, cfg, scene = obj
        return semidense.cli.reconstruct_scene(scene, cfg, list(range(cfg.n_views)))

    def check(self, obj, out) -> list[str]:
        k, _, scene = obj
        model, recon = out[0], out[1]
        coarse, refined, problems = checks.check_object(
            recon.points, model.points, scene.points, scene.diameter
        )
        self.accuracy[k] = (coarse, refined)
        if k in self.first and not np.array_equal(self.first[k], model.points):
            problems.append(f"object {k}: refined cloud differs from its first run")
        self.first.setdefault(k, model.points)
        return problems

    def finish(self):
        acc = [self.accuracy[k] for k in sorted(self.accuracy)]
        extras = {"coarse_acc": [c for c, _ in acc], "refined_acc": [r for _, r in acc]}
        return float(np.median([r for _, r in acc])), None, extras, checks.check_mean_gain(acc)

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()


class Localize:
    """One operation is one `estimate_views` call on one held-out query view.

    Set-up builds one model of the acceptance-size object (the criterion-1
    object: seed 1, 2000 points, 30 views, 512 px, noiseless) with the
    default seeded attention stacks. The object is the same in every run,
    so set-up does the same work and the per-query cost does not follow the
    model's size; the workload seed picks which of the object's held-out
    views a run visits.
    """

    object_seed = 1
    n_pool = 120
    n_queries = 12

    def setup(self, seed: int) -> list[str]:
        self.cfg = cfg = RunConfig(
            seed=self.object_seed, n_points=2000, n_views=30, n_query_views=self.n_pool
        )
        self.scene = scene_for(cfg)
        pick = np.random.default_rng([seed, 7]).choice(self.n_pool, self.n_queries, replace=False)
        self.views = [cfg.n_views + int(v) for v in pick]
        self.model = semidense.cli.reconstruct_scene(self.scene, cfg, list(range(cfg.n_views)))[0]
        Stack = semidense.attention.AttentionStack
        self.stacks = (
            Stack.random(cfg.n_coarse_layers, cfg.coarse_dim, cfg.seed),
            Stack.random(cfg.n_fine_layers, cfg.fine_dim, cfg.seed),
        )
        self.acc = checks.cloud_accuracy(self.model.points, self.scene.points, self.scene.diameter)
        self.proj: dict[int, float] = {}
        self.first: dict[int, np.ndarray] = {}
        views = self.inputs()
        return self.check(views[0], self.run(views[0]))

    def inputs(self):
        return self.views

    def run(self, view):
        return semidense.cli.estimate_views(self.scene, self.model, self.cfg, [view], self.stacks)[0]

    def check(self, view, out) -> list[str]:
        res, corr = out["result"], out["corr"]
        gt, intr = self.scene.views[view]
        if res.pose is None:
            return [f"view {view}: no pose"]
        R, t = res.pose.rotation, res.pose.translation
        idx = corr.fine_points[res.inliers]
        problems = checks.check_query(
            R, t, gt.rotation, gt.translation, intr,
            self.model.points[idx], corr.fine_pixels[res.inliers], self.cfg.scaled_inlier_px,
        )
        pose = np.concatenate([R.ravel(), t])
        if view in self.first and not np.array_equal(self.first[view], pose):
            problems.append(f"view {view}: pose differs from its first run")
        self.first.setdefault(view, pose)
        self.proj[view] = checks.proj2d_px(R, t, gt.rotation, gt.translation, intr, self.scene.points)
        return [f"view {view}: {p}" for p in problems]

    def finish(self):
        proj = float(np.median(list(self.proj.values())))
        problems = [] if self.acc == 1.0 else [f"noiseless model accuracy {self.acc} < 1"]
        return self.acc, proj, {"model_points": int(self.model.n_points)}, problems

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()


class Cli:
    """One operation is one `semidense pipeline --out <fresh dir>` at the defaults.

    The command runs as a child process with the BLAS thread variables
    unset, as a user's shell has them. The traced run calls
    `semidense.cli.main` in process instead.
    """

    n_seeds = 3

    def __init__(self, root: Path, out: Path, blas_vars, in_process: bool = False):
        self.out = out / "cli"
        self.in_process = in_process
        self.env = {k: v for k, v in os.environ.items() if k not in blas_vars}
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.n_op = 0
        self.bytes_written = 0

    def setup(self, seed: int) -> list[str]:
        self.truth = {}
        for k in range(self.n_seeds):
            cfg = RunConfig(seed=seed * self.n_seeds + k)
            scene = scene_for(cfg)
            views = {
                v: (scene.views[v][0].rotation, scene.views[v][0].translation, scene.views[v][1])
                for v in range(cfg.n_views, cfg.total_views)
            }
            self.truth[cfg.seed] = (cfg, views, scene.points, scene.diameter)
        self.first: dict[int, tuple[bytes, bytes]] = {}
        self.proj: list[float] = []
        self.acc: dict[int, float] = {}
        shutil.rmtree(self.out, ignore_errors=True)
        s = self.inputs()[0]
        return self.check(s, self.run(s))

    def inputs(self):
        return sorted(self.truth)

    def run(self, seed):
        self.n_op += 1
        out = self.out / f"op{self.n_op}"
        argv = ["pipeline", "--out", str(out), "--seed", str(seed)]
        if self.in_process:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = semidense.cli.main(argv)
            return rc, out, ""
        proc = subprocess.run(
            [sys.executable, "-m", "semidense", *argv],
            env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        return proc.returncode, out, proc.stderr

    def check(self, seed, out) -> list[str]:
        rc, path, err = out
        try:
            if rc != 0:
                return [f"seed {seed}: exit code {rc}: {err.strip()[-300:]}"]
            cfg, views, points, diameter = self.truth[seed]
            proj, problems = checks.check_pipeline_dir(
                path, views, points, cfg.units_to_cm, cfg.n_query_views
            )
            self.proj.extend(proj)
            refined = checks.read_ply_points(path / "model" / "refined.ply")
            self.acc[seed] = checks.cloud_accuracy(refined, points, diameter)
            blobs = ((path / "metrics.csv").read_bytes(), (path / "model" / "refined.ply").read_bytes())
            if seed in self.first and self.first[seed] != blobs:
                problems.append("metrics.csv or refined.ply differs from the first run")
            self.first.setdefault(seed, blobs)
            self.bytes_written = sum(f.stat().st_size for f in path.rglob("*") if f.is_file())
            return [f"seed {seed}: {p}" for p in problems]
        finally:
            shutil.rmtree(path, ignore_errors=True)

    def finish(self):
        acc = float(np.median(list(self.acc.values())))
        return acc, float(np.median(self.proj)), {}, []

    def peak_rss_mb(self) -> float:
        if self.in_process:
            return self_peak_rss_mb()
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def startup_ms(self, repeats: int = 3) -> float:
        """Median time of a child process that only imports semidense.cli."""
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import semidense.cli"], env=self.env, check=True)
            times.append(1e3 * (time.perf_counter() - t0))
        return float(np.median(times))
