"""Self-test of the benchmark's output checks.

Runs each workload's check once on a real output, where it must pass, and
once on a perturbed copy, where it must fail:

- onboard: the refined cloud shifted by 1% of the object diameter;
- localize: the estimated pose rotated by 2 degrees;
- cli: one value of metrics.csv changed (relative change 1e-6).

Usage, from the root of a checkout: python3 bench/selftest.py
Exits 0 when every check behaves as expected, 1 otherwise. Takes ~20 s.
"""

import csv
import shutil
import sys

from run import BLAS_VARS, OUT, ROOT, pin_blas


def onboard_case():
    import numpy as np

    import checks
    import semidense.cli
    import workloads

    cfg = workloads.Onboard.config(0)
    scene = workloads.scene_for(cfg)
    model, recon = semidense.cli.reconstruct_scene(scene, cfg, list(range(cfg.n_views)))[:2]
    shift = 0.01 * scene.diameter * np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)

    def problems(refined):
        c, r, p = checks.check_object(recon.points, refined, scene.points, scene.diameter)
        return p + checks.check_mean_gain([(c, r)])

    return "onboard", problems(model.points), problems(model.points + shift)


def localize_case():
    import numpy as np

    import checks
    import semidense.attention
    import semidense.cli
    import workloads
    from semidense.config import RunConfig
    from semidense.geometry import rotation_from_axis_angle

    cfg = RunConfig(seed=0)
    scene = workloads.scene_for(cfg)
    model = semidense.cli.reconstruct_scene(scene, cfg, list(range(cfg.n_views)))[0]
    Stack = semidense.attention.AttentionStack
    stacks = (
        Stack.random(cfg.n_coarse_layers, cfg.coarse_dim, cfg.seed),
        Stack.random(cfg.n_fine_layers, cfg.fine_dim, cfg.seed),
    )
    view = cfg.n_views
    out = semidense.cli.estimate_views(scene, model, cfg, [view], stacks)[0]
    res, corr = out["result"], out["corr"]
    gt, intr = scene.views[view]
    pts = model.points[corr.fine_points[res.inliers]]
    pix = corr.fine_pixels[res.inliers]

    def problems(R, t):
        return checks.check_query(
            R, t, gt.rotation, gt.translation, intr, pts, pix, cfg.scaled_inlier_px
        )

    R, t = res.pose.rotation, res.pose.translation
    turn = rotation_from_axis_angle(np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0), np.radians(2.0))
    return "localize", problems(R, t), problems(turn @ R, t)


def cli_case():
    import checks
    import workloads

    wl = workloads.Cli(ROOT, OUT / "selftest", BLAS_VARS)
    seed = 0
    wl.setup(seed)  # runs and checks one pipeline, then removes its directory
    rc, path, err = wl.run(seed)
    cfg, views, points, _ = wl.truth[seed]
    try:
        if rc != 0:
            raise RuntimeError(f"pipeline exited {rc}: {err}")
        clean = checks.check_pipeline_dir(path, views, points, cfg.units_to_cm, cfg.n_query_views)[1]
        metrics = path / "metrics.csv"
        with open(metrics, newline="") as fh:
            rows = list(csv.reader(fh))
        col = rows[0].index("rot_err_deg")
        rows[1][col] = repr(float(rows[1][col]) * (1 + 1e-6))
        with open(metrics, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        changed = checks.check_pipeline_dir(path, views, points, cfg.units_to_cm, cfg.n_query_views)[1]
    finally:
        shutil.rmtree(OUT / "selftest", ignore_errors=True)
    return "cli", clean, changed


def main() -> int:
    pin_blas()
    sys.path.insert(0, str(ROOT / "src"))
    ok = True
    for case in (onboard_case, localize_case, cli_case):
        name, clean, perturbed = case()
        good = not clean and bool(perturbed)
        ok &= good
        print(f"{'PASS' if good else 'FAIL'} {name}: clean output {clean or 'passes'}; "
              f"perturbed output fails with {perturbed}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
