"""Acceptance criteria: one test per criterion, one PASS line printed each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are fixed here, not configurable.
"""

import time

import numpy as np
import support

from semidense.attention import AttentionStack, elu_plus_one, linear_attention
from semidense.cli import (
    _scene_from_config,
    estimate_views,
    main,
    reconstruct_scene,
)
from semidense.config import RunConfig
from semidense.geometry import (
    SE3Pose,
    pinhole,
    pinhole_inverse,
    project,
    rotation_from_axis_angle,
)
from semidense.losses import total_matching_loss, total_matching_loss_grad_scores
from semidense.metrics import (
    add_s,
    cm_degree_success,
    point_cloud_accuracy,
    rotation_error_deg,
    translation_error,
)
from semidense.pnp import ransac_pnp
from semidense.pose_matching import (
    QueryFeatureMaps,
    coarse_match_2d3d,
    fine_match_2d3d,
)
from semidense.refine import DepthProblem, optimize_depth

BYPASS = AttentionStack(layers=[])


def _report(num: int, text: str) -> None:
    print(f"PASS criterion {num}: {text}")


class TestAcceptance:
    def test_01_noiseless_end_to_end(self):
        t0 = time.perf_counter()
        config = RunConfig(
            seed=1, n_points=2000, n_views=30, n_query_views=20,
            n_coarse_layers=0, n_fine_layers=0,
        )
        scene = _scene_from_config(config)
        model, recon, *_ = reconstruct_scene(scene, config, list(range(30)))
        acc = point_cloud_accuracy(model.points, scene.points, thresholds=(0.001,))
        assert acc[0.001] == 1.0

        results = estimate_views(scene, model, config, list(range(30, 50)))
        successes = 0
        for r in results:
            res = r["result"]
            assert res.ok
            gt = scene.views[r["view"]][0]
            dist = np.linalg.norm(gt.camera_center)
            ok = (
                rotation_error_deg(res.pose, gt) <= 1.0
                and translation_error(res.pose, gt) <= 0.01 * dist
            )
            successes += ok
        elapsed = time.perf_counter() - t0
        assert successes == 20
        assert elapsed < 60.0
        _report(1, f"noiseless end-to-end 20/20 poses, accuracy@0.1%d = 1.0, {elapsed:.1f}s")

    def test_02_refinement_gain(self):
        gains = []
        for seed in range(10):
            config = RunConfig(
                seed=seed, n_points=400, n_views=12, n_query_views=0,
                fine_noise_sigma=0.5, image_size=2048, focal=5000.0,
                distance_min=3.5, distance_max=5.0, jitter_deg=3.0,
            )
            scene = _scene_from_config(config)
            model, recon, *_ = reconstruct_scene(scene, config, list(range(12)))
            coarse = point_cloud_accuracy(recon.points, scene.points, thresholds=(0.001,))
            refined = point_cloud_accuracy(model.points, scene.points, thresholds=(0.001,))
            gains.append(refined[0.001] - coarse[0.001])
        mean_gain = float(np.mean(gains))
        assert mean_gain >= 0.20
        _report(2, f"refinement gain @0.1%d = {mean_gain * 100:.1f}pp over 10 seeds (>= 20pp)")

    def test_03_depth_optimizer_matches_golden_section(self):
        rng = np.random.default_rng(1003)
        draws = []
        for _ in range(1000):
            n_src = int(rng.integers(4, 13))
            draws.append(support.random_refined_track(rng, n_src, pixel_noise=0.5))
        tracks, views = support.stack_tracks([(track, table) for track, table, _ in draws])
        depths = optimize_depth(tracks, views).depths
        worst = 0.0
        for depth, (track, table, d_true) in zip(depths, draws):
            problem = DepthProblem.from_nodes(track.views[None], track.pixels[None], table)
            gs = support.golden_section_minimize(
                problem.cost,
                0.5 * d_true,
                2.0 * d_true,
                tol=1e-10 * d_true,
            )
            worst = max(worst, abs(depth - gs) / gs)
        assert worst < 1e-6
        _report(3, f"depth optimizer vs golden section: worst rel dev {worst:.2e} (< 1e-6)")

    def test_04_depth_jacobian_vs_finite_differences(self):
        rng = np.random.default_rng(1004)
        worst = 0.0
        for _ in range(1000):
            n_src = int(rng.integers(2, 10))
            track, views, d_true = support.random_refined_track(
                rng, n_src, pixel_noise=1.0
            )
            d = d_true * rng.uniform(0.85, 1.15)
            ana = DepthProblem.from_nodes(track.views[None], track.pixels[None], views).jacobian(d)
            h = 1e-5 * d

            def residuals(depth):
                ref = track.views[0]
                p_world = SE3Pose(views.R[ref], views.t[ref]).inverse().transform(
                    pinhole_inverse(track.pixels[0], depth, *views.k(ref))
                )
                return np.array(
                    [
                        pinhole(views.R[v] @ p_world + views.t[v], *views.k(v)) - pixel
                        for v, pixel in zip(track.views[1:], track.pixels[1:])
                    ]
                )

            fd = (residuals(d + h) - residuals(d - h)) / (2.0 * h)
            worst = max(worst, np.abs(ana - fd).max() / max(np.abs(fd).max(), 1e-12))
        assert worst < 1e-5
        _report(4, f"depth jacobian vs central differences: worst rel dev {worst:.2e} (< 1e-5)")

    def test_05_loss_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(1005)
        worst = 0.0
        for _ in range(20):
            scores = rng.standard_normal((5, 7)) * rng.uniform(0.5, 3.0)
            gt = np.zeros((5, 7))
            rows = rng.choice(5, size=3, replace=False)
            cols = rng.choice(7, size=3, replace=False)
            gt[rows, cols] = 1.0
            fine_pred = rng.uniform(0, 10, (4, 2))
            fine_gt = rng.uniform(0, 10, (4, 2))

            ana = total_matching_loss_grad_scores(scores, gt)
            fd = np.zeros_like(scores)
            h = 1e-6
            for i in range(5):
                for j in range(7):
                    sp, sm = scores.copy(), scores.copy()
                    sp[i, j] += h
                    sm[i, j] -= h
                    fd[i, j] = (
                        total_matching_loss(sp, gt, fine_pred, fine_gt)
                        - total_matching_loss(sm, gt, fine_pred, fine_gt)
                    ) / (2.0 * h)
            worst = max(worst, np.abs(ana - fd).max() / max(np.abs(fd).max(), 1e-12))
        assert worst < 1e-4
        _report(5, f"loss gradient vs central differences: worst rel dev {worst:.2e} (< 1e-4)")

    def test_06_matching_properties(self):
        rng = np.random.default_rng(1006)
        from semidense.refine import PointCloudModel
        from semidense.geometry import CameraIntrinsics

        for trial in range(200):
            n = int(rng.integers(5, 25))
            c = 16
            hw = 8
            size = hw * 8
            stack = (
                BYPASS if trial % 2 == 0 else AttentionStack.random(2, c, seed=trial)
            )
            model = PointCloudModel(
                points=rng.uniform(-0.5, 0.5, (n, 3)),
                coarse_features=_unit(rng.standard_normal((n, c))),
                fine_features=_unit(rng.standard_normal((n, c))),
                track_ids=np.arange(n),
            )
            intr = CameraIntrinsics(fx=200, fy=200, cx=size / 2, cy=size / 2, width=size, height=size)
            query = QueryFeatureMaps(
                coarse=_unit(rng.standard_normal((hw, hw, c))),
                fine=_unit(rng.standard_normal((size // 2, size // 2, c))),
                intrinsics=intr,
            )
            scores, prob, corr = coarse_match_2d3d(model, query, stack, tau=0.2, theta=0.0)

            assert np.all(prob >= 0.0) and np.all(prob <= 1.0)
            r = np.exp(scores - scores.max(axis=1, keepdims=True))
            r /= r.sum(axis=1, keepdims=True)
            cmat = np.exp(scores - scores.max(axis=0, keepdims=True))
            cmat /= cmat.sum(axis=0, keepdims=True)
            assert np.all(prob <= r + 1e-15)
            assert np.all(prob <= cmat + 1e-15)
            assert len(set(corr.coarse_points.tolist())) == corr.n_coarse
            cells = [tuple(px) for px in corr.coarse_pixels]
            assert len(set(cells)) == corr.n_coarse

            out = fine_match_2d3d(model, query, corr, stack)
            n_fine_cells = size // 2
            for cell, pix, clamped in zip(
                out.coarse_pixels, out.fine_pixels, out.fine_clamped
            ):
                if clamped:
                    # expectation stays inside the shifted window's hull
                    c0 = int(np.clip(int(cell[0] // 2) - 2, 0, n_fine_cells - 5))
                    r0 = int(np.clip(int(cell[1] // 2) - 2, 0, n_fine_cells - 5))
                    assert c0 * 2 - 1e-9 <= pix[0] <= (c0 + 4) * 2 + 1e-9
                    assert r0 * 2 - 1e-9 <= pix[1] <= (r0 + 4) * 2 + 1e-9
                else:
                    assert np.max(np.abs(pix - cell)) <= 5.0 + 1e-9

            perm = rng.permutation(n)
            permuted = PointCloudModel(
                points=model.points[perm],
                coarse_features=model.coarse_features[perm],
                fine_features=model.fine_features[perm],
                track_ids=model.track_ids[perm],
            )
            _, _, corr_p = coarse_match_2d3d(permuted, query, stack, tau=0.2, theta=0.0)
            base = {
                (int(j), tuple(px)) for j, px in zip(corr.coarse_points, corr.coarse_pixels)
            }
            remapped = {
                (int(perm[j]), tuple(px))
                for j, px in zip(corr_p.coarse_points, corr_p.coarse_pixels)
            }
            assert base == remapped
        _report(6, "matching properties hold on 200 random instances")

    def test_07_linear_attention_equivalence(self):
        rng = np.random.default_rng(1007)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 65))
            m = int(rng.integers(2, 65))
            c = int(rng.integers(4, 33))
            q = rng.standard_normal((n, c))
            k = rng.standard_normal((m, c))
            v = rng.standard_normal((m, c))
            fast = linear_attention(q, k, v)
            Q, K = elu_plus_one(q), elu_plus_one(k)
            slow = np.zeros((n, c))
            for i in range(n):
                w = K @ Q[i]
                slow[i] = (w[:, None] * v).sum(axis=0) / max(w.sum(), 1e-6)
            worst = max(worst, np.abs(fast - slow).max())
        assert worst < 1e-10
        _report(7, f"linear vs quadratic attention: worst abs dev {worst:.2e} (< 1e-10)")

    def test_08_robust_ransac_pnp(self):
        successes = 0
        runtimes = []
        for seed in range(100):
            rng = np.random.default_rng([seed, 1008])
            intr = support.default_intrinsics()
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            pose = support.look_at_pose(direction * rng.uniform(2.5, 4.5), np.zeros(3))
            points = rng.uniform(-0.4, 0.4, (100, 3))
            pixels = project(pose, intr, points) + rng.normal(0, 0.5, (100, 2))
            out_idx = rng.choice(100, size=30, replace=False)
            pixels[out_idx] = rng.uniform(0, 512, (30, 2))

            t0 = time.perf_counter()
            res = ransac_pnp(points, pixels, intr, inlier_px=3.0, seed=seed)
            runtimes.append(time.perf_counter() - t0)
            if not res.ok:
                continue
            dist = np.linalg.norm(pose.camera_center)
            if (
                rotation_error_deg(res.pose, pose) < 0.5
                and translation_error(res.pose, pose) < 0.005 * dist
            ):
                successes += 1
        med = float(np.median(runtimes))
        assert successes >= 95
        assert med < 0.05
        _report(8, f"robust PnP {successes}/100 recoveries, median {med * 1e3:.0f}ms (< 50ms)")

    def test_09_metric_oracles(self):
        rng = np.random.default_rng(1009)
        pts = rng.uniform(-0.5, 0.5, (1000, 3))
        est, gt = support.random_pose(rng), support.random_pose(rng)
        adds_val, _ = add_s(est, gt, pts, diameter=1.0, symmetric=True)
        p_est, p_gt = est.transform(pts), gt.transform(pts)
        brute = np.mean(
            [np.min(np.linalg.norm(p_est[i] - p_gt, axis=1)) for i in range(1000)]
        )
        assert adds_val == brute

        recon = rng.uniform(-0.5, 0.5, (1000, 3))
        target = rng.uniform(-0.5, 0.5, (1000, 3))
        acc = point_cloud_accuracy(recon, target, thresholds=(0.02, 0.05))
        brute_d = np.array(
            [np.min(np.linalg.norm(recon[i] - target, axis=1)) for i in range(1000)]
        )
        assert acc[0.02] == np.mean(brute_d <= 0.02)
        assert acc[0.05] == np.mean(brute_d <= 0.05)

        base = support.look_at_pose(np.array([4.0, 0.0, 1.0]), np.zeros(3))
        rot2 = SE3Pose(
            rotation_from_axis_angle(np.array([0, 0, 1.0]), np.radians(2.0)) @ base.rotation,
            base.translation,
        )
        assert not cm_degree_success(rot2, base, 1.0, 1.0)
        assert cm_degree_success(rot2, base, 3.0, 3.0)
        off4 = SE3Pose(base.rotation, base.translation + np.array([0.4, 0.0, 0.0]))
        assert not cm_degree_success(off4, base, 3.0, 3.0)
        assert cm_degree_success(off4, base, 5.0, 5.0)
        _report(9, "ADD-S and point-cloud accuracy match brute force exactly; cm-degree boundaries hold")

    def test_10_pipeline_determinism(self, tmp_path):
        args = [
            "--n-points", "80", "--n-views", "8", "--n-query-views", "3",
            "--n-coarse-layers", "0", "--n-fine-layers", "0",
        ]
        assert main(["pipeline", "--out", str(tmp_path / "r1"), *args]) == 0
        assert main(["pipeline", "--out", str(tmp_path / "r2"), *args]) == 0
        m1 = (tmp_path / "r1" / "metrics.csv").read_bytes()
        m2 = (tmp_path / "r2" / "metrics.csv").read_bytes()
        assert m1 == m2
        _report(10, "pipeline metrics.csv byte-identical across reruns")


def _unit(m):
    return m / np.linalg.norm(m, axis=-1, keepdims=True)
