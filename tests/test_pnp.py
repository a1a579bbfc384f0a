"""EPnP minimal solver, planar fallback, and RANSAC robustness."""

import time

import numpy as np
import pytest
import support

from semidense.errors import DegenerateGeometryError
from semidense.geometry import SE3Pose, project
from semidense.pnp import (
    _candidates,
    _homography_pose,
    _ranked_candidates,
    lm_pose_polish,
    pnp_minimal,
    ransac_pnp,
    reprojection_errors,
)


def _pose_and_points(rng, n, spread=0.4):
    intr = support.default_intrinsics()
    pose = support.look_at_pose(
        rng.uniform(2.5, 4.5) * _unit(rng.standard_normal(3)), np.zeros(3)
    )
    points = rng.uniform(-spread, spread, size=(n, 3))
    pixels = project(pose, intr, points)
    return pose, points, pixels, intr


def _unit(v):
    return v / np.linalg.norm(v)


def _best(candidates, points, pixels, intr):
    errs = [np.mean(reprojection_errors(p, intr, points, pixels)) for p in candidates]
    return candidates[int(np.argmin(errs))]


class TestPnPMinimal:
    def test_exact_six_points(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            pose, points, pixels, intr = _pose_and_points(rng, 6)
            best = _best(pnp_minimal(points, pixels, intr), points, pixels, intr)
            # Frobenius gap ~ sqrt(2) * angle(rad); robust below the arccos floor
            rot_gap = np.linalg.norm(best.rotation @ pose.rotation.T - np.eye(3))
            assert rot_gap < 1e-6
            assert np.linalg.norm(best.translation - pose.translation) < 1e-8

    def test_exact_four_points(self):
        # P4P occasionally has a mirror basin EPnP's beta search misses;
        # RANSAC absorbs those, so near-misses are tolerated here
        rng = np.random.default_rng(102)
        exact = 0
        for _ in range(20):
            pose, points, pixels, intr = _pose_and_points(rng, 4)
            best = _best(pnp_minimal(points, pixels, intr), points, pixels, intr)
            err = np.mean(reprojection_errors(best, intr, points, pixels))
            assert np.isfinite(err)
            exact += err < 1e-5
        assert exact >= 18

    def test_planar_points_recovered_via_fallback(self):
        rng = np.random.default_rng(103)
        for _ in range(20):
            intr = support.default_intrinsics()
            pose = support.look_at_pose(
                rng.uniform(3.0, 4.5) * _unit(rng.standard_normal(3)), np.zeros(3)
            )
            e1, e2 = np.eye(3)[:2]
            uv = rng.uniform(-0.4, 0.4, size=(8, 2))
            points = uv[:, :1] * e1 + uv[:, 1:] * e2  # z = 0 plane
            pixels = project(pose, intr, points)
            best = _best(pnp_minimal(points, pixels, intr), points, pixels, intr)
            rot_gap = np.linalg.norm(best.rotation @ pose.rotation.T - np.eye(3))
            assert rot_gap < 1e-5
            assert np.linalg.norm(best.translation - pose.translation) < 1e-5

    def test_collinear_rejected(self):
        rng = np.random.default_rng(104)
        intr = support.default_intrinsics()
        pose = support.look_at_pose(np.array([4.0, 0.0, 1.0]), np.zeros(3))
        points = np.outer(np.linspace(-0.3, 0.3, 4), np.array([1.0, 0.2, 0.1]))
        pixels = project(pose, intr, points)
        with pytest.raises(DegenerateGeometryError):
            pnp_minimal(points, pixels, intr)
        del rng

    def test_too_few_points(self):
        intr = support.default_intrinsics()
        with pytest.raises(ValueError):
            pnp_minimal(np.zeros((3, 3)), np.zeros((3, 2)), intr)

    def test_candidates_respect_cheirality(self):
        rng = np.random.default_rng(105)
        pose, points, pixels, intr = _pose_and_points(rng, 10)
        for cand in pnp_minimal(points, pixels, intr):
            z = points @ cand.rotation[2] + cand.translation[2]
            assert np.all(z > 0)


class TestStackedEPnP:
    def test_stack_matches_per_sample_minimal(self):
        rng = np.random.default_rng(111)
        sets = [_pose_and_points(rng, 4) for _ in range(40)]
        intr = sets[0][3]
        points = np.stack([s[1] for s in sets])
        pixels = np.stack([s[2] for s in sets]) + rng.normal(0, 0.5, (40, 4, 2))
        R, t, ok = _ranked_candidates(points, pixels, intr, thorough=False)
        for b in range(len(sets)):
            ref = pnp_minimal(points[b], pixels[b], intr, polish=False)
            assert ok[b].sum() == len(ref)
            assert ok[b, : len(ref)].all()
            for k, pose in enumerate(ref):
                assert np.max(np.abs(R[b, k] - pose.rotation)) < 1e-9
                assert np.max(np.abs(t[b, k] - pose.translation)) < 1e-9

    def test_degenerate_samples_inside_stack(self):
        rng = np.random.default_rng(112)
        pose, points, _, intr = _pose_and_points(rng, 4)
        points = np.stack([points, points, points])
        points[1, :, 2] = 0.0  # coplanar: homography route
        points[2] = np.outer(np.linspace(-0.3, 0.3, 4), [1.0, 0.2, 0.1])  # collinear: rejected
        pixels = np.stack([project(pose, intr, p) for p in points])

        R, t, ok, rejected = _candidates(points, pixels, intr, thorough=False)
        assert rejected.tolist() == [False, False, True]
        assert ok[0].any() and not ok[2].any()
        Rh, th, okh = _homography_pose(points[1], pixels[1], intr)
        assert np.array_equal(R[1, :2], Rh) and np.array_equal(t[1, :2], th)
        assert ok[1].tolist() == okh.tolist() + [False] * (ok.shape[1] - 2)

        R, t, ok = _ranked_candidates(points, pixels, intr, thorough=False)
        planar = pnp_minimal(points[1], pixels[1], intr, polish=False)
        assert ok[1].sum() == len(planar)
        assert np.max(np.abs(R[1, 0] - planar[0].rotation)) < 1e-9
        assert np.linalg.norm(R[1, 0] @ pose.rotation.T - np.eye(3)) < 1e-5
        assert not ok[2].any()
        with pytest.raises(DegenerateGeometryError):
            pnp_minimal(points[2], pixels[2], intr, polish=False)


class TestLMPolish:
    def test_never_increases_error(self):
        rng = np.random.default_rng(106)
        for _ in range(20):
            pose, points, pixels, intr = _pose_and_points(rng, 30)
            noisy_pix = pixels + rng.normal(0, 1.0, pixels.shape)
            rough = SE3Pose(
                support.random_rotation_perturbation(rng, 2.0) @ pose.rotation,
                pose.translation + rng.normal(0, 0.02, 3),
            )
            before = np.mean(reprojection_errors(rough, intr, points, noisy_pix))
            polished = lm_pose_polish(rough, points, noisy_pix, intr)
            after = np.mean(reprojection_errors(polished, intr, points, noisy_pix))
            assert after <= before + 1e-12


class TestRansacPnP:
    def test_all_exact_inliers(self):
        rng = np.random.default_rng(107)
        pose, points, pixels, intr = _pose_and_points(rng, 100)
        res = ransac_pnp(points, pixels, intr, seed=5)
        assert res.ok
        assert len(res.inliers) == 100
        assert res.mean_error < 1e-6

    def test_too_few_correspondences(self):
        intr = support.default_intrinsics()
        res = ransac_pnp(np.zeros((3, 3)), np.zeros((3, 2)), intr)
        assert not res.ok

    def test_seed_determinism(self):
        rng = np.random.default_rng(108)
        pose, points, pixels, intr = _pose_and_points(rng, 60)
        pixels = pixels + rng.normal(0, 0.5, pixels.shape)
        a = ransac_pnp(points, pixels, intr, seed=9)
        b = ransac_pnp(points, pixels, intr, seed=9)
        assert np.array_equal(a.pose.matrix, b.pose.matrix)
        assert np.array_equal(a.inliers, b.inliers)

    def test_inliers_within_threshold(self):
        rng = np.random.default_rng(109)
        pose, points, pixels, intr = _pose_and_points(rng, 80)
        pixels = pixels + rng.normal(0, 0.5, pixels.shape)
        pixels[:20] += rng.uniform(20, 100, (20, 2))
        res = ransac_pnp(points, pixels, intr, inlier_px=3.0, seed=2)
        assert res.ok
        errs = reprojection_errors(res.pose, intr, points, pixels)
        assert np.all(errs[res.inliers] <= 3.0)

    def test_lost_polish_falls_back_to_hypothesis(self, monkeypatch):
        # a polish that throws the pose far off keeps < 4 inliers; the result
        # must then be the hypothesis pose with inliers measured under it
        rng = np.random.default_rng(111)
        pose, points, pixels, intr = _pose_and_points(rng, 80)
        pixels = pixels + rng.normal(0, 0.5, pixels.shape)
        pixels[:20] += rng.uniform(20, 100, (20, 2))
        far = SE3Pose(pose.rotation, pose.translation + np.array([100.0, 0.0, 0.0]))
        monkeypatch.setattr("semidense.pnp.lm_pose_polish", lambda *args, **kwargs: far)
        res = ransac_pnp(points, pixels, intr, inlier_px=3.0, seed=2)
        assert res.ok
        assert not np.array_equal(res.pose.matrix, far.matrix)
        errs = reprojection_errors(res.pose, intr, points, pixels)
        assert len(res.inliers) >= 4
        assert np.all(errs[res.inliers] <= 3.0)
        assert res.mean_error == pytest.approx(np.mean(errs[res.inliers]), rel=1e-12)

    def test_robust_recovery_monte_carlo(self):
        # 70 noisy inliers + 30 uniform outliers, 100 seeded trials
        successes = 0
        runtimes = []
        for seed in range(100):
            rng = np.random.default_rng([seed, 110])
            pose, points, pixels, intr = _pose_and_points(rng, 100)
            pixels = pixels + rng.normal(0, 0.5, pixels.shape)
            out_idx = rng.choice(100, size=30, replace=False)
            pixels[out_idx] = rng.uniform(0, 512, (30, 2))
            t0 = time.perf_counter()
            res = ransac_pnp(points, pixels, intr, inlier_px=3.0, seed=seed)
            runtimes.append(time.perf_counter() - t0)
            if not res.ok:
                continue
            rot_err = support.rotation_angle_deg(res.pose.rotation, pose.rotation)
            dist = np.linalg.norm(pose.camera_center)
            t_err = np.linalg.norm(res.pose.translation - pose.translation)
            if rot_err < 0.5 and t_err < 0.005 * dist:
                successes += 1
        assert successes >= 95
        assert np.median(runtimes) < 0.05
