"""EPnP minimal solver, planar fallback, and RANSAC robustness."""

import time

import numpy as np
import pytest
import support

from semidense import pnp
from semidense.cli import _RANSAC_SEED_STREAM, _scene_from_config, estimate_views, reconstruct_scene
from semidense.config import RunConfig
from semidense.geometry import SE3Pose, project
from semidense.pnp import (
    _candidates,
    _homography_pose,
    _reprojection_errors,
    lm_pose_polish,
    ransac_pnp,
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


def _errors(pose, intr, points, pixels):
    return _reprojection_errors(pose.rotation, pose.translation, intr, points, pixels)


def _tukey_cost(pose, intr, points, pixels, scale):
    """Tukey's biweight summed over the points; a point behind the camera costs 1."""
    x = (np.minimum(_errors(pose, intr, points, pixels), scale) / scale) ** 2
    return float(np.sum(1.0 - (1.0 - x) ** 3))


def _best_first(poses, intr, points, pixels):
    """The poses ordered by their mean reprojection error on the set (stable)."""
    return sorted(poses, key=lambda pose: np.mean(_errors(pose, intr, points, pixels)))


def _epnp_poses(points, pixels, intr):
    """The valid EPnP (or homography) candidates of one set, in slot order."""
    R, t, ok = _candidates(points[None], pixels[None], intr)
    return [SE3Pose(r, tr) for r, tr in zip(R[0, ok[0]], t[0, ok[0]])]


def _polished(points, pixels, intr):
    """The candidate poses of one set, each polished, best first.

    The polish's scale lies past every error of a candidate, so each one
    descends in its own basin; at a few pixels Tukey's kernel gives a
    mirror-basin candidate of a P4P set no pull toward the true pose.
    """
    polished = [
        lm_pose_polish(pose, points, pixels, intr, scale=1e3)
        for pose in _epnp_poses(points, pixels, intr)
    ]
    return _best_first(polished, intr, points, pixels)


def _criterion8_draws(seed):
    """Acceptance criterion 8's trial: 70 noisy inliers and 30 uniform outliers."""
    rng = np.random.default_rng([seed, 1008])
    intr = support.default_intrinsics()
    direction = rng.standard_normal(3)
    direction /= np.linalg.norm(direction)
    pose = support.look_at_pose(direction * rng.uniform(2.5, 4.5), np.zeros(3))
    points = rng.uniform(-0.4, 0.4, (100, 3))
    pixels = project(pose, intr, points) + rng.normal(0, 0.5, (100, 2))
    pixels[rng.choice(100, size=30, replace=False)] = rng.uniform(0, 512, (30, 2))
    return points, pixels, intr


class TestPnPMinimal:
    def test_exact_six_points(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            pose, points, pixels, intr = _pose_and_points(rng, 6)
            best = _polished(points, pixels, intr)[0]
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
            best = _polished(points, pixels, intr)[0]
            err = np.mean(_errors(best, intr, points, pixels))
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
            best = _polished(points, pixels, intr)[0]
            rot_gap = np.linalg.norm(best.rotation @ pose.rotation.T - np.eye(3))
            assert rot_gap < 1e-5
            assert np.linalg.norm(best.translation - pose.translation) < 1e-5

    def test_collinear_rejected(self):
        rng = np.random.default_rng(104)
        intr = support.default_intrinsics()
        pose = support.look_at_pose(np.array([4.0, 0.0, 1.0]), np.zeros(3))
        points = np.outer(np.linspace(-0.3, 0.3, 4), np.array([1.0, 0.2, 0.1]))
        pixels = project(pose, intr, points)
        assert _polished(points, pixels, intr) == []
        del rng

    def test_candidates_respect_cheirality(self):
        rng = np.random.default_rng(105)
        pose, points, pixels, intr = _pose_and_points(rng, 10)
        candidates = _polished(points, pixels, intr)
        assert candidates
        for cand in candidates:
            z = points @ cand.rotation[2] + cand.translation[2]
            assert np.all(z > 0)


class TestStackedEPnP:
    def test_stack_matches_per_sample_minimal(self):
        rng = np.random.default_rng(111)
        sets = [_pose_and_points(rng, 4) for _ in range(40)]
        intr = sets[0][3]
        points = np.stack([s[1] for s in sets])
        pixels = np.stack([s[2] for s in sets]) + rng.normal(0, 0.5, (40, 4, 2))
        R, t, ok = _candidates(points, pixels, intr)
        for b in range(len(sets)):
            R1, t1, ok1 = _candidates(points[b : b + 1], pixels[b : b + 1], intr)
            assert ok1.any() and np.array_equal(ok[b], ok1[0])
            assert np.max(np.abs(R[b, ok[b]] - R1[0, ok1[0]])) < 1e-9
            assert np.max(np.abs(t[b, ok[b]] - t1[0, ok1[0]])) < 1e-9

    def test_degenerate_samples_inside_stack(self):
        rng = np.random.default_rng(112)
        pose, points, _, intr = _pose_and_points(rng, 4)
        points = np.stack([points, points, points])
        points[1, :, 2] = 0.0  # coplanar: homography route
        points[2] = np.outer(np.linspace(-0.3, 0.3, 4), [1.0, 0.2, 0.1])  # collinear: rejected
        pixels = np.stack([project(pose, intr, p) for p in points])

        R, t, ok = _candidates(points, pixels, intr)
        assert ok.any(axis=1).tolist() == [True, True, False]
        Rh, th, okh = _homography_pose(points[1], pixels[1], intr)
        assert np.array_equal(R[1, :2], Rh) and np.array_equal(t[1, :2], th)
        assert ok[1].tolist() == okh.tolist() + [False] * (ok.shape[1] - 2)

        R1, _, ok1 = _candidates(points[1:2], pixels[1:2], intr)
        assert ok1.any() and np.array_equal(ok[1], ok1[0])
        assert np.max(np.abs(R[1, ok[1]] - R1[0, ok1[0]])) < 1e-9
        best = _best_first(_epnp_poses(points[1], pixels[1], intr), intr, points[1], pixels[1])[0]
        assert np.linalg.norm(best.rotation @ pose.rotation.T - np.eye(3)) < 1e-5
        assert not ok[2].any()
        assert not _candidates(points[2:], pixels[2:], intr)[2].any()


class TestLMPolish:
    @staticmethod
    def _rough(rng, n=30):
        pose, points, pixels, intr = _pose_and_points(rng, n)
        noisy_pix = pixels + rng.normal(0, 1.0, pixels.shape)
        rough = SE3Pose(
            support.random_rotation_perturbation(rng, 2.0) @ pose.rotation,
            pose.translation + rng.normal(0, 0.02, 3),
        )
        return rough, points, noisy_pix, intr

    def test_never_increases_error(self):
        # the error a polish minimises is the robust cost, at any scale
        rng = np.random.default_rng(106)
        for _ in range(20):
            rough, points, noisy_pix, intr = self._rough(rng)
            for scale in (3.0, 1e3):
                before = _tukey_cost(rough, intr, points, noisy_pix, scale)
                polished = lm_pose_polish(rough, points, noisy_pix, intr, scale)
                assert _tukey_cost(polished, intr, points, noisy_pix, scale) <= before + 1e-12

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_extreme_scales(self, scale):
        # the errors are capped at the scale before they are divided by it, so
        # neither scale overflows or underflows into a RuntimeWarning (an error here)
        rng = np.random.default_rng(114)
        for _ in range(5):
            rough, points, noisy_pix, intr = self._rough(rng)
            polished = lm_pose_polish(rough, points, noisy_pix, intr, scale)
            assert np.all(np.isfinite(polished.matrix))
            before = _tukey_cost(rough, intr, points, noisy_pix, scale)
            assert _tukey_cost(polished, intr, points, noisy_pix, scale) <= before


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
        errs = _errors(res.pose, intr, points, pixels)
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
        errs = _errors(res.pose, intr, points, pixels)
        assert len(res.inliers) >= 4
        assert np.all(errs[res.inliers] <= 3.0)
        assert res.mean_error == pytest.approx(np.mean(errs[res.inliers]), rel=1e-12)

    @pytest.mark.parametrize("outliers", [0, 30])
    def test_first_chunk_size_does_not_change_the_result(self, monkeypatch, outliers):
        # samples are drawn in the serial order and consumed in draw order, so
        # the chunking changes only how many hypotheses are solved and dropped
        rng = np.random.default_rng([112, outliers])
        pose, points, pixels, intr = _pose_and_points(rng, 100)
        pixels = pixels + rng.normal(0, 0.5, pixels.shape)
        pixels[rng.choice(100, size=outliers, replace=False)] = rng.uniform(0, 512, (outliers, 2))
        results = []
        for first in (1, 2, 8):
            monkeypatch.setattr(pnp, "_FIRST_CHUNK", first)
            results.append(ransac_pnp(points, pixels, intr, inlier_px=3.0, seed=3))
        base = results[0]
        assert base.ok and base.iterations > (8 if outliers else 0)
        for res in results[1:]:
            assert res.pose.matrix.tobytes() == base.pose.matrix.tobytes()
            np.testing.assert_array_equal(res.inliers, base.inliers)
            assert res.iterations == base.iterations
            assert res.mean_error == base.mean_error

    @pytest.mark.parametrize("noise_px, outliers", [(0.0, 0), (0.5, 0), (0.5, 30)])
    def test_polish_needs_no_refit(self, monkeypatch, noise_px, outliers):
        # the best hypothesis goes straight into one robust polish on all points
        # at scale inlier_px: polishing an EPnP refit on the hypothesis' inliers
        # lands on the same pose, and the returned pose is a fixed point of the polish
        rng = np.random.default_rng([113, outliers])
        pose, points, pixels, intr = _pose_and_points(rng, 100)
        pixels = pixels + rng.normal(0, noise_px, pixels.shape)
        pixels[rng.choice(100, size=outliers, replace=False)] = rng.uniform(0, 512, (outliers, 2))
        calls = []

        def recording_polish(start, pts, pix, intr, scale, **kwargs):
            polished = lm_pose_polish(start, pts, pix, intr, scale, **kwargs)
            calls.append((start, pts, pix, scale, polished))
            return polished

        monkeypatch.setattr(pnp, "lm_pose_polish", recording_polish)
        res = ransac_pnp(points, pixels, intr, inlier_px=3.0, seed=4)
        assert res.ok and len(calls) == 1
        start, P, X, scale, first = calls[0]
        assert np.array_equal(P, points) and np.array_equal(X, pixels) and scale == 3.0
        assert res.pose is first
        inl = _errors(start, intr, points, pixels) <= 3.0
        pts, pix = points[inl], pixels[inl]
        refit = _best_first(_epnp_poses(pts, pix, intr), intr, pts, pix)[0]
        refit = lm_pose_polish(refit, points, pixels, intr, 3.0)
        assert np.abs(refit.matrix - first.matrix).max() <= 1e-8
        again = lm_pose_polish(res.pose, points, pixels, intr, 3.0)
        assert np.abs(again.matrix - res.pose.matrix).max() <= 1e-8
        # the ground-truth tolerances of the Monte Carlo recovery test
        assert support.rotation_angle_deg(res.pose.rotation, pose.rotation) < 0.5
        dist = np.linalg.norm(pose.camera_center)
        assert np.linalg.norm(res.pose.translation - pose.translation) < 0.005 * dist

    def test_candidate_order_does_not_change_the_result(self, monkeypatch):
        # the best hypothesis is a strict max over (inlier count, -mean error), so
        # the order of a sample's candidates could matter only on an exact tie:
        # reversing every sample's slots leaves criterion 8's results bit for bit
        trials = [_criterion8_draws(seed) for seed in range(100)]
        base = [ransac_pnp(*trial, inlier_px=3.0, seed=seed) for seed, trial in enumerate(trials)]

        def reversed_slots(points, pixels, intr):
            R, t, ok = _candidates(points, pixels, intr)
            return R[:, ::-1], t[:, ::-1], ok[:, ::-1]

        monkeypatch.setattr(pnp, "_candidates", reversed_slots)
        for seed, (trial, a) in enumerate(zip(trials, base)):
            b = ransac_pnp(*trial, inlier_px=3.0, seed=seed)
            assert a.ok and b.ok
            assert b.pose.matrix.tobytes() == a.pose.matrix.tobytes()
            np.testing.assert_array_equal(b.inliers, a.inliers)
            assert b.iterations == a.iterations

    def test_robust_recovery_monte_carlo(self):
        # 70 noisy inliers + 30 uniform outliers, n = 100 seeded trials. On
        # 1000 held-out trials (seeds 1000-1999) none failed, so the failure
        # rate is <= 0.003 (rule of three, 95%): the success count then has
        # mean >= 99.7 and standard deviation <= 0.55, and the bound of 95 is
        # >= 8.6 sigma below it (binomial tail of 6+ failures < 1e-6)
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


class TestPoseContinuity:
    """Acceptance criterion 1's object, queried on its 120 held-out views (the localize pool)."""

    @pytest.fixture(scope="class")
    def pool(self):
        config = RunConfig(seed=1, n_points=2000, n_views=30, n_query_views=120)
        scene = _scene_from_config(config)
        model = reconstruct_scene(scene, config, list(range(config.n_views)))[0]
        views = range(config.n_views, scene.n_views)
        return config, scene, model, estimate_views(scene, model, config, views)

    def test_pose_moves_less_than_its_pixels(self, pool):
        # the one polish is smooth in the fine pixels: no inlier set of the
        # polish can flip, so moving every pixel by up to 1e-6 px moves no
        # pose entry by more than 1e-6 (hard inlier sets jumped by up to 3.7e-3)
        config, scene, model, queries = pool
        assert all(q["result"].ok for q in queries)
        rng = np.random.default_rng(115)
        for q in queries:
            corr, base = q["corr"], q["result"].pose.matrix
            for _ in range(2):
                nudge = rng.uniform(-1e-6, 1e-6, corr.fine_pixels.shape)
                res = ransac_pnp(
                    model.points[corr.fine_points],
                    corr.fine_pixels + nudge,
                    scene.views[q["view"]][1],
                    inlier_px=config.scaled_inlier_px,
                    max_iters=config.ransac_max_iters,
                    confidence=config.ransac_confidence,
                    seed=[config.seed, _RANSAC_SEED_STREAM, q["view"]],
                )
                assert np.abs(res.pose.matrix - base).max() <= 1e-6, q["view"]
