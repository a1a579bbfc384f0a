"""Supervision losses and their analytic gradients vs finite differences."""

import numpy as np
import pytest

import support
from semidense.losses import (
    dual_softmax_grad,
    focal_loss,
    focal_loss_grad_prob,
    gt_probability_matrix,
    l2_fine_loss,
    select_supervision_entries,
    total_matching_loss,
    total_matching_loss_grad_scores,
)
from semidense.pose_matching import dual_softmax


def _random_gt(rng, shape, n_pos):
    gt = np.zeros(shape)
    rows = rng.choice(shape[0], size=n_pos, replace=False)
    cols = rng.choice(shape[1], size=n_pos, replace=False)
    gt[rows, cols] = 1.0
    return gt


class TestFocalLoss:
    def test_perfect_prediction_near_zero(self):
        gt = np.zeros((4, 6))
        gt[0, 0] = gt[1, 3] = 1.0
        prob = np.where(gt == 1.0, 1.0 - 1e-9, 1e-9)
        assert focal_loss(prob, gt) < 1e-12

    def test_wrong_prediction_large(self):
        gt = np.zeros((4, 6))
        gt[0, 0] = 1.0
        prob = np.where(gt == 1.0, 1e-6, 0.5)
        assert focal_loss(prob, gt) > 0.1

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            focal_loss(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_negative_cap(self):
        gt = np.zeros((20, 30))
        gt[0, 0] = 1.0
        pos, neg = select_supervision_entries(gt, cap_ratio=10)
        assert len(pos) == 1
        assert len(neg) == 10

    def test_selection_deterministic(self):
        rng = np.random.default_rng(91)
        gt = _random_gt(rng, (8, 9), 3)
        a = select_supervision_entries(gt)
        b = select_supervision_entries(gt)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


class TestL2FineLoss:
    def test_exact_prediction_zero(self):
        pts = np.random.default_rng(92).uniform(0, 100, size=(10, 2))
        assert l2_fine_loss(pts, pts) == 0.0

    def test_known_value(self):
        pred = np.array([[1.0, 0.0], [0.0, 2.0]])
        gt = np.zeros((2, 2))
        assert l2_fine_loss(pred, gt) == pytest.approx((1.0 + 4.0) / 2.0)

    def test_empty(self):
        assert l2_fine_loss(np.zeros((0, 2)), np.zeros((0, 2))) == 0.0


class TestGradients:
    def _fd_grad(self, f, s, h=1e-6):
        g = np.zeros_like(s)
        for i in range(s.shape[0]):
            for j in range(s.shape[1]):
                sp, sm = s.copy(), s.copy()
                sp[i, j] += h
                sm[i, j] -= h
                g[i, j] = (f(sp) - f(sm)) / (2.0 * h)
        return g

    def test_focal_grad_vs_fd_in_prob(self):
        rng = np.random.default_rng(93)
        gt = _random_gt(rng, (5, 7), 3)
        prob = rng.uniform(0.05, 0.95, size=(5, 7))
        ana = focal_loss_grad_prob(prob, gt)
        fd = self._fd_grad(lambda p: focal_loss(p, gt), prob, h=1e-7)
        np.testing.assert_allclose(ana, fd, rtol=1e-5, atol=1e-9)

    def test_dual_softmax_vjp_vs_fd(self):
        rng = np.random.default_rng(94)
        s = rng.standard_normal((5, 7))
        w = rng.standard_normal((5, 7))  # arbitrary downstream gradient

        def scalar(sx):
            return float(np.sum(dual_softmax(sx) * w))

        ana = dual_softmax_grad(s, w)
        fd = self._fd_grad(scalar, s)
        np.testing.assert_allclose(ana, fd, rtol=1e-5, atol=1e-10)

    def test_dual_softmax_vjp_equals_two_pass_factors(self):
        # the VJP formula on separately computed row and column softmaxes
        rng = np.random.default_rng(97)
        s = rng.uniform(-100.0, 100.0, (30, 40))
        w = rng.standard_normal((30, 40))
        r, c = support.two_pass_row_col_softmax(s)
        g_r, g_c = w * c, w * r
        ref = r * (g_r - np.sum(g_r * r, axis=1, keepdims=True)) + c * (
            g_c - np.sum(g_c * c, axis=0, keepdims=True)
        )
        # entries near zero come from cancelling sums: judge them on the gradient's scale
        np.testing.assert_allclose(dual_softmax_grad(s, w), ref, rtol=1e-12,
                                   atol=1e-12 * np.abs(ref).max())

    def test_total_loss_grad_vs_fd(self):
        rng = np.random.default_rng(95)
        for _ in range(5):
            s = rng.standard_normal((5, 7)) * 2.0
            gt = _random_gt(rng, (5, 7), 3)
            fine_pred = rng.uniform(0, 10, (4, 2))
            fine_gt = rng.uniform(0, 10, (4, 2))

            def scalar(sx):
                return total_matching_loss(sx, gt, fine_pred, fine_gt)

            ana = total_matching_loss_grad_scores(s, gt)
            fd = self._fd_grad(scalar, s)
            denom = max(np.abs(fd).max(), 1e-12)
            assert np.abs(ana - fd).max() / denom < 1e-4

    def test_fine_term_constant_in_scores(self):
        rng = np.random.default_rng(96)
        s = rng.standard_normal((4, 5))
        gt = _random_gt(rng, (4, 5), 2)
        pred, target = rng.uniform(0, 5, (3, 2)), rng.uniform(0, 5, (3, 2))
        base = total_matching_loss(s, gt, pred, target)
        only_coarse = total_matching_loss(s, gt, target, target)
        assert base - only_coarse == pytest.approx(l2_fine_loss(pred, target))


class TestSupervisionTarget:
    def test_gt_matrix_from_scene(self):
        from semidense.attention import AttentionStack
        from semidense.geometry import project_with_depth
        from semidense.matching import OracleMatcher
        from semidense.pose_matching import coarse_match_2d3d, synthesize_query_maps
        from semidense.scene import NoiseModel, generate_scene
        from test_pose_matching import build_model

        scene = generate_scene(97, 80, 5, NoiseModel())
        matcher = OracleMatcher(scene)
        model = build_model(scene, matcher)
        pose = scene.views[4][0]
        qmaps = synthesize_query_maps(scene, 4)
        scores, prob, _ = coarse_match_2d3d(model, qmaps, AttentionStack(layers=[]))
        gt = gt_probability_matrix(model, pose, qmaps)
        assert gt.shape == prob.shape
        assert np.all(gt.sum(axis=1) <= 1.0)
        assert gt.sum() > 0
        # each positive entry's column is the crop cell its point projects into
        j, q = np.nonzero(gt)
        centers = qmaps.coarse_cell_pixels()[q]
        projections = project_with_depth(pose, qmaps.intrinsics, model.points)[0][j]
        assert np.all(np.linalg.norm(centers - projections, axis=1) <= 8.0)
        # a matcher fed oracle descriptors scores near zero against its target
        assert focal_loss(prob, gt) < focal_loss(np.full_like(prob, 0.5), gt)
        # and the analytic gradient of the full instance stays finite
        g = total_matching_loss_grad_scores(scores, gt)
        assert np.all(np.isfinite(g))
