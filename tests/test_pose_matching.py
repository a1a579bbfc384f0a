"""Coarse/fine 2D-3D matching: dual-softmax, MNN selection, window expectation."""

import numpy as np
import pytest

from semidense.attention import AttentionStack
from semidense.matching import OracleMatcher, select_view_pairs
from semidense.pose_matching import (
    CorrespondenceSet,
    QueryFeatureMaps,
    coarse_match_2d3d,
    dual_softmax,
    fine_match_2d3d,
    ground_truth_matches,
    mutual_nearest_neighbors,
    synthesize_query_maps,
    window_expectation,
)
from semidense.refine import PointCloudModel, refine_reconstruction
from semidense.scene import GRID_STRIDE, NoiseModel, generate_scene, grid_cell_center
from semidense.tracks import build_tracks, triangulate_tracks

BYPASS = AttentionStack(layers=[])
ZERO = NoiseModel()


def _unit_rows(rng, n, c):
    m = rng.standard_normal((n, c))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def random_model(rng, n=20, cc=16, cf=16) -> PointCloudModel:
    return PointCloudModel(
        points=rng.uniform(-0.5, 0.5, size=(n, 3)),
        coarse_features=_unit_rows(rng, n, cc),
        fine_features=_unit_rows(rng, n, cf),
        track_ids=np.arange(n),
    )


def random_query(rng, hw=16, cc=16, cf=16) -> QueryFeatureMaps:
    from semidense.geometry import CameraIntrinsics

    size = hw * GRID_STRIDE
    intr = CameraIntrinsics(fx=200.0, fy=200.0, cx=size / 2, cy=size / 2, width=size, height=size)
    coarse = rng.standard_normal((hw, hw, cc))
    coarse /= np.linalg.norm(coarse, axis=2, keepdims=True)
    fine = rng.standard_normal((size // 2, size // 2, cf))
    fine /= np.linalg.norm(fine, axis=2, keepdims=True)
    return QueryFeatureMaps(coarse=coarse, fine=fine, intrinsics=intr)


def build_model(scene, matcher):
    matches = []
    for a, b in select_view_pairs(scene.views):
        matches.extend(
            matcher.coarse_match_pair(matcher.observations(a), matcher.observations(b))
        )
    tracks, stats = build_tracks(matches)
    poses = [p for p, _ in scene.views]
    intrs = [k for _, k in scene.views]
    recon = triangulate_tracks(tracks, poses, intrs, stats=stats)
    obs = {v: matcher.observations(v) for v in range(scene.n_views)}
    model, _, _ = refine_reconstruction(recon, poses, intrs, matcher, obs)
    return model


class TestDualSoftmax:
    def test_bounds_and_factorization(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            s = rng.standard_normal((8, 12)) * rng.uniform(0.5, 5.0)
            p = dual_softmax(s)
            assert np.all(p >= 0.0) and np.all(p <= 1.0)
            rows = np.exp(s - s.max(axis=1, keepdims=True))
            rows /= rows.sum(axis=1, keepdims=True)
            cols = np.exp(s - s.max(axis=0, keepdims=True))
            cols /= cols.sum(axis=0, keepdims=True)
            assert np.all(p <= rows + 1e-15)
            assert np.all(p <= cols + 1e-15)

    def test_dominant_diagonal(self):
        for scale in (10.0, 50.0, 200.0):
            s = np.eye(5) * scale
            p = dual_softmax(s)
            pairs = mutual_nearest_neighbors(p, threshold=0.0)
            assert {(int(a), int(b)) for a, b in pairs} == {(i, i) for i in range(5)}
        # diagonal probability approaches 1 as the scale grows
        assert np.diag(dual_softmax(np.eye(5) * 200.0)).min() > 0.99

    def test_mnn_uniqueness(self):
        rng = np.random.default_rng(72)
        for _ in range(50):
            p = dual_softmax(rng.standard_normal((10, 14)) * 3.0)
            pairs = mutual_nearest_neighbors(p, threshold=0.0)
            assert len(set(pairs[:, 0])) == len(pairs)
            assert len(set(pairs[:, 1])) == len(pairs)


class TestCoarseMatch2d3d:
    def test_empty_model(self):
        rng = np.random.default_rng(73)
        query = random_query(rng)
        model = PointCloudModel(
            points=np.zeros((0, 3)),
            coarse_features=np.zeros((0, 16)),
            fine_features=np.zeros((0, 16)),
            track_ids=np.zeros(0, dtype=int),
        )
        scores, prob, corr = coarse_match_2d3d(model, query, BYPASS)
        assert corr.n_coarse == 0
        assert scores.shape[0] == 0

    def test_nonfinite_features_rejected(self):
        rng = np.random.default_rng(74)
        model = random_model(rng)
        query = random_query(rng)
        model.coarse_features[0, 0] = np.nan
        with pytest.raises(ValueError):
            coarse_match_2d3d(model, query, BYPASS)

    def test_bypass_oracle_precision_one(self):
        scene = generate_scene(75, 200, 7, ZERO)
        matcher = OracleMatcher(scene)
        model = build_model(scene, matcher)
        assert model.n_points > 100

        query_view = 6
        qmaps = synthesize_query_maps(scene, query_view)
        _, prob, corr = coarse_match_2d3d(model, qmaps, BYPASS)

        # ground truth: model point -> its scene point -> cell in the query view
        obs = matcher.observations(query_view)
        scene_pids = []
        for j in range(model.n_points):
            d = np.linalg.norm(scene.points - model.points[j], axis=1)
            scene_pids.append(int(np.argmin(d)))
        winners = {}
        for row in np.flatnonzero(obs.cell_winner):
            winners[int(obs.point_ids[row])] = tuple(obs.cells[row])
        expected = {
            j: winners[scene_pids[j]]
            for j in range(model.n_points)
            if scene_pids[j] in winners
        }
        got = {int(j): tuple(pix) for j, pix in zip(corr.coarse_points, corr.coarse_pixels)}
        # precision 1.0: every produced match is the true cell
        for j, cell in got.items():
            assert expected.get(j) == cell
        # and every cell-winning model point is matched
        assert set(expected).issubset(set(got))

    def test_permutation_equivariance_exact(self):
        rng = np.random.default_rng(76)
        stack = AttentionStack.random(2, 16, seed=77)
        for trial in range(10):
            model = random_model(rng, n=15)
            query = random_query(rng, hw=8)
            _, _, corr = coarse_match_2d3d(model, query, stack, tau=0.2, theta=0.0)
            perm = rng.permutation(15)
            permuted = PointCloudModel(
                points=model.points[perm],
                coarse_features=model.coarse_features[perm],
                fine_features=model.fine_features[perm],
                track_ids=model.track_ids[perm],
            )
            _, _, corr_p = coarse_match_2d3d(permuted, query, stack, tau=0.2, theta=0.0)
            base = {(int(j), tuple(px)) for j, px in zip(corr.coarse_points, corr.coarse_pixels)}
            remapped = {
                (int(perm[j]), tuple(px))
                for j, px in zip(corr_p.coarse_points, corr_p.coarse_pixels)
            }
            assert base == remapped


class TestWindowExpectation:
    def test_one_hot_at_center(self):
        positions = np.array([[u, v] for v in (2.0, 4.0, 6.0) for u in (2.0, 4.0, 6.0)])
        p = np.zeros(9)
        p[4] = 1.0
        np.testing.assert_allclose(window_expectation(p, positions), [4.0, 4.0])

    def test_uniform_is_center(self):
        positions = np.array([[u, v] for v in (0.0, 2.0, 4.0) for u in (0.0, 2.0, 4.0)])
        p = np.full(9, 1.0 / 9.0)
        np.testing.assert_allclose(window_expectation(p, positions), [2.0, 2.0])

    def test_symmetric_bimodal_midpoint(self):
        positions = np.array([[0.0, 0.0], [4.0, 0.0]])
        p = np.array([0.5, 0.5])
        # direct expectation sum: 0.5*0 + 0.5*4 = 2
        np.testing.assert_allclose(window_expectation(p, positions), [2.0, 0.0])


class TestFineMatch2d3d:
    def test_zero_noise_subpixel_within_fine_stride(self):
        scene = generate_scene(78, 150, 6, ZERO)
        matcher = OracleMatcher(scene)
        model = build_model(scene, matcher)
        qmaps = synthesize_query_maps(scene, 5)
        _, _, corr = coarse_match_2d3d(model, qmaps, BYPASS)
        corr = fine_match_2d3d(model, qmaps, corr, BYPASS)
        assert corr.n_fine == corr.n_coarse > 50

        scene_pids = [
            int(np.argmin(np.linalg.norm(scene.points - model.points[j], axis=1)))
            for j in range(model.n_points)
        ]
        from semidense.geometry import project

        pose, intr = scene.views[5]
        errs = []
        for j, pix in zip(corr.fine_points, corr.fine_pixels):
            true = project(pose, intr, scene.points[scene_pids[j]])
            errs.append(np.linalg.norm(pix - true))
        # nearest-fine-cell splat quantizes to the stride-2 grid
        assert np.median(errs) <= np.sqrt(2.0)
        assert np.mean(errs) <= 2.0

    def test_expectation_inside_window(self):
        rng = np.random.default_rng(79)
        model = random_model(rng, n=30)
        query = random_query(rng, hw=16)
        _, _, corr = coarse_match_2d3d(model, query, BYPASS, theta=0.0)
        out = fine_match_2d3d(model, query, corr, BYPASS)
        for cell, pix in zip(out.coarse_pixels, out.fine_pixels):
            assert np.max(np.abs(pix - cell)) <= 5.0 + 1e-9

    def test_border_windows_clamped_and_contained(self):
        rng = np.random.default_rng(80)
        model = random_model(rng, n=4)
        query = random_query(rng, hw=16)
        corr = CorrespondenceSet(
            coarse_points=np.arange(4),
            coarse_pixels=np.array([[4.0, 4.0], [124.0, 4.0], [4.0, 124.0], [124.0, 124.0]]),
            coarse_conf=np.ones(4),
        )
        out = fine_match_2d3d(model, query, corr, BYPASS)
        # the low corner window [0, 4] fits exactly; high-edge windows shift
        np.testing.assert_array_equal(out.fine_clamped, [False, True, True, True])
        size = query.intrinsics.width
        assert np.all(out.fine_pixels >= 0) and np.all(out.fine_pixels <= size - 2)

    def test_even_window_rejected(self):
        rng = np.random.default_rng(81)
        model = random_model(rng, n=2)
        query = random_query(rng)
        with pytest.raises(ValueError):
            fine_match_2d3d(model, query, CorrespondenceSet(), BYPASS, window=4)


class TestGroundTruthMatches:
    def test_cells_match_projections(self):
        scene = generate_scene(82, 60, 4, ZERO)
        matcher = OracleMatcher(scene)
        model = build_model(scene, matcher)
        pose, intr = scene.views[0]
        ok, cells, pix = ground_truth_matches(model, pose, intr)
        assert ok.sum() > 0
        wc = intr.width // GRID_STRIDE
        for j in np.flatnonzero(ok):
            center = grid_cell_center(pix[j])
            expected = int(center[1] // GRID_STRIDE) * wc + int(center[0] // GRID_STRIDE)
            assert cells[j] == expected
