"""Reference-node selection, sub-pixel refinement, and depth-only optimization."""

import numpy as np
import pytest
import support

from semidense.geometry import SE3Pose, backproject, project
from semidense.matching import OracleMatcher, select_view_pairs
from semidense.refine import (
    DepthProblem,
    RefinedTrack,
    RefineStats,
    SourceNode,
    aggregate_features,
    optimize_depth,
    refine_reconstruction,
    refine_track_nodes,
    select_reference_node,
)
from semidense.scene import NoiseModel, ViewObservations, generate_scene, grid_cell_center
from semidense.tracks import FeatureTrack, build_tracks, triangulate_tracks

ZERO = NoiseModel()


def _build_coarse(scene, matcher, min_track_length=3):
    matches = []
    for a, b in select_view_pairs(scene.views):
        matches.extend(
            matcher.coarse_match_pair(matcher.observations(a), matcher.observations(b))
        )
    tracks, stats = build_tracks(matches, min_track_length=min_track_length)
    poses = [p for p, _ in scene.views]
    intrs = [k for _, k in scene.views]
    return triangulate_tracks(tracks, poses, intrs, stats=stats), poses, intrs


class TestSelectReferenceNode:
    def test_symmetric_views_tie_break_to_lowest(self):
        intr = support.default_intrinsics()
        a = support.look_at_pose(np.array([4.0, 0.0, 1.0]), np.zeros(3))
        b = support.look_at_pose(np.array([-4.0, 0.0, 1.0]), np.zeros(3))
        track = FeatureTrack(
            track_id=0,
            nodes=[(0, (260.0, 260.0)), (1, (260.0, 260.0))],
            point_coarse=np.zeros(3),
        )
        assert select_reference_node(track, [a, b]) == 0
        del intr

    def test_frontal_view_beats_oblique(self):
        # view 2 looks straight at the point; others are 40 degrees off
        intr = support.default_intrinsics()
        point = np.array([0.0, 0.0, 0.2])
        positions = [
            np.array([3.0, 0.0, 2.5]),
            np.array([-3.0, 1.0, 2.5]),
            np.array([0.0, 0.0, 4.0]),   # frontal: straight above, looking down
            np.array([0.0, 3.0, 2.5]),
            np.array([2.0, -2.5, 2.5]),
        ]
        poses = [support.look_at_pose(p, point) for p in positions]
        nodes = [(v, tuple(support.pixel_of(poses[v], intr, point))) for v in range(5)]
        track = FeatureTrack(track_id=0, nodes=nodes, point_coarse=point)
        got = select_reference_node(track, poses)

        # brute-force re-computation of the criterion
        best, best_angle = None, np.inf
        for idx in range(5):
            axis = poses[idx].rotation[2]
            angles = []
            for k in range(5):
                if k == idx:
                    continue
                ray = point - poses[k].camera_center
                ray = ray / np.linalg.norm(ray)
                angles.append(np.arccos(np.clip(axis @ ray, -1, 1)))
            if np.mean(angles) < best_angle:
                best_angle, best = np.mean(angles), idx
        assert got == best == 2

    def test_single_node_rejected(self):
        track = FeatureTrack(track_id=0, nodes=[(0, (4.0, 4.0))], point_coarse=np.zeros(3))
        with pytest.raises(ValueError):
            select_reference_node(track, [SE3Pose.identity()])


class TestRefineTrackNodes:
    def test_zero_noise_exact_projections(self):
        scene = generate_scene(51, 100, 6, ZERO)
        matcher = OracleMatcher(scene)
        recon, poses, intrs = _build_coarse(scene, matcher)
        assert recon.tracks
        for track in recon.tracks[:20]:
            ref_idx = select_reference_node(track, poses)
            rt = refine_track_nodes(track, ref_idx, matcher)
            assert rt is not None
            ref_obs = matcher.observations(rt.ref_view)
            pid = ref_obs.winner_point_for_cell(rt.ref_cell)
            for s in rt.sources:
                true_pix = project(poses[s.view_id], intrs[s.view_id], scene.points[pid])
                np.testing.assert_allclose(s.pixel, true_pix, atol=1e-10)
            true_ref = project(poses[rt.ref_view], intrs[rt.ref_view], scene.points[pid])
            np.testing.assert_allclose(rt.u_ref, true_ref, atol=1e-10)

    def test_refinements_stay_in_window(self):
        scene = generate_scene(52, 150, 6, NoiseModel(fine_noise_sigma=2.5))
        matcher = OracleMatcher(scene)
        recon, poses, _ = _build_coarse(scene, matcher)
        for track in recon.tracks[:30]:
            ref_idx = select_reference_node(track, poses)
            rt = refine_track_nodes(track, ref_idx, matcher)
            if rt is None:
                continue
            for s in rt.sources:
                assert np.max(np.abs(s.pixel - np.asarray(s.cell))) <= 4.0 + 1e-12

    def test_all_low_confidence_drops_track(self):
        scene = generate_scene(53, 100, 6, ZERO)
        matcher = OracleMatcher(scene)
        recon, poses, _ = _build_coarse(scene, matcher)
        track = recon.tracks[0]
        ref_idx = select_reference_node(track, poses)
        stats = RefineStats()
        rt = refine_track_nodes(track, ref_idx, matcher, min_confidence=1.5, stats=stats)
        assert rt is None
        assert stats.dropped_tracks == 1


class TestOptimizeDepth:
    def test_exact_sources_recover_true_depth(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            rt, poses, intrs, d_true = support.random_refined_track(rng, 8, pixel_noise=0.0)
            rt.point_init = rt.point_init * 1.1  # perturb the init
            out = optimize_depth(rt, poses, intrs)
            assert abs(out.depth - d_true) / d_true < 1e-8
            assert out.converged
            assert out.final_cost <= out.initial_cost + 1e-12

    def test_matches_golden_section_oracle(self):
        rng = np.random.default_rng(62)
        for _ in range(50):
            rt, poses, intrs, d_true = support.random_refined_track(rng, 8, pixel_noise=0.5)
            out = optimize_depth(rt, poses, intrs)
            problem = DepthProblem.from_track(rt, poses, intrs)
            gs = support.golden_section_minimize(
                problem.cost,
                0.5 * d_true,
                2.0 * d_true,
                tol=1e-10 * d_true,
            )
            assert abs(out.depth - gs) / gs < 1e-6

    def test_refined_point_on_reference_ray(self):
        rng = np.random.default_rng(63)
        rt, poses, intrs, _ = support.random_refined_track(rng, 6, pixel_noise=0.3)
        out = optimize_depth(rt, poses, intrs)
        expected = poses[0].inverse().transform(backproject(rt.u_ref, out.depth, intrs[0]))
        np.testing.assert_allclose(out.point, expected, atol=1e-12)

    def test_pure_forward_motion_flagged(self):
        # source camera displaced along the reference ray: depth unobservable
        intr = support.default_intrinsics()
        ref = SE3Pose.identity()
        src = SE3Pose(np.eye(3), np.array([0.0, 0.0, 0.5]))
        u_ref = np.array([intr.cx, intr.cy])
        rt = RefinedTrack(
            track_id=0,
            ref_view=0,
            ref_cell=tuple(grid_cell_center(u_ref)),
            u_ref=u_ref,
            sources=[
                SourceNode(view_id=1, cell=(intr.cx, intr.cy), pixel=u_ref.copy(), confidence=1.0)
            ],
            point_init=np.array([0.0, 0.0, 4.0]),
        )
        out = optimize_depth(rt, [ref, src], [intr, intr])
        assert not out.converged

    def test_monotone_improvement(self):
        rng = np.random.default_rng(64)
        for _ in range(30):
            rt, poses, intrs, _ = support.random_refined_track(rng, 5, pixel_noise=1.0)
            out = optimize_depth(rt, poses, intrs)
            assert out.final_cost <= out.initial_cost + 1e-12


class TestDepthJacobian:
    def _fd_jacobian(self, rt, poses, intrs, d, h):
        """Central differences on reference-ray source residuals (independent math)."""
        def residuals(depth):
            res = []
            p_world = poses[rt.ref_view].inverse().transform(
                backproject(rt.u_ref, depth, intrs[rt.ref_view])
            )
            for s in rt.sources:
                pix = support.pixel_of(poses[s.view_id], intrs[s.view_id], p_world)
                res.append(pix - s.pixel)
            return np.array(res)

        return (residuals(d + h) - residuals(d - h)) / (2.0 * h)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(65)
        worst = 0.0
        for _ in range(200):
            rt, poses, intrs, d_true = support.random_refined_track(rng, 6, pixel_noise=0.5)
            d = d_true * rng.uniform(0.9, 1.1)
            ana = DepthProblem.from_track(rt, poses, intrs).jacobian(d)
            fd = self._fd_jacobian(rt, poses, intrs, d, h=1e-5 * d)
            rel = np.abs(ana - fd).max() / max(np.abs(fd).max(), 1e-12)
            worst = max(worst, rel)
        assert worst < 1e-5

    def test_reference_view_source_is_zero(self):
        intr = support.default_intrinsics()
        pose = support.look_at_pose(np.array([4.0, 0.0, 1.0]), np.zeros(3))
        u_ref = np.array([250.0, 250.0])
        rt = RefinedTrack(
            track_id=0,
            ref_view=0,
            ref_cell=tuple(grid_cell_center(u_ref)),
            u_ref=u_ref,
            sources=[SourceNode(view_id=0, cell=(4.0, 4.0), pixel=u_ref.copy(), confidence=1.0)],
            point_init=np.array([0.0, 0.0, 0.0]),
        )
        J = DepthProblem.from_track(rt, [pose], [intr]).jacobian(4.0)
        np.testing.assert_allclose(J, 0.0, atol=1e-12)

    def test_pure_rotation_is_zero(self):
        intr = support.default_intrinsics()
        ref = support.look_at_pose(np.array([4.0, 0.0, 1.0]), np.zeros(3))
        from semidense.geometry import rotation_from_axis_angle

        R = rotation_from_axis_angle(np.array([0.0, 1.0, 0.0]), 0.1) @ ref.rotation
        rot_only = SE3Pose(R, -R @ ref.camera_center)
        u_ref = np.array([250.0, 250.0])
        rt = RefinedTrack(
            track_id=0,
            ref_view=0,
            ref_cell=tuple(grid_cell_center(u_ref)),
            u_ref=u_ref,
            sources=[SourceNode(view_id=1, cell=(4.0, 4.0), pixel=u_ref.copy(), confidence=1.0)],
            point_init=np.zeros(3),
        )
        J = DepthProblem.from_track(rt, [ref, rot_only], [intr, intr]).jacobian(4.0)
        np.testing.assert_allclose(J, 0.0, atol=1e-9)


def _obs_with_descriptors(view_id, cells, desc_coarse, desc_fine):
    n = len(cells)
    cells = np.asarray(cells, dtype=float)
    return ViewObservations(
        view_id=view_id,
        point_ids=np.arange(n),
        pixels=cells.copy(),
        cells=cells,
        desc_coarse=np.asarray(desc_coarse, dtype=float),
        desc_fine=np.asarray(desc_fine, dtype=float),
        cell_winner=np.ones(n, dtype=bool),
        visible_mask=np.ones(n, dtype=bool),
    )


def _two_node_track(point=np.array([0.0, 0.0, 1.0])):
    return RefinedTrack(
        track_id=7,
        ref_view=0,
        ref_cell=(4.0, 4.0),
        u_ref=np.array([4.0, 4.0]),
        sources=[SourceNode(view_id=1, cell=(4.0, 4.0), pixel=np.array([4.0, 4.0]), confidence=1.0)],
        point_init=point,
        depth=1.0,
        point=point,
    )


class TestAggregateFeatures:
    def test_identical_descriptors_pass_through(self):
        d = np.array([[0.6, 0.8]])
        obs = {
            0: _obs_with_descriptors(0, [[4.0, 4.0]], d, d),
            1: _obs_with_descriptors(1, [[4.0, 4.0]], d, d),
        }
        model = aggregate_features([_two_node_track()], obs)
        assert model.n_points == 1
        np.testing.assert_allclose(model.coarse_features[0], [0.6, 0.8], atol=1e-12)

    def test_antipodal_descriptors_drop_point(self):
        obs = {
            0: _obs_with_descriptors(0, [[4.0, 4.0]], [[1.0, 0.0]], [[1.0, 0.0]]),
            1: _obs_with_descriptors(1, [[4.0, 4.0]], [[-1.0, 0.0]], [[-1.0, 0.0]]),
        }
        stats = RefineStats()
        model = aggregate_features([_two_node_track()], obs, stats)
        assert model.n_points == 0
        assert stats.dropped_degenerate_features == 1

    def test_averaging_reduces_descriptor_noise(self):
        rng = np.random.default_rng(66)
        wins = 0
        for _ in range(100):
            true = rng.standard_normal(16)
            true /= np.linalg.norm(true)
            noisy = true + 0.1 * rng.standard_normal((10, 16))
            noisy /= np.linalg.norm(noisy, axis=1, keepdims=True)
            obs = {
                v: _obs_with_descriptors(v, [[4.0, 4.0]], noisy[v][None], noisy[v][None])
                for v in range(10)
            }
            rt = _two_node_track()
            rt.sources = [
                SourceNode(view_id=v, cell=(4.0, 4.0), pixel=np.array([4.0, 4.0]), confidence=1.0)
                for v in range(1, 10)
            ]
            model = aggregate_features([rt], obs)
            agg_sim = model.coarse_features[0] @ true
            single_sim = np.mean(noisy @ true)
            wins += agg_sim > single_sim
        assert wins >= 95


class TestRefineReconstruction:
    def test_refined_beats_coarse_at_half_pixel_noise(self):
        scene = generate_scene(55, 150, 8, NoiseModel(fine_noise_sigma=0.5))
        matcher = OracleMatcher(scene)
        recon, poses, intrs = _build_coarse(scene, matcher)
        obs = {v: matcher.observations(v) for v in range(scene.n_views)}
        model, refined, stats = refine_reconstruction(recon, poses, intrs, matcher, obs)
        assert model.n_points > 50

        def median_err(points, track_ids):
            errs = []
            for p, tid in zip(points, track_ids):
                track = next(t for t in recon.tracks if t.track_id == tid)
                v0, cell0 = track.nodes[0]
                pid = matcher.observations(v0).winner_point_for_cell(cell0)
                errs.append(np.linalg.norm(p - scene.points[pid]))
            return float(np.median(errs))

        coarse_med = median_err(recon.points, [t.track_id for t in recon.tracks])
        refined_med = median_err(model.points, model.track_ids)
        assert refined_med < coarse_med

    def test_feature_rows_unit_norm(self):
        scene = generate_scene(56, 100, 6, NoiseModel(descriptor_noise_sigma=0.15))
        matcher = OracleMatcher(scene)
        recon, poses, intrs = _build_coarse(scene, matcher)
        obs = {v: matcher.observations(v) for v in range(scene.n_views)}
        model, _, _ = refine_reconstruction(recon, poses, intrs, matcher, obs)
        np.testing.assert_allclose(
            np.linalg.norm(model.coarse_features, axis=1), 1.0, atol=1e-6
        )
        np.testing.assert_allclose(
            np.linalg.norm(model.fine_features, axis=1), 1.0, atol=1e-6
        )
