"""Reference-node selection, sub-pixel refinement, and depth-only optimization."""

import dataclasses

import numpy as np
import pytest
import support

from semidense.cli import reconstruct_scene
from semidense.config import RunConfig
from semidense.geometry import (
    SE3Pose,
    ViewTable,
    backproject,
    pinhole,
    pinhole_jacobian,
    project,
    rotation_from_axis_angle,
)
from semidense.matching import FineMatchQuery, OracleMatcher, select_view_pairs
from semidense.refine import (
    LM_INITIAL_LAMBDA,
    LM_MAX_ITERS,
    LM_RELATIVE_TOL,
    MIN_DEPTH_CLAMP,
    DepthProblem,
    PointCloudModel,
    RefinedTrack,
    RefinedTracks,
    RefineStats,
    SourceNode,
    aggregate_features,
    optimize_depth,
    optimize_depths,
    refine_nodes,
    refine_reconstruction,
    refine_track_nodes,
    reference_nodes,
    select_reference_node,
)
from semidense.scene import NoiseModel, ViewObservations, generate_scene, grid_cell_center
from semidense.tracks import build_tracks, triangulate_tracks

ZERO = NoiseModel()


def _build_coarse(scene, matcher, min_track_length=3):
    matches = []
    for a, b in select_view_pairs(scene.views):
        matches.append(
            matcher.coarse_match_pair(matcher.observations(a), matcher.observations(b))
        )
    tracks, stats = build_tracks(matches, min_track_length=min_track_length)
    poses = [p for p, _ in scene.views]
    intrs = [k for _, k in scene.views]
    return triangulate_tracks(tracks, poses, intrs, stats=stats), poses, intrs


def _records(refined):
    """A RefinedTracks table as a list of one-track records."""
    return [refined.record(i) for i in range(len(refined))]


class TestSelectReferenceNode:
    def test_symmetric_views_tie_break_to_lowest(self):
        intr = support.default_intrinsics()
        a = support.look_at_pose(np.array([4.0, 0.0, 1.0]), np.zeros(3))
        b = support.look_at_pose(np.array([-4.0, 0.0, 1.0]), np.zeros(3))
        track = support.make_tracks(
            [[(0, (260.0, 260.0)), (1, (260.0, 260.0))]], points=[np.zeros(3)]
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
        track = support.make_tracks([nodes], points=[point])
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
        track = support.make_tracks([[(0, (4.0, 4.0))]], points=[np.zeros(3)])
        with pytest.raises(ValueError):
            select_reference_node(track, [SE3Pose.identity()])


class TestRefineTrackNodes:
    def test_zero_noise_exact_projections(self):
        scene = generate_scene(51, 100, 6, ZERO)
        matcher = OracleMatcher(scene)
        recon, poses, intrs = _build_coarse(scene, matcher)
        assert len(recon.tracks)
        for i in range(min(20, len(recon.tracks))):
            track = recon.tracks.take([i])
            ref_idx = select_reference_node(track, poses)
            rt = refine_track_nodes(track, ref_idx, matcher)
            assert rt is not None
            pid = support.winner_point(matcher.observations(rt.ref_view), rt.ref_cell)
            for s in rt.sources:
                true_pix = project(poses[s.view_id], intrs[s.view_id], scene.points[pid])
                np.testing.assert_allclose(s.pixel, true_pix, atol=1e-10)
            true_ref = project(poses[rt.ref_view], intrs[rt.ref_view], scene.points[pid])
            np.testing.assert_allclose(rt.u_ref, true_ref, atol=1e-10)

    def test_refinements_stay_in_window(self):
        scene = generate_scene(52, 150, 6, NoiseModel(fine_noise_sigma=2.5))
        matcher = OracleMatcher(scene)
        recon, poses, _ = _build_coarse(scene, matcher)
        for i in range(min(30, len(recon.tracks))):
            track = recon.tracks.take([i])
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
        track = recon.tracks.take([0])
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
        model = aggregate_features(RefinedTracks.from_records([_two_node_track()]), obs)
        assert model.n_points == 1
        np.testing.assert_allclose(model.coarse_features[0], [0.6, 0.8], atol=1e-12)

    def test_antipodal_descriptors_drop_point(self):
        obs = {
            0: _obs_with_descriptors(0, [[4.0, 4.0]], [[1.0, 0.0]], [[1.0, 0.0]]),
            1: _obs_with_descriptors(1, [[4.0, 4.0]], [[-1.0, 0.0]], [[-1.0, 0.0]]),
        }
        stats = RefineStats()
        model = aggregate_features(RefinedTracks.from_records([_two_node_track()]), obs, stats)
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
            model = aggregate_features(RefinedTracks.from_records([rt]), obs)
            agg_sim = model.coarse_features[0] @ true
            single_sim = np.mean(noisy @ true)
            wins += agg_sim > single_sim
        assert wins >= 95


    def test_matches_per_track_reference(self):
        scene = support.onboard_scene(9)
        matcher = OracleMatcher(scene)
        recon, poses, intrs = _build_coarse(scene, matcher)
        obs = {v: matcher.observations(v) for v in range(scene.n_views)}
        _, refined, _ = refine_reconstruction(recon, poses, intrs, matcher, obs)
        refined = _records(refined)
        assert len({len(rt.sources) for rt in refined}) > 3  # several node-count groups

        # an ungrounded reference, ungrounded sources, no grounded node, no point
        empty = (4.0, 4.0)
        assert all(support.winner_row(o, empty) is None for o in obs.values())
        edited = list(refined)
        ungrounded = [dataclasses.replace(s, cell=empty) for s in refined[1].sources]
        edited[0] = dataclasses.replace(refined[0], ref_cell=empty)
        edited[1] = dataclasses.replace(refined[1], sources=ungrounded)
        edited[2] = dataclasses.replace(refined[2], ref_cell=empty, sources=ungrounded)
        edited[3] = dataclasses.replace(refined[3], point=None)
        # a two-node track whose source descriptors are the negated reference's: zero mean
        rt = edited[4] = dataclasses.replace(refined[4], sources=refined[4].sources[:1])
        src = obs[rt.sources[0].view_id]
        desc_c, desc_f = src.desc_coarse.copy(), src.desc_fine.copy()
        ref_row = support.winner_row(obs[rt.ref_view], rt.ref_cell)
        src_row = support.winner_row(src, rt.sources[0].cell)
        desc_c[src_row] = -obs[rt.ref_view].desc_coarse[ref_row]
        desc_f[src_row] = -obs[rt.ref_view].desc_fine[ref_row]
        negated = dict(obs)
        negated[src.view_id] = dataclasses.replace(src, desc_coarse=desc_c, desc_fine=desc_f)

        for tracks, observations, dropped in ((refined, obs, 0), (edited, negated, 2), ([], obs, 0)):
            stats, ref_stats = RefineStats(), RefineStats()
            got = aggregate_features(RefinedTracks.from_records(tracks), observations, stats)
            want = _ref_aggregate_features(tracks, observations, ref_stats)
            _assert_same_model(got, want)
            assert stats == ref_stats
            assert stats.dropped_degenerate_features == dropped


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
            nodes = dict(zip(recon.tracks.track_ids.tolist(), support.node_lists(recon.tracks)))
            for p, tid in zip(points, track_ids.tolist()):
                v0, cell0 = nodes[tid][0]
                pid = support.winner_point(matcher.observations(v0), cell0)
                errs.append(np.linalg.norm(p - scene.points[pid]))
            return float(np.median(errs))

        coarse_med = median_err(recon.points, recon.tracks.track_ids)
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

    def test_reconstruct_scene_builds_no_per_track_records(self, monkeypatch):
        built = []
        for cls in (RefinedTrack, SourceNode):
            def counting(self, *args, _init=cls.__init__, **kwargs):
                built.append(type(self).__name__)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        config = RunConfig(
            seed=1, n_points=400, n_views=12, n_query_views=0,
            fine_noise_sigma=0.5, outlier_rate=0.1, dropout_rate=0.1,
            image_size=2048, focal=5000.0, distance_min=3.5, distance_max=5.0, jitter_deg=3.0,
        )
        model, _, refined, _, _ = reconstruct_scene(support.onboard_scene(1), config, list(range(12)))
        assert model.n_points > 100
        assert built == []
        rt = refined.record(0)  # the counter does see records being built
        assert built == ["SourceNode"] * len(rt.sources) + ["RefinedTrack"]


# Reference: the one-track refinement the batched kernels replaced, kept
# here verbatim so the batches can be checked against it bit for bit.


def _ref_select_reference_node(track, poses):
    nodes, point_coarse = support.node_lists(track)[0], track.points[0]
    R = np.array([poses[view_id].rotation for view_id, _ in nodes])
    t = np.array([poses[view_id].translation for view_id, _ in nodes])
    centers = -(t[:, None, :] @ R)[:, 0]
    d = point_coarse - centers
    rays = d / np.linalg.norm(d, axis=1, keepdims=True)
    cos = np.clip((R[:, None, 2, :] * rays[None]).sum(axis=2), -1.0, 1.0)
    n = len(rays)
    others = np.arccos(cos)[~np.eye(n, dtype=bool)].reshape(n, n - 1)
    best_idx, best_angle = 0, np.inf
    for idx, mean_angle in enumerate(others.mean(axis=1).tolist()):
        if mean_angle < best_angle - 1e-12:
            best_angle, best_idx = mean_angle, idx
    return best_idx


def _ref_refine_track_nodes(track, reference_idx, matcher, min_confidence, stats):
    nodes = support.node_lists(track)[0]
    ref_view, ref_cell = nodes[reference_idx]
    ref_cell_arr = np.asarray(ref_cell, dtype=float)
    ref_result = matcher.fine_refine(FineMatchQuery(ref_view, ref_cell_arr, ref_view, ref_cell_arr))
    if ref_result.confidence < min_confidence:
        stats.dropped_tracks += 1
        return None
    sources = []
    for idx, (view_id, cell) in enumerate(nodes):
        if idx == reference_idx:
            continue
        res = matcher.fine_refine(
            FineMatchQuery(ref_view, ref_cell_arr, view_id, np.asarray(cell, dtype=float))
        )
        if res.confidence < min_confidence:
            stats.dropped_low_confidence_nodes += 1
            continue
        sources.append(SourceNode(view_id, cell, res.pixel, res.confidence))
    if not sources:
        stats.dropped_tracks += 1
        return None
    return RefinedTrack(
        track_id=int(track.track_ids[0]), ref_view=ref_view, ref_cell=ref_cell,
        u_ref=ref_result.pixel, sources=sources, point_init=track.points[0].copy(),
    )


class _RefDepthProblem:
    def __init__(self, rt, poses, intrinsics):
        R_r, t_r = poses[rt.ref_view].rotation, poses[rt.ref_view].translation
        R_s = np.array([poses[s.view_id].rotation for s in rt.sources])
        t_s = np.array([poses[s.view_id].translation for s in rt.sources])
        ray = backproject(np.asarray(rt.u_ref, dtype=float), 1.0, intrinsics[rt.ref_view])
        K = [intrinsics[s.view_id] for s in rt.sources]
        self.Rray = (R_s @ R_r.T) @ ray
        self.t = R_s @ (-R_r.T @ t_r) + t_s
        self.k = [np.array([getattr(k, name) for k in K]) for name in ("fx", "fy", "cx", "cy")]
        self.targets = np.stack([s.pixel for s in rt.sources])

    def residuals(self, d):
        p = d * self.Rray + self.t
        if np.any(p[:, 2] <= 1e-12):
            return None
        return pinhole(p, *self.k) - self.targets

    def jacobian(self, d):
        p = d * self.Rray + self.t
        return (pinhole_jacobian(p, self.k[0], self.k[1]) @ self.Rray[:, :, None])[:, :, 0]


def _ref_optimize_depth(rt, poses, intrinsics, max_iters=LM_MAX_ITERS, rel_tol=LM_RELATIVE_TOL):
    pose_r = poses[rt.ref_view]
    problem = _RefDepthProblem(rt, poses, intrinsics)
    d0 = float(pose_r.transform(rt.point_init)[2])
    d = d0 if d0 > 0 else MIN_DEPTH_CLAMP
    hit_clamp = d0 <= 0
    r = problem.residuals(d)
    cost = np.inf if r is None else float(np.sum(r * r))
    lam = LM_INITIAL_LAMBDA
    converged = False
    if np.isfinite(cost):
        for _ in range(max_iters):
            J = problem.jacobian(d).ravel()
            g = float(J @ r.ravel())
            H = float(J @ J)
            if H < 1e-18:
                break
            d_new = d + -g / (H * (1.0 + lam))
            if d_new <= 0:
                d_new = MIN_DEPTH_CLAMP
            r_new = problem.residuals(d_new)
            cost_new = np.inf if r_new is None else float(np.sum(r_new * r_new))
            if cost_new <= cost:
                hit_clamp = d_new == MIN_DEPTH_CLAMP
                decrease = cost - cost_new
                d, cost, r = d_new, cost_new, r_new
                lam = max(lam / 10.0, 1e-12)
                if decrease <= rel_tol * cost + 1e-24:
                    converged = True
                    break
            else:
                lam *= 10.0
                if lam > 1e12:
                    break
    if hit_clamp:
        converged = False
    n_src = len(rt.sources)
    final_cost = float(np.sqrt(cost / n_src)) if np.isfinite(cost) else np.inf
    init_r = problem.residuals(d0) if d0 > 0 else None
    initial = float(np.sqrt(np.sum(init_r * init_r) / n_src)) if init_r is not None else np.inf
    point = pose_r.inverse().transform(backproject(rt.u_ref, d, intrinsics[rt.ref_view]))
    return RefinedTrack(
        track_id=rt.track_id, ref_view=rt.ref_view, ref_cell=rt.ref_cell, u_ref=rt.u_ref,
        sources=rt.sources, point_init=rt.point_init, depth=d, point=point,
        initial_cost=initial, final_cost=final_cost, converged=converged,
    )


def _ref_aggregate_features(tracks, observations, stats):
    lookups = {v: support.winner_row_lookup(obs) for v, obs in observations.items()}
    points, coarse, fine, ids = [], [], [], []
    for rt in tracks:
        if rt.point is None:
            continue
        rows_c, rows_f = [], []
        nodes = [(rt.ref_view, rt.ref_cell)] + [(s.view_id, s.cell) for s in rt.sources]
        for view_id, cell in nodes:
            obs = observations[view_id]
            row = lookups[view_id].get((int(cell[0]), int(cell[1])))
            if row is None:
                continue
            rows_c.append(obs.desc_coarse[row])
            rows_f.append(obs.desc_fine[row])
        if not rows_c:
            stats.dropped_degenerate_features += 1
            continue
        mean_c = np.mean(rows_c, axis=0)
        mean_f = np.mean(rows_f, axis=0)
        nc, nf = np.linalg.norm(mean_c), np.linalg.norm(mean_f)
        if nc < 1e-8 or nf < 1e-8:
            stats.dropped_degenerate_features += 1
            continue
        points.append(rt.point)
        coarse.append(mean_c / nc)
        fine.append(mean_f / nf)
        ids.append(rt.track_id)
    dim_c = next(iter(observations.values())).desc_coarse.shape[1]
    dim_f = next(iter(observations.values())).desc_fine.shape[1]
    return PointCloudModel(
        points=np.array(points).reshape(-1, 3),
        coarse_features=np.array(coarse).reshape(-1, dim_c),
        fine_features=np.array(fine).reshape(-1, dim_f),
        track_ids=np.array(ids, dtype=int),
    )


def _assert_same_model(got, ref):
    for name in ("points", "coarse_features", "fine_features", "track_ids"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name
        assert getattr(got, name).dtype == getattr(ref, name).dtype, name


def _assert_same_refined(got, ref):
    assert (got is None) == (ref is None)
    if ref is None:
        return
    for name in ("track_id", "ref_view", "ref_cell", "converged"):
        assert getattr(got, name) == getattr(ref, name), name
    for name in ("depth", "initial_cost", "final_cost"):  # NaN before the depth LM
        assert np.array_equal(getattr(got, name), getattr(ref, name), equal_nan=True), name
    assert (got.point is None) == (ref.point is None)
    for name in ("u_ref", "point_init") + (("point",) if ref.point is not None else ()):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name
    assert len(got.sources) == len(ref.sources)
    for a, b in zip(got.sources, ref.sources):
        assert (a.view_id, a.cell, a.confidence) == (b.view_id, b.cell, b.confidence)
        assert np.array_equal(a.pixel, b.pixel)


class TestBatchedRefinementMatchesOneTrackReference:
    def _onboard(self, seed):
        scene = support.onboard_scene(seed)
        matcher = OracleMatcher(scene)
        tracks, stats = support.scene_tracks(scene, matcher)
        poses = [p for p, _ in scene.views]
        intrs = [k for _, k in scene.views]
        return scene, matcher, triangulate_tracks(tracks, poses, intrs, stats=stats), poses, intrs

    def test_noisy_onboard_scene(self):
        scene, matcher, recon, poses, intrs = self._onboard(4)
        obs = {v: matcher.observations(v) for v in range(scene.n_views)}
        model, refined, stats = refine_reconstruction(recon, poses, intrs, matcher, obs)
        refined = _records(refined)

        ref_stats, ref_refined = RefineStats(), []
        for i in range(len(recon.tracks)):
            track = recon.tracks.take([i])
            ref_idx = _ref_select_reference_node(track, poses)
            assert select_reference_node(track, poses) == ref_idx
            rt = _ref_refine_track_nodes(track, ref_idx, matcher, 0.2, ref_stats)
            if rt is None:
                continue
            rt = _ref_optimize_depth(rt, poses, intrs)
            ref_stats.non_converged += not rt.converged
            ref_refined.append(rt)
        ref_model = _ref_aggregate_features(ref_refined, obs, ref_stats)

        assert len(refined) == len(ref_refined)
        for got, ref in zip(refined, ref_refined):
            _assert_same_refined(got, ref)
        assert stats == ref_stats
        assert len({len(rt.sources) for rt in refined}) > 3  # several source-count groups
        _assert_same_model(model, ref_model)

    def test_shuffled_onboard_rows_equal_their_one_track_solve(self):
        scene, matcher, recon, poses, intrs = self._onboard(3)
        table = ViewTable.stack(poses, intrs)
        nodes = refine_nodes(recon.tracks, reference_nodes(recon.tracks, table.R, table.t), matcher)
        nodes = nodes.take(np.random.default_rng(5).permutation(len(nodes))[:300])
        assert np.any(np.diff(np.diff(nodes.offsets)) < 0)  # rows out of source-count order
        got = _records(optimize_depths(nodes, table))
        for a, rt in zip(got, _records(nodes)):
            _assert_same_refined(a, _ref_optimize_depth(rt, poses, intrs))

    def test_ungrounded_reference_and_all_sources_below_confidence(self):
        scene, matcher, recon, poses, _ = self._onboard(8)
        rows = np.flatnonzero(np.diff(recon.tracks.offsets) >= 4)[:6]
        tracks = recon.tracks.take(rows)
        ref_idx = [_ref_select_reference_node(tracks.take([i]), poses) for i in range(6)]
        nodes = support.node_lists(tracks)

        def edited(track, cell_of):
            return [(v, cell_of(j, v, c)) for j, (v, c) in enumerate(nodes[track])]

        # the reference node moves to a cell no point wins; every source moves off its point
        occupied = {tuple(c) for c in matcher.observations(nodes[1][ref_idx[1]][0]).cells}
        empty = next((u, 4.0) for u in np.arange(4.0, 2048.0, 8.0) if (u, 4.0) not in occupied)
        nodes[1] = edited(1, lambda j, v, c: empty if j == ref_idx[1] else c)
        nodes[3] = edited(3, lambda j, v, c: c if j == ref_idx[3] else (c[0], (c[1] + 80.0) % 2048))
        tracks = support.make_tracks(nodes, points=tracks.points, track_ids=tracks.track_ids)

        stats, ref_stats = RefineStats(), RefineStats()
        got = refine_nodes(tracks, ref_idx, matcher, 0.2, stats)
        ref = [
            _ref_refine_track_nodes(tracks.take([i]), ref_idx[i], matcher, 0.2, ref_stats)
            for i in range(6)
        ]
        assert ref[1] is None and ref[3] is None
        assert got.track_ids.tolist() == [rt.track_id for rt in ref if rt is not None]
        for a, b in zip(_records(got), [rt for rt in ref if rt is not None]):
            _assert_same_refined(a, b)
        assert stats == ref_stats
        assert stats.dropped_tracks == 2

    def test_one_source_count_group_with_flat_and_clamped_rows(self):
        rng = np.random.default_rng(71)
        normal, poses, intrs, _ = support.random_refined_track(rng, 2, pixel_noise=0.5)
        ref = poses[0]
        for angle in (0.05, -0.08):  # pure rotations about the reference center
            R = rotation_from_axis_angle(np.array([0.0, 1.0, 0.0]), angle) @ ref.rotation
            poses.append(SE3Pose(R, -R @ ref.camera_center))
        intrs = intrs + intrs[:2]
        flat = RefinedTrack(
            track_id=1, ref_view=0, ref_cell=normal.ref_cell, u_ref=normal.u_ref,
            sources=[
                SourceNode(view_id=v, cell=s.cell, pixel=s.pixel, confidence=1.0)
                for v, s in zip((3, 4), normal.sources)
            ],
            point_init=normal.point_init,
        )
        behind = ref.camera_center - 2.0 * ref.optical_axis
        clamped = RefinedTrack(
            track_id=2, ref_view=0, ref_cell=normal.ref_cell, u_ref=normal.u_ref,
            sources=normal.sources, point_init=behind,
        )
        group = [normal, flat, clamped, normal]
        got = _records(optimize_depths(RefinedTracks.from_records(group), ViewTable.stack(poses, intrs)))
        want = [_ref_optimize_depth(rt, poses, intrs) for rt in group]
        for a, b in zip(got, want):
            _assert_same_refined(a, b)
        assert got[0].converged and not got[1].converged
        assert ref.transform(clamped.point_init)[2] <= 0
        for rt in group:  # the one-track call is the B = 1 case
            want = _ref_optimize_depth(rt, poses, intrs)
            _assert_same_refined(optimize_depth(rt, poses, intrs), want)

    def _mixed_counts(self):
        """Tracks of seven source counts over one view list, the last three rows edge cases.

        They are a flat row (2 sources), a row that starts at the depth clamp
        (3) and a row whose every step is rejected until lambda passes 1e12 (4).
        """
        rng = np.random.default_rng(72)
        poses, intrs, rts = [], [], []

        def add(rt, track_poses, track_intrs):
            shift = len(poses)
            poses.extend(track_poses)
            intrs.extend(track_intrs)
            rts.append(dataclasses.replace(
                rt, track_id=len(rts), ref_view=rt.ref_view + shift,
                sources=[dataclasses.replace(s, view_id=s.view_id + shift) for s in rt.sources],
            ))

        for n_src in (5, 2, 7, 3, 9, 2, 5, 3, 4, 8):
            add(*support.random_refined_track(rng, n_src, pixel_noise=0.5)[:3])

        rt, track_poses, track_intrs, _ = support.random_refined_track(rng, 2, pixel_noise=0.5)
        ref = track_poses[0]
        turns = [
            rotation_from_axis_angle(np.array([0.0, 1.0, 0.0]), a) @ ref.rotation for a in (0.05, -0.08)
        ]
        add(rt, [ref] + [SE3Pose(R, -R @ ref.camera_center) for R in turns], track_intrs[:3])

        rt, track_poses, track_intrs, _ = support.random_refined_track(rng, 3, pixel_noise=0.5)
        behind = track_poses[0].camera_center - 2.0 * track_poses[0].optical_axis
        add(dataclasses.replace(rt, point_init=behind), track_poses, track_intrs)

        # three sources on the reference ray (zero Jacobian, zero residual) ahead of the
        # reference camera, and one with a 1.8e-12 baseline whose target lies 1e4 px off:
        # H ~ 1e-17 is curved, but every step overshoots behind the sources on the ray
        intr = support.default_intrinsics()
        centre = np.array([intr.cx, intr.cy])
        on_ray = [SE3Pose(np.eye(3), np.array([0.0, 0.0, -z])) for z in (0.1, 0.3, 0.5)]
        baseline = SE3Pose(np.eye(3), np.array([-1.8e-12, 0.0, 0.0]))
        far = support.pixel_of(baseline, intr, np.array([0.0, 0.0, 0.6])) - [1e4, 0.0]
        sources = [SourceNode(v, (intr.cx, intr.cy), centre.copy(), 1.0) for v in (1, 2, 3)]
        sources.append(SourceNode(4, tuple(grid_cell_center(far)), far, 1.0))
        stalled = RefinedTrack(
            track_id=0, ref_view=0, ref_cell=tuple(grid_cell_center(centre)), u_ref=centre,
            sources=sources, point_init=np.array([0.0, 0.0, 0.6]),
        )
        add(stalled, [SE3Pose.identity()] + on_ray + [baseline], [intr] * 5)
        return rts, poses, intrs

    def test_lock_step_over_mixed_source_counts(self):
        rts, poses, intrs = self._mixed_counts()
        table = ViewTable.stack(poses, intrs)
        got = _records(optimize_depths(RefinedTracks.from_records(rts), table))
        want = [_ref_optimize_depth(rt, poses, intrs) for rt in rts]
        for a, b in zip(got, want):
            _assert_same_refined(a, b)
        assert len({len(rt.sources) for rt in rts}) == 7

        flat, clamped, stalled = rts[-3:]
        d0 = poses[flat.ref_view].transform(flat.point_init)[2]
        curvature = [
            np.sum(DepthProblem.from_track(rt, poses, intrs).jacobian(d) ** 2)
            for rt, d in ((flat, d0), (stalled, 0.6))
        ]
        assert curvature[0] < 1e-18 < curvature[1]
        assert poses[clamped.ref_view].transform(clamped.point_init)[2] <= 0
        assert not got[-3].converged and not got[-1].converged
        assert all(rt.converged for rt in got[:-3])
        assert got[-1].depth == 0.6 and got[-1].final_cost == got[-1].initial_cost

    def test_padding_camera_sources_vanish(self):
        rts, poses, intrs = self._mixed_counts()
        table = RefinedTracks.from_records(rts)
        width = np.diff(table.offsets).max() + 1  # every row gets at least one padded source
        problem = DepthProblem.from_nodes(
            table.padded("views", width, fill=-1), table.padded("pixels", width),
            ViewTable.stack(poses, intrs),
        )
        names = [f.name for f in dataclasses.fields(DepthProblem)]
        for i, rt in enumerate(rts):  # a row's own sources are its one-track problem's
            one, S = DepthProblem.from_track(rt, poses, intrs), len(rt.sources)
            for name in names:
                assert np.array_equal(getattr(problem, name)[i, :S], getattr(one, name)[0]), name
        pad = np.arange(width - 1) >= np.diff(table.offsets)[:, None] - 1
        assert pad.any(axis=1).all()
        padding = DepthProblem(**{name: getattr(problem, name)[pad][None] for name in names})
        for d in (1e-12, 1e-3, 0.6, 4.0, 1e12):
            r, front = padding.residuals(d)
            assert front.all() and np.all(r == 0.0)
            assert np.all(padding.jacobian(d) == 0.0)

    def test_permuted_table_gives_permuted_rows(self):
        rts, poses, intrs = self._mixed_counts()
        table, views = RefinedTracks.from_records(rts), ViewTable.stack(poses, intrs)
        solved = optimize_depths(table, views)
        perm = np.random.default_rng(3).permutation(len(table))
        got = optimize_depths(table.take(perm), views)
        for name in ("depths", "points", "initial_costs", "final_costs", "converged"):
            assert np.array_equal(getattr(got, name), getattr(solved, name)[perm]), name

    def test_empty_and_one_track_tables(self):
        rts, poses, intrs = self._mixed_counts()
        views = ViewTable.stack(poses, intrs)
        empty = optimize_depths(RefinedTracks.from_records([]), views)
        assert len(empty) == 0 and empty.points.shape == (0, 3)
        for rt in rts[:2] + rts[-3:]:
            got = optimize_depths(RefinedTracks.from_records([rt]), views).record(0)
            _assert_same_refined(got, _ref_optimize_depth(rt, poses, intrs))
