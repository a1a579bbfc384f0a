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
    pinhole,
    pinhole_inverse,
    pinhole_jacobian,
    project,
    rotation_from_axis_angle,
)
from semidense.matching import OracleMatcher, select_view_pairs
from semidense.refine import (
    LM_INITIAL_LAMBDA,
    LM_MAX_ITERS,
    LM_RELATIVE_TOL,
    MIN_DEPTH_CLAMP,
    DepthProblem,
    PointCloudModel,
    RefinedTracks,
    RefineStats,
    aggregate_features,
    optimize_depth,
    refine_reconstruction,
    refine_track_nodes,
    select_reference_node,
)
from semidense.scene import NoiseModel, ViewObservations, generate_scene
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


def _one_problem(track, views):
    """The depth problem of a one-track table, unpadded."""
    return DepthProblem.from_nodes(track.views[None], track.pixels[None], views)


def _camera(views, v):
    """View v of a ViewTable as a pose."""
    return SE3Pose(views.R[v], views.t[v])


def _turned_cameras(views):
    """View 0 of a ViewTable and two pure rotations about its center, at the default intrinsics.

    A track over them, its sources in the rotated views, has a flat depth cost.
    """
    ref = _camera(views, 0)
    turns = [
        rotation_from_axis_angle(np.array([0.0, 1.0, 0.0]), a) @ ref.rotation for a in (0.05, -0.08)
    ]
    poses = [ref] + [SE3Pose(R, -R @ ref.camera_center) for R in turns]
    return ViewTable.stack(poses, [support.default_intrinsics()] * 3)


def _initial_depth(track, views):
    """The depth of a one-track table's coarse point in its reference view."""
    ref = track.views[0]
    return (track.point_init[0] @ views.R[ref].T + views.t[ref])[2]


def _reference_node(track, poses):
    """The reference node index of a one-track table, through the batch call."""
    R = np.array([pose.rotation for pose in poses])
    t = np.array([pose.translation for pose in poses])
    return int(select_reference_node(track, R, t)[0])


def _refine_one(track, reference_idx, matcher, min_confidence=0.2, stats=None):
    """A one-track table refined through the batch call; None when it is dropped."""
    refined = refine_track_nodes(track, [reference_idx], matcher, min_confidence, stats)
    return refined if len(refined) else None


class TestSelectReferenceNode:
    def test_symmetric_views_tie_break_to_lowest(self):
        intr = support.default_intrinsics()
        a = support.look_at_pose(np.array([4.0, 0.0, 1.0]), np.zeros(3))
        b = support.look_at_pose(np.array([-4.0, 0.0, 1.0]), np.zeros(3))
        track = support.make_tracks(
            [[(0, (260.0, 260.0)), (1, (260.0, 260.0))]], points=[np.zeros(3)]
        )
        assert _reference_node(track, [a, b]) == 0
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
        got = _reference_node(track, poses)

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
            _reference_node(track, [SE3Pose.identity()])


class TestRefineTrackNodes:
    def test_zero_noise_exact_projections(self):
        scene = generate_scene(51, 100, 6, ZERO)
        matcher = OracleMatcher(scene)
        recon, poses, intrs = _build_coarse(scene, matcher)
        assert len(recon.tracks)
        for i in range(min(20, len(recon.tracks))):
            track = recon.tracks.take([i])
            rt = _refine_one(track, _reference_node(track, poses), matcher)
            assert rt is not None
            pid = support.winner_point(matcher.observations(int(rt.views[0])), rt.cells[0])
            for v, pixel in zip(rt.views.tolist(), rt.pixels):  # the reference first
                true_pix = project(poses[v], intrs[v], scene.points[pid])
                np.testing.assert_allclose(pixel, true_pix, atol=1e-10)

    def test_refinements_stay_in_window(self):
        scene = generate_scene(52, 150, 6, NoiseModel(fine_noise_sigma=2.5))
        matcher = OracleMatcher(scene)
        recon, poses, _ = _build_coarse(scene, matcher)
        for i in range(min(30, len(recon.tracks))):
            track = recon.tracks.take([i])
            rt = _refine_one(track, _reference_node(track, poses), matcher)
            if rt is None:
                continue
            assert np.max(np.abs(rt.pixels[1:] - rt.cells[1:])) <= 4.0 + 1e-12

    def test_all_low_confidence_drops_track(self):
        scene = generate_scene(53, 100, 6, ZERO)
        matcher = OracleMatcher(scene)
        recon, poses, _ = _build_coarse(scene, matcher)
        track = recon.tracks.take([0])
        stats = RefineStats()
        rt = _refine_one(track, _reference_node(track, poses), matcher, 1.5, stats)
        assert rt is None
        assert stats.dropped_tracks == 1


class TestOptimizeDepth:
    def test_exact_sources_recover_true_depth(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            track, views, d_true = support.random_refined_track(rng, 8, pixel_noise=0.0)
            track = dataclasses.replace(track, point_init=track.point_init * 1.1)  # perturb the init
            out = optimize_depth(track, views)
            assert abs(out.depths[0] - d_true) / d_true < 1e-8
            assert out.converged[0]
            assert out.final_costs[0] <= out.initial_costs[0] + 1e-12

    def test_matches_golden_section_oracle(self):
        rng = np.random.default_rng(62)
        for _ in range(50):
            track, views, d_true = support.random_refined_track(rng, 8, pixel_noise=0.5)
            out = optimize_depth(track, views)
            gs = support.golden_section_minimize(
                _one_problem(track, views).cost,
                0.5 * d_true,
                2.0 * d_true,
                tol=1e-10 * d_true,
            )
            assert abs(out.depths[0] - gs) / gs < 1e-6

    def test_refined_point_on_reference_ray(self):
        rng = np.random.default_rng(63)
        track, views, _ = support.random_refined_track(rng, 6, pixel_noise=0.3)
        out = optimize_depth(track, views)
        p_ref = pinhole_inverse(track.pixels[0], out.depths[0], *views.k(0))
        expected = views.R[0].T @ (p_ref - views.t[0])
        np.testing.assert_allclose(out.points[0], expected, atol=1e-12)

    def test_pure_forward_motion_flagged(self):
        # source camera displaced along the reference ray: depth unobservable
        intr = support.default_intrinsics()
        ref = SE3Pose.identity()
        src = SE3Pose(np.eye(3), np.array([0.0, 0.0, 0.5]))
        u_ref = np.array([intr.cx, intr.cy])
        track = support.refined_track([0, 1], [u_ref, u_ref], [0.0, 0.0, 4.0])
        out = optimize_depth(track, ViewTable.stack([ref, src], [intr, intr]))
        assert not out.converged[0]

    def test_monotone_improvement(self):
        rng = np.random.default_rng(64)
        for _ in range(30):
            track, views, _ = support.random_refined_track(rng, 5, pixel_noise=1.0)
            out = optimize_depth(track, views)
            assert out.final_costs[0] <= out.initial_costs[0] + 1e-12


class TestDepthJacobian:
    def _fd_jacobian(self, track, views, d, h):
        """Central differences on reference-ray source residuals (independent math)."""
        def residuals(depth):
            ref = track.views[0]
            p_ref = pinhole_inverse(track.pixels[0], depth, *views.k(ref))
            p_world = views.R[ref].T @ (p_ref - views.t[ref])
            res = []
            for v, pixel in zip(track.views[1:], track.pixels[1:]):
                p = views.R[v] @ p_world + views.t[v]
                res.append([views.fx[v] * p[0] / p[2] + views.cx[v] - pixel[0],
                            views.fy[v] * p[1] / p[2] + views.cy[v] - pixel[1]])
            return np.array(res)

        return (residuals(d + h) - residuals(d - h)) / (2.0 * h)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(65)
        worst = 0.0
        for _ in range(200):
            track, views, d_true = support.random_refined_track(rng, 6, pixel_noise=0.5)
            d = d_true * rng.uniform(0.9, 1.1)
            ana = _one_problem(track, views).jacobian(d)
            fd = self._fd_jacobian(track, views, d, h=1e-5 * d)
            rel = np.abs(ana - fd).max() / max(np.abs(fd).max(), 1e-12)
            worst = max(worst, rel)
        assert worst < 1e-5

    def test_reference_view_source_is_zero(self):
        intr = support.default_intrinsics()
        pose = support.look_at_pose(np.array([4.0, 0.0, 1.0]), np.zeros(3))
        u_ref = np.array([250.0, 250.0])
        track = support.refined_track([0, 0], [u_ref, u_ref], np.zeros(3))
        J = _one_problem(track, ViewTable.stack([pose], [intr])).jacobian(4.0)
        np.testing.assert_allclose(J, 0.0, atol=1e-12)

    def test_pure_rotation_is_zero(self):
        intr = support.default_intrinsics()
        ref = support.look_at_pose(np.array([4.0, 0.0, 1.0]), np.zeros(3))
        R = rotation_from_axis_angle(np.array([0.0, 1.0, 0.0]), 0.1) @ ref.rotation
        rot_only = SE3Pose(R, -R @ ref.camera_center)
        u_ref = np.array([250.0, 250.0])
        track = support.refined_track([0, 1], [u_ref, u_ref], np.zeros(3))
        J = _one_problem(track, ViewTable.stack([ref, rot_only], [intr, intr])).jacobian(4.0)
        np.testing.assert_allclose(J, 0.0, atol=1e-9)


def _obs_with_descriptors(view_id, cells, desc_coarse, desc_fine):
    n = len(cells)
    cells = np.asarray(cells, dtype=float)
    return ViewObservations(
        view_id=view_id,
        point_ids=np.arange(n),
        pixels=cells.copy(),
        depths=np.ones(n),
        cells=cells,
        desc_coarse=np.asarray(desc_coarse, dtype=float),
        desc_fine=np.asarray(desc_fine, dtype=float),
        cell_winner=np.ones(n, dtype=bool),
        visible_mask=np.ones(n, dtype=bool),
    )


def _point_track(views=(0, 1), point=np.array([0.0, 0.0, 1.0])):
    """Track 7, its point solved, with a node at cell (4, 4) of each view."""
    return support.refined_track(
        views, np.full((len(views), 2), 4.0), point,
        track_ids=np.array([7]), depths=np.ones(1), points=point[None],
    )


def _drop_nodes(table, keep):
    """The table without the nodes where keep (N,) is False."""
    owner = np.repeat(np.arange(len(table)), np.diff(table.offsets))
    counts = np.bincount(owner[keep], minlength=len(table))
    return dataclasses.replace(
        table, **{name: getattr(table, name)[keep] for name in table.NODE_FIELDS},
        offsets=np.concatenate([[0], np.cumsum(counts)]),
    )


class TestAggregateFeatures:
    def test_identical_descriptors_pass_through(self):
        d = np.array([[0.6, 0.8]])
        obs = {
            0: _obs_with_descriptors(0, [[4.0, 4.0]], d, d),
            1: _obs_with_descriptors(1, [[4.0, 4.0]], d, d),
        }
        model = aggregate_features(_point_track(), obs)
        assert model.n_points == 1
        np.testing.assert_allclose(model.coarse_features[0], [0.6, 0.8], atol=1e-12)

    def test_antipodal_descriptors_drop_point(self):
        obs = {
            0: _obs_with_descriptors(0, [[4.0, 4.0]], [[1.0, 0.0]], [[1.0, 0.0]]),
            1: _obs_with_descriptors(1, [[4.0, 4.0]], [[-1.0, 0.0]], [[-1.0, 0.0]]),
        }
        stats = RefineStats()
        model = aggregate_features(_point_track(), obs, stats)
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
            model = aggregate_features(_point_track(range(10)), obs)
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
        lo = refined.offsets
        assert len(set(np.diff(lo).tolist())) > 3  # several node-count groups

        # an ungrounded reference, ungrounded sources, no grounded node, no point
        empty = (4.0, 4.0)
        assert all(support.winner_row(o, empty) is None for o in obs.values())
        cells, points = refined.cells.copy(), refined.points.copy()
        cells[lo[0]] = empty
        cells[lo[1] + 1:lo[2]] = empty
        cells[lo[2]:lo[3]] = empty
        points[3] = np.nan
        # a two-node track whose source descriptors are the negated reference's: zero mean
        keep = np.ones(len(cells), dtype=bool)
        keep[lo[4] + 2:lo[5]] = False
        edited = _drop_nodes(dataclasses.replace(refined, cells=cells, points=points), keep)
        ref_view, src_view = refined.views[lo[4]:lo[4] + 2]
        ref_cell, src_cell = cells[lo[4]:lo[4] + 2]
        src = obs[src_view]
        desc_c, desc_f = src.desc_coarse.copy(), src.desc_fine.copy()
        ref_row = support.winner_row(obs[ref_view], ref_cell)
        src_row = support.winner_row(src, src_cell)
        desc_c[src_row] = -obs[ref_view].desc_coarse[ref_row]
        desc_f[src_row] = -obs[ref_view].desc_fine[ref_row]
        negated = dict(obs)
        negated[src.view_id] = dataclasses.replace(src, desc_coarse=desc_c, desc_fine=desc_f)

        none = refined.take(np.zeros(0, dtype=int))
        cases = ((refined, obs, 0), (edited, negated, 2), (none, obs, 0))
        for tracks, observations, dropped in cases:
            stats, ref_stats = RefineStats(), RefineStats()
            got = aggregate_features(tracks, observations, stats)
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

        def counting(self, *args, _init=RefinedTracks.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(RefinedTracks, "__init__", counting)
        config = RunConfig(
            seed=1, n_points=400, n_views=12, n_query_views=0,
            fine_noise_sigma=0.5, outlier_rate=0.1, dropout_rate=0.1,
            image_size=2048, focal=5000.0, distance_min=3.5, distance_max=5.0, jitter_deg=3.0,
        )
        model, _, refined, _, _ = reconstruct_scene(support.onboard_scene(1), config, list(range(12)))
        assert model.n_points > 100
        # one table each for node refinement, the depth LM and aggregation, whatever the track count
        assert built == ["RefinedTracks"] * 3


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
    u_ref, ref_conf = support.fine_one(matcher, ref_view, ref_cell_arr, ref_view, ref_cell_arr)
    if ref_conf < min_confidence:
        stats.dropped_tracks += 1
        return None
    kept = [(ref_view, ref_cell, u_ref, ref_conf)]
    for idx, (view_id, cell) in enumerate(nodes):
        if idx == reference_idx:
            continue
        pixel, confidence = support.fine_one(
            matcher, ref_view, ref_cell_arr, view_id, np.asarray(cell, dtype=float)
        )
        if confidence < min_confidence:
            stats.dropped_low_confidence_nodes += 1
            continue
        kept.append((view_id, cell, pixel, confidence))
    if len(kept) == 1:
        stats.dropped_tracks += 1
        return None
    views, cells, pixels, confidences = zip(*kept)
    return support.refined_track(
        views, pixels, track.points[0], track_ids=track.track_ids[:1],
        cells=np.array(cells), confidences=np.array(confidences),
    )


class _RefDepthProblem:
    def __init__(self, track, views):
        ref, src = track.views[0], track.views[1:]
        R_r, t_r, R_s = views.R[ref], views.t[ref], views.R[src]
        ray = pinhole_inverse(track.pixels[0], 1.0, *views.k(ref))
        self.Rray = (R_s @ R_r.T) @ ray
        self.t = R_s @ (-R_r.T @ t_r) + views.t[src]
        self.k = views.k(src)
        self.targets = track.pixels[1:]

    def residuals(self, d):
        p = d * self.Rray + self.t
        if np.any(p[:, 2] <= 1e-12):
            return None
        return pinhole(p, *self.k) - self.targets

    def jacobian(self, d):
        p = d * self.Rray + self.t
        return (pinhole_jacobian(p, self.k[0], self.k[1]) @ self.Rray[:, :, None])[:, :, 0]


def _ref_optimize_depth(track, views, max_iters=LM_MAX_ITERS, rel_tol=LM_RELATIVE_TOL):
    """The depth LM of a one-track table, step by step; returns the table with its LM columns."""
    ref = track.views[0]
    pose_r = _camera(views, ref)
    problem = _RefDepthProblem(track, views)
    d0 = float(pose_r.transform(track.point_init[0])[2])
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
    n_src = len(track.views) - 1
    final_cost = float(np.sqrt(cost / n_src)) if np.isfinite(cost) else np.inf
    init_r = problem.residuals(d0) if d0 > 0 else None
    initial = float(np.sqrt(np.sum(init_r * init_r) / n_src)) if init_r is not None else np.inf
    point = pose_r.inverse().transform(pinhole_inverse(track.pixels[0], d, *views.k(ref)))
    return dataclasses.replace(
        track, depths=np.array([d]), points=point[None], initial_costs=np.array([initial]),
        final_costs=np.array([final_cost]), converged=np.array([converged]),
    )


def _ref_aggregate_features(tracks, observations, stats):
    lookups = {v: support.winner_row_lookup(obs) for v, obs in observations.items()}
    points, coarse, fine, ids = [], [], [], []
    for i in range(len(tracks)):
        if np.isnan(tracks.points[i]).any():
            continue
        rows_c, rows_f = [], []
        lo, hi = tracks.offsets[i], tracks.offsets[i + 1]
        for view_id, cell in zip(tracks.views[lo:hi].tolist(), tracks.cells[lo:hi].tolist()):
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
        points.append(tracks.points[i])
        coarse.append(mean_c / nc)
        fine.append(mean_f / nf)
        ids.append(tracks.track_ids[i])
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
    """Two refined track tables are equal column by column, NaN (no depth LM yet) equal to NaN."""
    assert len(got) == len(ref)
    for f in dataclasses.fields(RefinedTracks):
        a, b = getattr(got, f.name), getattr(ref, f.name)
        assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), f.name


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
        views = ViewTable.stack(poses, intrs)

        ref_stats, ref_refined = RefineStats(), []
        for i in range(len(recon.tracks)):
            track = recon.tracks.take([i])
            ref_idx = _ref_select_reference_node(track, poses)
            assert _reference_node(track, poses) == ref_idx
            rt = _ref_refine_track_nodes(track, ref_idx, matcher, 0.2, ref_stats)
            if rt is None:
                continue
            rt = _ref_optimize_depth(rt, views)
            ref_stats.non_converged += int(not rt.converged[0])
            ref_refined.append(rt)
        ref_refined = support.concat_tracks(ref_refined)
        ref_model = _ref_aggregate_features(ref_refined, obs, ref_stats)

        _assert_same_refined(refined, ref_refined)
        assert stats == ref_stats
        assert len(set(np.diff(refined.offsets).tolist())) > 3  # several source-count groups
        _assert_same_model(model, ref_model)

    def test_shuffled_onboard_rows_equal_their_one_track_solve(self):
        scene, matcher, recon, poses, intrs = self._onboard(3)
        table = ViewTable.stack(poses, intrs)
        ref_idx = select_reference_node(recon.tracks, table.R, table.t)
        nodes = refine_track_nodes(recon.tracks, ref_idx, matcher)
        nodes = nodes.take(np.random.default_rng(5).permutation(len(nodes))[:300])
        assert np.any(np.diff(np.diff(nodes.offsets)) < 0)  # rows out of source-count order
        want = [_ref_optimize_depth(nodes.take([i]), table) for i in range(len(nodes))]
        _assert_same_refined(optimize_depth(nodes, table), support.concat_tracks(want))

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
        got = refine_track_nodes(tracks, ref_idx, matcher, 0.2, stats)
        ref = [
            _ref_refine_track_nodes(tracks.take([i]), ref_idx[i], matcher, 0.2, ref_stats)
            for i in range(6)
        ]
        assert ref[1] is None and ref[3] is None
        _assert_same_refined(got, support.concat_tracks([rt for rt in ref if rt is not None]))
        assert stats == ref_stats
        assert stats.dropped_tracks == 2

    def test_one_source_count_group_with_flat_and_clamped_rows(self):
        rng = np.random.default_rng(71)
        normal, views, _ = support.random_refined_track(rng, 2, pixel_noise=0.5)
        ref = _camera(views, 0)
        behind = ref.camera_center - 2.0 * ref.rotation[2]
        clamped = dataclasses.replace(normal, point_init=behind[None])
        tracks, views = support.stack_tracks(
            [(normal, views), (normal, _turned_cameras(views)), (clamped, views), (normal, views)]
        )
        got = optimize_depth(tracks, views)
        want = [_ref_optimize_depth(tracks.take([i]), views) for i in range(4)]
        _assert_same_refined(got, support.concat_tracks(want))
        assert got.converged[0] and not got.converged[1]
        assert _initial_depth(tracks.take([2]), views) <= 0
        for i in range(4):  # a table of one track is the B = 1 case
            _assert_same_refined(optimize_depth(tracks.take([i]), views), want[i])

    def _mixed_counts(self):
        """Tracks of seven source counts over cameras of their own, the last three rows edge cases.

        They are a flat row (2 sources), a row that starts at the depth clamp
        (3) and a row whose every step is rejected until lambda passes 1e12 (4).
        """
        rng = np.random.default_rng(72)
        pairs = [
            support.random_refined_track(rng, n_src, pixel_noise=0.5)[:2]
            for n_src in (5, 2, 7, 3, 9, 2, 5, 3, 4, 8)
        ]
        track, views, _ = support.random_refined_track(rng, 2, pixel_noise=0.5)
        pairs.append((track, _turned_cameras(views)))

        track, views, _ = support.random_refined_track(rng, 3, pixel_noise=0.5)
        ref = _camera(views, 0)
        behind = ref.camera_center - 2.0 * ref.rotation[2]
        pairs.append((dataclasses.replace(track, point_init=behind[None]), views))

        # three sources on the reference ray (zero Jacobian, zero residual) ahead of the
        # reference camera, and one with a 1.8e-12 baseline whose target lies 1e4 px off:
        # H ~ 1e-17 is curved, but every step overshoots behind the sources on the ray
        intr = support.default_intrinsics()
        centre = np.array([intr.cx, intr.cy])
        on_ray = [SE3Pose(np.eye(3), np.array([0.0, 0.0, -z])) for z in (0.1, 0.3, 0.5)]
        baseline = SE3Pose(np.eye(3), np.array([-1.8e-12, 0.0, 0.0]))
        far = support.pixel_of(baseline, intr, np.array([0.0, 0.0, 0.6])) - [1e4, 0.0]
        stalled = support.refined_track(range(5), [centre] * 4 + [far], [0.0, 0.0, 0.6])
        cameras = ViewTable.stack([SE3Pose.identity()] + on_ray + [baseline], [intr] * 5)
        pairs.append((stalled, cameras))
        tracks, views = support.stack_tracks(pairs)
        return dataclasses.replace(tracks, track_ids=np.arange(len(tracks))), views

    def test_lock_step_over_mixed_source_counts(self):
        tracks, views = self._mixed_counts()
        got = optimize_depth(tracks, views)
        want = [_ref_optimize_depth(tracks.take([i]), views) for i in range(len(tracks))]
        _assert_same_refined(got, support.concat_tracks(want))
        assert len(set(np.diff(tracks.offsets).tolist())) == 7

        T = len(tracks)
        flat, clamped, stalled = (tracks.take([i]) for i in range(T - 3, T))
        curvature = [
            np.sum(_one_problem(track, views).jacobian(d) ** 2)
            for track, d in ((flat, _initial_depth(flat, views)), (stalled, 0.6))
        ]
        assert curvature[0] < 1e-18 < curvature[1]
        assert _initial_depth(clamped, views) <= 0
        assert not got.converged[-3] and not got.converged[-1]
        assert got.converged[:-3].all()
        assert got.depths[-1] == 0.6 and got.final_costs[-1] == got.initial_costs[-1]

    def test_padding_camera_sources_vanish(self):
        tracks, views = self._mixed_counts()
        lengths = np.diff(tracks.offsets)
        width = lengths.max() + 1  # every row gets at least one padded source
        problem = DepthProblem.from_nodes(
            tracks.padded("views", width, fill=-1), tracks.padded("pixels", width), views
        )
        names = [f.name for f in dataclasses.fields(DepthProblem)]
        for i, n in enumerate(lengths.tolist()):  # a row's own sources are its one-track problem's
            one = _one_problem(tracks.take([i]), views)
            for name in names:
                row = getattr(problem, name)[i, :n - 1]
                assert np.array_equal(row, getattr(one, name)[0]), name
        pad = np.arange(width - 1) >= lengths[:, None] - 1
        assert pad.any(axis=1).all()
        padding = DepthProblem(**{name: getattr(problem, name)[pad][None] for name in names})
        for d in (1e-12, 1e-3, 0.6, 4.0, 1e12):
            r, front = padding.residuals(d)
            assert front.all() and np.all(r == 0.0)
            assert np.all(padding.jacobian(d) == 0.0)

    def test_permuted_table_gives_permuted_rows(self):
        tracks, views = self._mixed_counts()
        solved = optimize_depth(tracks, views)
        perm = np.random.default_rng(3).permutation(len(tracks))
        got = optimize_depth(tracks.take(perm), views)
        for name in ("depths", "points", "initial_costs", "final_costs", "converged"):
            assert np.array_equal(getattr(got, name), getattr(solved, name)[perm]), name

    def test_empty_and_one_track_tables(self):
        tracks, views = self._mixed_counts()
        empty = optimize_depth(tracks.take(np.zeros(0, dtype=int)), views)
        assert len(empty) == 0 and empty.points.shape == (0, 3)
        T = len(tracks)
        for i in (0, 1, T - 3, T - 2, T - 1):
            one = tracks.take([i])
            _assert_same_refined(optimize_depth(one, views), _ref_optimize_depth(one, views))
