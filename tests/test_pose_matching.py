"""Coarse/fine 2D-3D matching: dual-softmax, MNN selection, window expectation."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import support
from semidense import pose_matching
from semidense.attention import AttentionStack
from semidense.matching import OracleMatcher, select_view_pairs
from semidense.geometry import (
    CameraIntrinsics,
    SE3Pose,
    project_with_depth,
    rotation_from_axis_angle,
)
from semidense.pnp import ransac_pnp
from semidense.pose_matching import (
    _FINE_FLOOR_TABLE_ROWS,
    _FINE_SPLAT_RADIUS_CELLS,
    DEFAULT_FINE_WINDOW,
    DEFAULT_TAU,
    DEFAULT_THETA,
    FINE_SPLAT_SIGMA_PX,
    FINE_STRIDE,
    MAX_CROP_SIDE,
    CorrespondenceSet,
    QueryFeatureMaps,
    coarse_match_2d3d,
    crop_camera,
    crop_frame,
    dual_softmax,
    fine_match_2d3d,
    ground_truth_matches,
    mutual_nearest_neighbors,
    OBJECT_BOX_PAD_PX,
    oracle_object_box,
    query_noise_floors,
    _splat_fine,
    synthesize_query_maps,
    window_expectation,
)
from semidense.refine import PointCloudModel, refine_reconstruction
from semidense.scene import (
    GRID_STRIDE,
    NoiseModel,
    generate_scene,
    grid_cell_center,
    render_observations,
)
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
    size = hw * GRID_STRIDE
    intr = CameraIntrinsics(fx=200.0, fy=200.0, cx=size / 2, cy=size / 2, width=size, height=size)
    coarse = rng.standard_normal((hw, hw, cc))
    coarse /= np.linalg.norm(coarse, axis=2, keepdims=True)
    fine = rng.standard_normal((size // 2, size // 2, cf))
    fine /= np.linalg.norm(fine, axis=2, keepdims=True)
    return QueryFeatureMaps(coarse, fine, intr)


def crop_to_image(pixels, crop, image):
    """Image pixels of pixels of a crop of the image."""
    s, corner = crop_frame(crop, image)
    return pixels / s + corner


def image_box(scene, view_id):
    """The pixel box of the whole image of one view."""
    intr = scene.views[view_id][1]
    return (0, 0, intr.width, intr.height)


def reference_query_maps(scene, view_id, box=None):
    """Per-point z-buffer and splat loops over the floor table[index] of the crop
    of `box` (by default the oracle box): the oracle for `synthesize_query_maps`, over
    the same noise floors and crop pixels."""
    pose, intr = scene.views[view_id]
    obs = render_observations(scene, view_id)
    box = oracle_object_box(scene, view_id) if box is None else box
    crop = crop_camera(intr, box)
    coarse, table, index = query_noise_floors(scene, view_id, crop)
    fine = table[index]
    hf, wf, _ = fine.shape
    s, corner = crop_frame(crop, intr)
    pixels = (obs.pixels - corner) * s
    depths = pose.transform(scene.points)[obs.point_ids, 2]
    touched = np.zeros((hf, wf), dtype=bool)

    front = {}  # crop cell -> row of its front-most point, the earliest at equal depth
    for row, (u, v) in enumerate(pixels):
        cell = (int(v // GRID_STRIDE), int(u // GRID_STRIDE))
        inside = 0 <= u < crop.width and 0 <= v < crop.height
        if inside and (cell not in front or depths[row] < depths[front[cell]]):
            front[cell] = row
    for (r, c), row in front.items():
        coarse[r, c] = obs.desc_coarse[row]

    rad = _FINE_SPLAT_RADIUS_CELLS
    for row in np.argsort(-depths):
        u, v = pixels[row]
        c0 = int(np.rint(u / FINE_STRIDE))
        r0 = int(np.rint(v / FINE_STRIDE))
        # fine cells of the stencil, clipped to the crop
        cs = np.arange(max(c0 - rad, 0), min(c0 + rad + 1, wf))
        rs = np.arange(max(r0 - rad, 0), min(r0 + rad + 1, hf))
        if not len(cs) or not len(rs):
            continue
        du = cs * FINE_STRIDE - u
        dv = rs * FINE_STRIDE - v
        d2 = dv[:, None] ** 2 + du[None, :] ** 2
        g = np.exp(-d2 / (2.0 * FINE_SPLAT_SIGMA_PX**2))[:, :, None]
        at = np.ix_(rs, cs)
        fine[at] = g * obs.desc_fine[row] + (1.0 - g) * fine[at]
        touched[at] = True
    fine[touched] /= np.linalg.norm(fine[touched], axis=1, keepdims=True)
    return coarse, fine


def reference_fine_match(model, query, corr, stack, window=5, fine_tau=0.08):
    """Per-window loop: the oracle for `fine_match_2d3d`."""
    half = window // 2
    fine = query.fine
    hf, wf, _ = fine.shape
    points, pixels, confs, clamped = [], [], [], []
    offsets = np.arange(window)
    for j, cell in zip(corr.coarse_points, corr.coarse_pixels):
        cf = int(cell[0] // FINE_STRIDE)
        rf = int(cell[1] // FINE_STRIDE)
        c0 = int(np.clip(cf - half, 0, wf - window))
        r0 = int(np.clip(rf - half, 0, hf - window))
        crop = fine[r0 : r0 + window, c0 : c0 + window].reshape(-1, fine.shape[2])
        # the cells' offsets from the window's centre, and the centre
        steps = (offsets - half) * float(FINE_STRIDE)
        positions = np.stack([np.tile(steps, window), np.repeat(steps, window)], axis=1)
        centre = np.array([c0 + half, r0 + half]) * float(FINE_STRIDE)
        f3 = model.fine_features[j][None, :]
        f2 = crop
        if stack.n_layers > 0:
            f3, f2 = stack.transform(f3, f2)
            f3 = f3 / np.maximum(np.linalg.norm(f3, axis=1, keepdims=True), 1e-12)
            f2 = f2 / np.maximum(np.linalg.norm(f2, axis=1, keepdims=True), 1e-12)
        logits = (f2 @ f3[0]) / fine_tau
        logits -= logits.max()
        p = np.exp(logits)
        p /= p.sum()
        points.append(j)
        pixels.append(window_expectation(p, positions) + centre)
        confs.append(float(p.max()))
        clamped.append((c0 != cf - half) or (r0 != rf - half))
    return (
        np.array(points, dtype=int),
        np.array(pixels).reshape(-1, 2),
        np.array(confs),
        np.array(clamped, dtype=bool),
    )


def searchsorted_splat_fine(fine, pixels, desc):
    """The splat in rounds with each cell's update number from `searchsorted`: the
    reference for the rank-ordered `_splat_fine`, over the same arithmetic on a dense map."""
    hf, wf, cf = fine.shape
    offsets = np.arange(-_FINE_SPLAT_RADIUS_CELLS, _FINE_SPLAT_RADIUS_CELLS + 1)
    cs = np.rint(pixels[:, :1] / FINE_STRIDE).astype(int) + offsets
    rs = np.rint(pixels[:, 1:] / FINE_STRIDE).astype(int) + offsets
    du = cs * FINE_STRIDE - pixels[:, :1]
    dv = rs * FINE_STRIDE - pixels[:, 1:]
    g = np.exp(-(dv[:, :, None] ** 2 + du[:, None, :] ** 2) / (2.0 * FINE_SPLAT_SIGMA_PX**2))
    inside = ((rs >= 0) & (rs < hf))[:, :, None] & ((cs >= 0) & (cs < wf))[:, None, :]
    cell = (rs[:, :, None] * wf + cs[:, None, :])[inside]
    src = np.broadcast_to(np.arange(len(pixels))[:, None, None], inside.shape)[inside]
    g = g[inside]
    by_cell = np.argsort(cell, kind="stable")
    sorted_cells = cell[by_cell]
    k = np.arange(len(cell)) - np.searchsorted(sorted_cells, sorted_cells)
    by_round = np.argsort(k, kind="stable")
    perm = by_cell[by_round]
    cell, src, g, k = cell[perm], src[perm], g[perm][:, None], k[by_round]
    flat = fine.reshape(-1, cf)
    for r in range(k.max() + 1 if len(k) else 0):
        at = k == r
        flat[cell[at]] = g[at] * desc[src[at]] + (1.0 - g[at]) * flat[cell[at]]
    return cell[k == 0], int(k.max(initial=-1)) + 1


def corner_view(scene, view_id, corner):
    """The scene with view `view_id` slid so that the object's median projection lands
    on the image point `corner`."""
    pose, intr = scene.views[view_id]
    obs = render_observations(scene, view_id)
    u, v = np.median(obs.pixels, axis=0)
    z = np.median(pose.transform(scene.points[obs.point_ids])[:, 2])
    shift = (np.array(corner) - [u, v]) * z / intr.fx
    moved = SE3Pose(pose.rotation, pose.translation + [shift[0], shift[1], 0.0])
    views = list(scene.views)
    views[view_id] = (moved, intr)
    return dataclasses.replace(scene, views=views)


def brute_force_mnn(prob, threshold):
    """Double loop over rows and columns, first index winning ties."""
    n, m = prob.shape
    pairs = []
    for j in range(n):
        q = 0
        for k in range(m):
            if prob[j, k] > prob[j, q]:
                q = k
        i = 0
        for k in range(n):
            if prob[k, q] > prob[i, q]:
                i = k
        if i == j and prob[j, q] >= threshold:
            pairs.append((j, q))
    return np.array(pairs, dtype=int).reshape(-1, 2)


def build_model(scene, matcher):
    matches = []
    for a, b in select_view_pairs(scene.views):
        matches.append(
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
            rows, cols = support.two_pass_row_col_softmax(s)
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


    def test_equals_two_pass_reference(self):
        rng = np.random.default_rng(78)
        for span in (1.0, 10.0, 60.0, 150.0, 250.0):
            for shape in ((8, 12), (40, 25), (1, 30), (30, 1)):
                s = rng.standard_normal(shape) if rng.uniform() < 0.5 else rng.uniform(size=shape)
                s = (s - s.min()) / max(s.max() - s.min(), 1e-300) * span - span / 2
                ref = support.two_pass_dual_softmax(s)
                assert np.max(np.abs(dual_softmax(s) - ref) / ref) <= 1e-13

    def test_localize_size_equals_reference_and_its_mnn(self):
        # 649 model points against the 64 x 64 cells of a 512-px query, each
        # point a noisy copy of one cell's descriptor
        rng = np.random.default_rng(79)
        f2 = _unit_rows(rng, 4096, 32)
        f3 = f2[rng.choice(4096, 649, replace=False)] + 0.03 * rng.standard_normal((649, 32))
        f3 /= np.linalg.norm(f3, axis=1, keepdims=True)
        s = f3 @ f2.T / DEFAULT_TAU
        prob, ref = dual_softmax(s), support.two_pass_dual_softmax(s)
        assert np.max(np.abs(prob - ref) / ref) <= 1e-13
        for threshold in (0.0, DEFAULT_THETA):
            pairs = mutual_nearest_neighbors(prob, threshold)
            np.testing.assert_array_equal(pairs, mutual_nearest_neighbors(ref, threshold))
        assert len(pairs) > 500

    @staticmethod
    def _blocks(rng, shape, span, dtype):
        """Scores of exactly the given span, in groups of rows and columns.

        Group g's entries lie just below its own peak height, which falls
        from span / 2 for group 0 toward 0, and entries across groups lie
        just above -span / 2. So every row and every column has a mutual
        peak, while most rows and columns peak far below the maximum score.
        """
        groups = min(shape)
        row_group = rng.permutation(np.arange(shape[0]) % groups)
        col_group = rng.permutation(np.arange(shape[1]) % groups)
        same = row_group[:, None] == col_group[None, :]
        peak = span / 2 * (1 - row_group[:, None] / groups)
        spread = min(span / 4, 10.0) * rng.uniform(size=shape)
        s = np.where(same, peak - spread, spread - span / 2)
        s[np.unravel_index(np.argmax(same & (peak == span / 2)), shape)] = span / 2
        s[np.unravel_index(np.argmin(same), shape)] = -span / 2
        return s.astype(dtype)

    @pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-13), (np.float32, 1e-5)])
    def test_exact_at_any_span(self, dtype, rtol):
        # each softmax is shifted by its own row or column max, so no span is
        # too wide; an entry far below both only underflows toward 0
        rng = np.random.default_rng(80)
        tiny = np.finfo(dtype).tiny
        for span in (1.0, 43.0, 300.0, 1e3, 1e4, 1e5, 2e6):
            for shape in ((6, 9), (9, 6), (2, 30), (30, 2), (40, 25)):
                s = self._blocks(rng, shape, span, dtype)
                assert s.max() - s.min() == span
                prob = dual_softmax(s)
                ref = support.two_pass_dual_softmax(s.astype(np.float64))
                assert prob.dtype == dtype
                assert np.all(np.abs(prob - ref) <= rtol * ref + tiny), (span, shape)
                normal = ref >= tiny
                assert np.max(np.abs(prob - ref)[normal] / ref[normal]) <= rtol
                assert prob.max(axis=1).min() > 0 and prob.max(axis=0).min() > 0

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_non_finite_scores_raise(self, dtype):
        s = np.random.default_rng(81).uniform(size=(6, 9)).astype(dtype)
        for bad in (np.inf, -np.inf, np.nan):
            t = s.copy()
            t[2, 3] = bad
            with pytest.raises(ValueError, match="finite"):
                dual_softmax(t)


class TestMutualNearestNeighbors:
    def test_equals_brute_force_with_ties(self):
        rng = np.random.default_rng(85)
        for _ in range(200):
            n, m = rng.integers(1, 9, size=2)
            # quarter steps: rows and columns are full of exact ties
            prob = rng.integers(0, 4, size=(n, m)) / 4.0
            for threshold in (0.0, *np.unique(prob), 1.0):
                np.testing.assert_array_equal(
                    mutual_nearest_neighbors(prob, threshold), brute_force_mnn(prob, threshold)
                )

    def test_tie_breaks_and_threshold_boundary(self):
        prob = np.array(
            [
                [0.5, 0.5, 0.1],  # row tie: column 0 wins
                [0.5, 0.2, 0.3],  # column 0 tie with row 0: row 0 wins
                [0.1, 0.2, 0.4],
            ]
        )
        for threshold, expected in ((0.4, [[0, 0], [2, 2]]), (0.45, [[0, 0]])):
            got = mutual_nearest_neighbors(prob, threshold)
            np.testing.assert_array_equal(got, expected)
            np.testing.assert_array_equal(got, brute_force_mnn(prob, threshold))


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
        image = scene.views[query_view][1]
        assert qmaps.intrinsics.fx == image.fx  # the box fits: a crop at scale 1
        corr.coarse_pixels = crop_to_image(corr.coarse_pixels, qmaps.intrinsics, image)

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

    def test_float32_inputs_give_the_float64_matches(self):
        scene = generate_scene(75, 200, 7, ZERO)
        model = build_model(scene, OracleMatcher(scene))
        qmaps = synthesize_query_maps(scene, 6)
        stack = AttentionStack.random(3, scene.desc_coarse.shape[1], seed=75)
        _, prob64, corr64 = coarse_match_2d3d(model, qmaps, stack)
        _, prob32, corr32 = coarse_match_2d3d(
            dataclasses.replace(model, coarse_features=model.coarse_features.astype(np.float32)),
            dataclasses.replace(qmaps, coarse=qmaps.coarse.astype(np.float32)),
            stack.astype(np.float32),
        )
        assert prob32.dtype == np.float32 and corr64.n_coarse > 50
        np.testing.assert_array_equal(corr32.coarse_points, corr64.coarse_points)
        np.testing.assert_array_equal(corr32.coarse_pixels, corr64.coarse_pixels)
        np.testing.assert_allclose(corr32.coarse_conf, corr64.coarse_conf, atol=1e-5)

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


class TestSynthesizeQueryMaps:
    """The array splat equals the per-point loop bit for bit."""

    def _assert_equals_loop(self, scene, view_id, box=None):
        qmaps = synthesize_query_maps(scene, view_id, box=box)
        box = oracle_object_box(scene, view_id) if box is None else box
        assert qmaps.intrinsics == crop_camera(scene.views[view_id][1], box)
        coarse, fine = reference_query_maps(scene, view_id, box)
        np.testing.assert_array_equal(qmaps.coarse, coarse)
        np.testing.assert_array_equal(qmaps.fine, fine)

    def test_noisy_view_with_dropout(self):
        noise = NoiseModel(descriptor_noise_sigma=0.1, dropout_rate=0.1)
        scene = generate_scene(86, 300, 3, noise)
        for view_id in range(scene.n_views):
            assert render_observations(scene, view_id).point_ids.size > 200
            self._assert_equals_loop(scene, view_id)
        self._assert_equals_loop(scene, 0, image_box(scene, 0))

    def test_window_cuts_through_the_object(self):
        # a box that drops some winners and clips some stencils at every side
        scene = generate_scene(86, 300, 3, NoiseModel(descriptor_noise_sigma=0.1))
        u0, v0, u1, v1 = oracle_object_box(scene, 1)
        cut = (u0 + 24, v0 + 24, u1 - 24, v1 - 24)
        obs = render_observations(scene, 1)
        inner = np.all((obs.pixels >= cut[:2]) & (obs.pixels < cut[2:]), axis=1)
        assert 0 < inner.sum() < len(inner)
        self._assert_equals_loop(scene, 1, cut)

    def test_splats_clipped_at_the_border(self):
        scene = generate_scene(87, 300, 2, ZERO)
        intr = scene.views[0][1]
        reach = _FINE_SPLAT_RADIUS_CELLS * FINE_STRIDE
        for corner in ([0.0, 0.0], [intr.width, intr.height]):
            # slide the camera so the object's median projection lands on the corner
            cornered = corner_view(scene, 0, corner)
            pix = render_observations(cornered, 0).pixels
            edge = np.minimum(pix, intr.width - pix)
            assert len(pix) > 20 and np.all(np.any(edge < reach, axis=0))
            self._assert_equals_loop(cornered, 0)

    def test_crop_smaller_than_its_box(self):
        # a 2048-px view's object box is longer than MAX_CROP_SIDE, so its crop is
        # resized: points that win cells of their own in the image share the crop's
        noise = NoiseModel(dropout_rate=0.1)
        scene = generate_scene(86, 300, 2, noise, image_size=2048, focal=5000.0)
        for view_id in range(scene.n_views):
            u0, v0, u1, v1 = oracle_object_box(scene, view_id)
            qmaps = synthesize_query_maps(scene, view_id)
            crop = qmaps.intrinsics
            assert max(u1 - u0, v1 - v0) > MAX_CROP_SIDE == max(crop.width, crop.height)
            floor = query_noise_floors(scene, view_id, crop)[0]
            occupied = np.any(qmaps.coarse != floor, axis=2).sum()
            assert occupied < np.count_nonzero(render_observations(scene, view_id).cell_winner)
            self._assert_equals_loop(scene, view_id)

    def test_no_visible_point(self):
        scene = generate_scene(88, 60, 2, ZERO)
        behind = SE3Pose(np.eye(3), np.array([0.0, 0.0, -10.0]))
        scene = dataclasses.replace(scene, views=[(behind, scene.views[0][1]), scene.views[1]])
        assert render_observations(scene, 0).point_ids.size == 0
        self._assert_equals_loop(scene, 0)

    def test_one_dense_fine_map_allocated(self):
        # the floor is gathered into the map once and the splat blends into it in
        # place: a second full-size temporary would break the bound
        scene = generate_scene(86, 300, 3, ZERO)
        tracemalloc.start()
        try:
            qmaps = synthesize_query_maps(scene, 0, box=image_box(scene, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert qmaps.fine.nbytes == 256 * 256 * 32 * 8 and peak < 1.5 * qmaps.fine.nbytes

    def test_untouched_cells_keep_their_floor(self):
        scene = generate_scene(86, 300, 3, NoiseModel(descriptor_noise_sigma=0.1))
        qmaps = synthesize_query_maps(scene, 1)
        crop = qmaps.intrinsics
        _, table, index = query_noise_floors(scene, 1, crop)
        s, corner = crop_frame(crop, scene.views[1][1])
        pixels = (render_observations(scene, 1).pixels - corner) * s
        # the fine cells of the 3x3 stencils, clipped to the map
        reach = np.arange(-_FINE_SPLAT_RADIUS_CELLS, _FINE_SPLAT_RADIUS_CELLS + 1)
        centers = np.rint(pixels / FINE_STRIDE).astype(int)
        hf, wf, _ = qmaps.fine.shape
        touched = np.zeros((hf, wf), dtype=bool)
        for dr in reach:
            for dc in reach:
                c, r = (centers + [dc, dr]).T
                ok = (0 <= r) & (r < hf) & (0 <= c) & (c < wf)
                touched[r[ok], c[ok]] = True
        assert 0 < touched.sum() < touched.size
        np.testing.assert_array_equal(qmaps.fine[~touched], table[index[~touched]])
        np.testing.assert_allclose(np.linalg.norm(qmaps.fine[touched], axis=1), 1.0, atol=1e-12)

    def test_noise_floors(self):
        scene = generate_scene(86, 300, 3, NoiseModel(descriptor_noise_sigma=0.1))
        full = scene.views[1][1]
        coarse, table, index = query_noise_floors(scene, 1, full)
        again = query_noise_floors(scene, 1, full)
        for a, b in zip((coarse, table, index), again):
            assert np.array_equal(a, b)
        other = query_noise_floors(scene, 2, full)
        assert not np.array_equal(table, other[1]) and not np.array_equal(index, other[2])
        np.testing.assert_allclose(np.linalg.norm(coarse, axis=2), 1.0, atol=1e-12)
        # the 256 x 256 fine cells index rows of one table of unit rows, and use every row
        rows = _FINE_FLOOR_TABLE_ROWS
        assert table.shape == (rows, scene.desc_fine.shape[1]) and index.shape == (256, 256)
        np.testing.assert_allclose(np.linalg.norm(table, axis=1), 1.0, atol=1e-12)
        assert np.issubdtype(index.dtype, np.integer)
        np.testing.assert_array_equal(np.unique(index), np.arange(rows))
        # a crop's floors are drawn for its cells only
        box = (64, 128, 192, 224)
        coarse, table, index = query_noise_floors(scene, 1, crop_camera(full, box))
        assert coarse.shape == (12, 16, scene.desc_coarse.shape[1]) and index.shape == (48, 64)
        # untouched cells keep their unit floor and touched ones are renormalized
        qmaps = synthesize_query_maps(scene, 1)
        np.testing.assert_allclose(np.linalg.norm(qmaps.fine, axis=2), 1.0, atol=1e-12)


class TestSplatFine:
    """The compact splat equals the searchsorted reference on the dense map bit for bit."""

    @pytest.mark.parametrize("size, key_type", [(512, np.uint16), (2048, np.uint32)])
    def test_equals_searchsorted_reference(self, size, key_type):
        hf = size // FINE_STRIDE
        assert np.min_scalar_type(hf * hf - 1) == key_type  # radix keys only up to 16 bits
        rng = np.random.default_rng(89)
        centers = rng.uniform(0, size, (30, 2))
        pixels = np.concatenate(
            [
                centers[rng.integers(0, 30, 3000)] + rng.normal(0.0, 3.0, (3000, 2)),
                rng.uniform(-8.0, size + 8.0, (2000, 2)),  # some stencils clipped at the border
            ]
        )
        desc = _unit_rows(rng, len(pixels), 4)
        table = _unit_rows(rng, 4096, 4)
        index = rng.integers(0, len(table), (hf, hf))
        fine, ref = table[index], table[index]
        touched = _splat_fine(fine, pixels, desc)
        ref_touched, rounds = searchsorted_splat_fine(ref, pixels, desc)
        assert rounds > 20  # clustered peaks update one cell many times
        np.testing.assert_array_equal(np.sort(touched), ref_touched)  # each touched cell once
        np.testing.assert_array_equal(fine, ref)


class TestOracleObjectBox:
    """The box holds every observed pixel with its pad, on the coarse grid, inside the image."""

    def _assert_box(self, scene, view_id, fine_window=DEFAULT_FINE_WINDOW):
        box = oracle_object_box(scene, view_id, fine_window)
        intr = scene.views[view_id][1]
        size = np.array([intr.width, intr.height])
        lo, hi = np.array(box[:2]), np.array(box[2:])
        assert all(isinstance(x, int) and x % GRID_STRIDE == 0 for x in box)
        assert np.all(0 <= lo) and np.all(lo < hi) and np.all(hi <= size)
        assert np.all(hi - lo >= fine_window * FINE_STRIDE)
        pix = render_observations(scene, view_id).pixels
        assert np.all((pix >= lo) & (pix < hi))
        # the pad fits wherever the image has room for it
        assert np.all(lo <= np.maximum(pix - OBJECT_BOX_PAD_PX, 0))
        assert np.all(np.minimum(pix + OBJECT_BOX_PAD_PX, size) <= hi)
        return box, pix

    def test_holds_the_observed_pixels(self):
        scene = generate_scene(86, 300, 3, NoiseModel(descriptor_noise_sigma=0.1, dropout_rate=0.1))
        for view_id in range(scene.n_views):
            box, pix = self._assert_box(scene, view_id)
            # and is no larger than snapping the padded pixels to the grid makes it
            assert np.all(box[:2] > pix.min(axis=0) - OBJECT_BOX_PAD_PX - GRID_STRIDE)
            assert np.all(box[2:] < pix.max(axis=0) + OBJECT_BOX_PAD_PX + GRID_STRIDE)
            intr = scene.views[view_id][1]
            area = (box[2] - box[0]) * (box[3] - box[1])
            assert area < 0.25 * intr.width * intr.height

    def test_clipped_at_the_border(self):
        scene = generate_scene(87, 300, 2, ZERO)
        intr = scene.views[0][1]
        for corner, at in (([0.0, 0.0], (0, 1)), ([intr.width, intr.height], (2, 3))):
            cornered = corner_view(scene, 0, corner)
            box, _ = self._assert_box(cornered, 0)
            assert [box[i] for i in at] == corner
            self._assert_box(cornered, 0, fine_window=63)

    def test_grows_to_hold_a_fine_window(self):
        scene = generate_scene(86, 300, 3, ZERO)
        intr = scene.views[0][1]
        small = np.array(oracle_object_box(scene, 0))
        assert np.all(small[2:] - small[:2] < 256)
        for fine_window in (63, 127):  # 126 and 254 px
            box, _ = self._assert_box(scene, 0, fine_window)
            need = -(-fine_window * FINE_STRIDE // GRID_STRIDE) * GRID_STRIDE
            side = np.maximum(small[2:] - small[:2], need)
            np.testing.assert_array_equal(np.subtract(box[2:], box[:2]), side)
        # a window as wide as the fine map takes the whole image
        assert oracle_object_box(scene, 0, intr.width // FINE_STRIDE) == image_box(scene, 0)

    def test_no_observed_pixel_gives_the_whole_image(self):
        scene = generate_scene(88, 60, 2, ZERO)
        behind = SE3Pose(np.eye(3), np.array([0.0, 0.0, -10.0]))
        scene = dataclasses.replace(scene, views=[(behind, scene.views[0][1]), scene.views[1]])
        assert oracle_object_box(scene, 0) == image_box(scene, 0)


class TestFullImageWindow:
    """The crop of the full image is the image's own camera: the synthesized
    full-image maps and the per-point loop's maps give the same maps, coarse
    matches, fine matches and poses bit for bit."""

    def test_window_equals_dense_maps(self):
        scene = generate_scene(75, 200, 8, NoiseModel(descriptor_noise_sigma=0.05))
        model = build_model(scene, OracleMatcher(scene))
        coarse_stack = AttentionStack.random(3, scene.desc_coarse.shape[1], seed=75)
        fine_stack = AttentionStack.random(1, scene.desc_fine.shape[1], seed=75)
        for view_id in (6, 7):
            intr = scene.views[view_id][1]
            window = synthesize_query_maps(scene, view_id, box=image_box(scene, view_id))
            coarse, fine = reference_query_maps(scene, view_id, image_box(scene, view_id))
            dense = QueryFeatureMaps(coarse, fine, intr)
            assert window.intrinsics == dense.intrinsics == intr
            np.testing.assert_array_equal(window.coarse, dense.coarse)
            np.testing.assert_array_equal(window.fine, dense.fine)
            outs = []
            for maps in (window, dense):
                scores, prob, corr = coarse_match_2d3d(model, maps, coarse_stack)
                corr = fine_match_2d3d(model, maps, corr, fine_stack)
                res = ransac_pnp(
                    model.points[corr.fine_points], corr.fine_pixels, intr, seed=[75, view_id]
                )
                outs.append((scores, prob, corr, res))
            (s_w, p_w, c_w, r_w), (s_d, p_d, c_d, r_d) = outs
            assert c_w.n_fine > 50 and r_w.ok
            np.testing.assert_array_equal(s_w, s_d)
            np.testing.assert_array_equal(p_w, p_d)
            for name in dataclasses.asdict(c_w):
                np.testing.assert_array_equal(getattr(c_w, name), getattr(c_d, name))
            np.testing.assert_array_equal(r_w.pose.matrix, r_d.pose.matrix)
            np.testing.assert_array_equal(r_w.inliers, r_d.inliers)


class TestCropCamera:
    """A crop of a box, resized by s, is a camera with the view's pose: its pixel of a
    point is s (p - corner) for the point's image pixel p."""

    INTR = CameraIntrinsics(fx=5000.0, fy=5000.0, cx=1024.0, cy=1024.0, width=2048, height=2048)

    def test_projection_through_the_crop(self):
        rng = np.random.default_rng(95)
        for _ in range(200):
            lo = rng.integers(0, 200, 2) * GRID_STRIDE
            box = (*lo.tolist(), *(lo + rng.integers(1, 100, 2) * GRID_STRIDE).tolist())
            crop = crop_camera(self.INTR, box)
            s = min(1.0, MAX_CROP_SIDE / max(box[2] - box[0], box[3] - box[1]))
            assert crop.fx == crop.fy == s * self.INTR.fx
            assert max(crop.width, crop.height) == min(max(box[2] - box[0], box[3] - box[1]), 512)
            assert crop.width % GRID_STRIDE == crop.height % GRID_STRIDE == 0
            angle = rng.uniform(0, 0.3)
            pose = SE3Pose(rotation_from_axis_angle(rng.standard_normal(3), angle), [0, 0, 4.0])
            points = rng.uniform(-0.5, 0.5, (50, 3))
            image_pix = project_with_depth(pose, self.INTR, points)[0]
            crop_pix = project_with_depth(pose, crop, points)[0]
            expected = s * (image_pix - box[:2])
            np.testing.assert_allclose(crop_pix, expected, rtol=0, atol=1e-12 * 2048)
            np.testing.assert_allclose(
                crop_to_image(crop_pix, crop, self.INTR), image_pix, rtol=0, atol=1e-12 * 2048
            )

    def test_a_box_that_fits_shifts_the_principal_point(self):
        crop = crop_camera(self.INTR, (64, 128, 576, 384))
        assert crop == CameraIntrinsics(
            fx=5000.0, fy=5000.0, cx=1024.0 - 64, cy=1024.0 - 128, width=512, height=256
        )
        pixels = np.array([[0.25, 7.5], [511.75, 255.0]])
        np.testing.assert_array_equal(crop_to_image(pixels, crop, self.INTR), pixels + [64, 128])

    def test_cropped_dense_maps(self):
        # maps cut out of a dense full-image map at a box that fits, with the crop's
        # camera, refine matches as the full maps do, back in the image's pixels
        rng = np.random.default_rng(93)
        model = random_model(rng, n=30)
        full = random_query(rng, hw=16)
        c0, r0, w, h = 3, 5, 9, 7
        box = (c0 * GRID_STRIDE, r0 * GRID_STRIDE, (c0 + w) * GRID_STRIDE, (r0 + h) * GRID_STRIDE)
        f = GRID_STRIDE // FINE_STRIDE
        crop = QueryFeatureMaps(
            full.coarse[r0 : r0 + h, c0 : c0 + w],
            full.fine[f * r0 : f * (r0 + h), f * c0 : f * (c0 + w)],
            crop_camera(full.intrinsics, box),
        )
        centers = full.coarse_cell_pixels().reshape(16, 16, 2)[r0 : r0 + h, c0 : c0 + w]
        np.testing.assert_array_equal(
            crop_to_image(crop.coarse_cell_pixels(), crop.intrinsics, full.intrinsics),
            centers.reshape(-1, 2),
        )

        # matches whose fine windows lie inside the crop
        cells = rng.integers([c0 + 1, r0 + 1], [c0 + w - 1, r0 + h - 1], size=(30, 2))
        corr = CorrespondenceSet(
            coarse_points=rng.permutation(30),
            coarse_pixels=cells * GRID_STRIDE + GRID_STRIDE / 2.0,
            coarse_conf=np.ones(30),
        )
        in_crop = dataclasses.replace(corr, coarse_pixels=corr.coarse_pixels - box[:2])
        for stack in (BYPASS, AttentionStack.random(1, 16, seed=94)):
            a = fine_match_2d3d(model, full, corr, stack)
            b = fine_match_2d3d(model, crop, in_crop, stack)
            # the expectations are taken over positions shifted by the box's corner
            pixels = crop_to_image(b.fine_pixels, crop.intrinsics, full.intrinsics)
            np.testing.assert_allclose(pixels, a.fine_pixels, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(b.fine_conf, a.fine_conf)
            assert not b.fine_clamped.any()

        # at the crop's far corner the window shifts inside the crop
        corner = CorrespondenceSet(
            coarse_points=np.arange(1),
            coarse_pixels=np.array([[w - 1, h - 1]]) * GRID_STRIDE + GRID_STRIDE / 2.0,
            coarse_conf=np.ones(1),
        )
        out = fine_match_2d3d(model, crop, corner, BYPASS)
        assert out.fine_clamped.all()
        hi = np.array([w, h]) * GRID_STRIDE - FINE_STRIDE
        assert np.all(out.fine_pixels <= hi) and np.all(out.fine_pixels >= hi - 4 * FINE_STRIDE)


class TestQueryFeatureMaps:
    """The constructor names the field that is malformed."""

    INTR = CameraIntrinsics(fx=50.0, fy=50.0, cx=16.0, cy=16.0, width=32, height=32)

    def _maps(self, fine, coarse=np.ones((4, 4, 2))):
        return QueryFeatureMaps(coarse, fine, self.INTR)

    def test_fine_map_not_3d(self):
        for bad in (np.ones((16, 16)), np.ones(16 * 16 * 2), np.ones((16, 16, 2, 1))):
            with pytest.raises(ValueError, match="fine must be 3-D"):
                self._maps(bad)

    def test_maps_do_not_cover_the_camera(self):
        fine = np.ones((16, 16, 2))
        cover = r"coarse, fine cover .* cells, not the camera's 32 x 32 px"
        for coarse in (np.ones((2, 3, 2)), np.ones((4, 5, 2))):
            with pytest.raises(ValueError, match=cover):
                self._maps(fine, coarse)
        for shape in ((8, 16, 2), (16, 17, 2)):
            with pytest.raises(ValueError, match=cover):
                self._maps(np.ones(shape))


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
        fine_pixels = crop_to_image(corr.fine_pixels, qmaps.intrinsics, intr)
        for j, pix in zip(corr.fine_points, fine_pixels):
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

    def test_batched_equals_per_window_loop(self):
        rng = np.random.default_rng(89)
        model = random_model(rng, n=40)
        query = random_query(rng, hw=16)
        cells = rng.integers(0, 16, size=(40, 2))
        cells[:4] = [[0, 0], [15, 0], [0, 15], [15, 15]]  # windows clamped at the map border
        corr = CorrespondenceSet(
            coarse_points=rng.permutation(40),
            coarse_pixels=cells * GRID_STRIDE + GRID_STRIDE / 2.0,
            coarse_conf=np.ones(40),
        )
        for stack in (BYPASS, AttentionStack.random(1, 16, seed=90)):
            out = fine_match_2d3d(model, query, corr, stack)
            points, pixels, conf, clamped = reference_fine_match(model, query, corr, stack)
            np.testing.assert_array_equal(out.fine_points, points)
            np.testing.assert_array_equal(out.fine_pixels, pixels)
            np.testing.assert_array_equal(out.fine_conf, conf)
            np.testing.assert_array_equal(out.fine_clamped, clamped)
            assert clamped[1:4].all() and not clamped[0]

    @pytest.mark.parametrize("fine_tau", [DEFAULT_TAU, 0.0067])
    def test_float32_inputs_agree_with_float64(self, fine_tau):
        # estimate_views runs the fine block in float32 at every tau; at 0.0067
        # the logits span up to 2 / tau ~ 298, far past float32's exp range,
        # and the far cells' probabilities underflow to 0
        scene = generate_scene(75, 200, 7, ZERO)
        model = build_model(scene, OracleMatcher(scene))
        qmaps = synthesize_query_maps(scene, 6)
        stack = AttentionStack.random(1, scene.desc_fine.shape[1], seed=75)
        corr = coarse_match_2d3d(model, qmaps, BYPASS)[2]
        out64 = fine_match_2d3d(model, qmaps, corr, stack, fine_tau=fine_tau)
        out32 = fine_match_2d3d(
            dataclasses.replace(model, fine_features=model.fine_features.astype(np.float32)),
            dataclasses.replace(qmaps, fine=qmaps.fine.astype(np.float32)),
            corr,
            stack.astype(np.float32),
            fine_tau=fine_tau,
        )
        assert out64.n_fine > 50
        assert out32.fine_pixels.dtype == out32.fine_conf.dtype == np.float64
        np.testing.assert_array_equal(out32.fine_points, out64.fine_points)
        np.testing.assert_array_equal(out32.fine_clamped, out64.fine_clamped)
        assert np.max(np.abs(out32.fine_pixels - out64.fine_pixels)) <= 1e-3
        np.testing.assert_allclose(out32.fine_conf, out64.fine_conf, atol=1e-5)

    @pytest.mark.parametrize("window", [5, 9])
    def test_blocks_equal_one_block(self, window, monkeypatch):
        rng = np.random.default_rng(91)
        model = random_model(rng, n=70)
        dense = random_query(rng)
        table = _unit_rows(rng, 500, 16)  # cells share rows, as on a synthesized floor
        index = rng.integers(0, len(table), dense.fine.shape[:2])
        query = QueryFeatureMaps(dense.coarse, table[index], dense.intrinsics)
        corr = CorrespondenceSet(
            coarse_points=rng.permutation(70),
            coarse_pixels=rng.integers(0, 16, size=(70, 2)) * GRID_STRIDE + GRID_STRIDE / 2.0,
            coarse_conf=np.ones(70),
        )
        for stack in (BYPASS, AttentionStack.random(1, 16, seed=92)):
            whole = fine_match_2d3d(model, query, corr, stack, window=window)
            for n_windows in (1, 7, 64):
                monkeypatch.setattr(
                    pose_matching, "_FINE_BLOCK_ELEMENTS", n_windows * window * window * 16
                )
                out = fine_match_2d3d(model, query, corr, stack, window=window)
                np.testing.assert_array_equal(out.fine_pixels, whole.fine_pixels)
                np.testing.assert_array_equal(out.fine_conf, whole.fine_conf)
                np.testing.assert_array_equal(out.fine_clamped, whole.fine_clamped)
            monkeypatch.undo()

    def test_expectation_independent_of_the_frame(self):
        # the same float32 window, k cells deeper into a padded copy of the map,
        # gives the same fine pixel shifted by k cells: float32 probabilities sum
        # to 1 only to ~1e-7, which must not scale with the window's distance
        # from the map's origin (it moved fine pixels by up to 1.1e-4 px)
        rng = np.random.default_rng(93)
        model = random_model(rng, n=40, cf=8)
        model = dataclasses.replace(model, fine_features=model.fine_features.astype(np.float32))
        query = random_query(rng, hw=8, cf=8)
        fine = query.fine.astype(np.float32)
        cells = rng.integers(1, 7, size=(40, 2))  # windows clear of the map's borders
        stack = AttentionStack.random(1, 8, seed=93).astype(np.float32)

        def match(fine, shift):
            hf, wf = fine.shape[:2]
            intr = dataclasses.replace(
                query.intrinsics, width=wf * FINE_STRIDE, height=hf * FINE_STRIDE
            )
            maps = QueryFeatureMaps(np.zeros((hf // 4, wf // 4, 16)), fine, intr)
            corr = CorrespondenceSet(
                coarse_points=np.arange(40),
                coarse_pixels=cells * GRID_STRIDE + GRID_STRIDE / 2.0 + shift * FINE_STRIDE,
                coarse_conf=np.ones(40),
            )
            return fine_match_2d3d(model, maps, corr, stack)

        base = match(fine, np.zeros(2))
        assert not base.fine_clamped.any()
        for cols, rows in ((0, 2000), (2000, 0), (200, 200)):
            padded = np.pad(fine, ((rows, 0), (cols, 0), (0, 0)), constant_values=0.25)
            out = match(padded, np.array([cols, rows]))
            np.testing.assert_array_equal(out.fine_conf, base.fine_conf)
            np.testing.assert_array_equal(out.fine_clamped, base.fine_clamped)
            moved = out.fine_pixels - np.array([cols, rows]) * FINE_STRIDE
            assert np.abs(moved - base.fine_pixels).max() <= 1e-9

    def test_even_window_rejected(self):
        rng = np.random.default_rng(81)
        model = random_model(rng, n=2)
        query = random_query(rng)
        with pytest.raises(ValueError):
            fine_match_2d3d(model, query, CorrespondenceSet(), BYPASS, window=4)

    def test_window_wider_than_the_fine_map_rejected(self):
        rng = np.random.default_rng(82)
        model = random_model(rng, n=4)
        query = random_query(rng, hw=4)  # a 16 x 16 fine map
        corr = CorrespondenceSet(
            coarse_points=np.arange(4),
            coarse_pixels=np.array([[4.0, 4.0], [28.0, 4.0], [4.0, 28.0], [28.0, 28.0]]),
            coarse_conf=np.ones(4),
        )
        with pytest.raises(ValueError, match="wider than the 16 x 16 fine map"):
            fine_match_2d3d(model, query, corr, BYPASS, window=17)
        out = fine_match_2d3d(model, query, corr, BYPASS, window=15)
        _, pixels, _, clamped = reference_fine_match(model, query, corr, BYPASS, window=15)
        np.testing.assert_array_equal(out.fine_pixels, pixels)
        np.testing.assert_array_equal(out.fine_clamped, clamped)
        assert np.all(out.fine_pixels >= 0) and np.all(out.fine_pixels <= 30)


class TestGroundTruthMatches:
    def test_cells_match_projections(self):
        scene = generate_scene(82, 60, 4, ZERO)
        matcher = OracleMatcher(scene)
        model = build_model(scene, matcher)
        pose, intr = scene.views[0]
        image_pix, _, visible = project_with_depth(pose, intr, model.points)
        u0, v0, u1, v1 = oracle_object_box(scene, 0)
        cut = (u0 + 32, v0, u1, v1 - 32)
        # the whole image, the object's box, and a box that cuts the object
        for box in (image_box(scene, 0), (u0, v0, u1, v1), cut):
            query = synthesize_query_maps(scene, 0, box=box)
            ok, cells, pix = ground_truth_matches(model, pose, query)
            assert ok.sum() > 0
            if box == cut:
                assert ok.sum() < visible.sum()
            # pixels in the crop's frame: the box's corner is its origin
            shifted = image_pix[visible] - box[:2]
            np.testing.assert_allclose(pix[visible], shifted, rtol=0, atol=1e-9)
            wc = (box[2] - box[0]) // GRID_STRIDE
            for j in range(model.n_points):
                center = grid_cell_center(image_pix[j]) if visible[j] else None
                inside = visible[j] and box[0] < center[0] < box[2] and box[1] < center[1] < box[3]
                assert ok[j] == inside
                if inside:
                    col = int((center[0] - box[0]) // GRID_STRIDE)
                    row = int((center[1] - box[1]) // GRID_STRIDE)
                    assert cells[j] == row * wc + col
                else:
                    assert cells[j] == -1
