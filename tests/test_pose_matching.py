"""Coarse/fine 2D-3D matching: dual-softmax, MNN selection, window expectation."""

import dataclasses

import numpy as np
import pytest

import support
from semidense.attention import AttentionStack
from semidense.matching import OracleMatcher, select_view_pairs
from semidense.geometry import CameraIntrinsics, SE3Pose
from semidense.pose_matching import (
    _FINE_SPLAT_RADIUS_CELLS,
    DEFAULT_TAU,
    DEFAULT_THETA,
    DUAL_SOFTMAX_MAX_SPAN,
    DUAL_SOFTMAX_MAX_SPAN_F32,
    FINE_SPLAT_SIGMA_PX,
    FINE_STRIDE,
    CorrespondenceSet,
    QueryFeatureMaps,
    coarse_match_2d3d,
    dual_softmax,
    fine_match_2d3d,
    ground_truth_matches,
    mutual_nearest_neighbors,
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
    return QueryFeatureMaps(coarse=coarse, fine=fine, intrinsics=intr)


def reference_query_maps(scene, view_id):
    """Per-point splat loop: the oracle for `synthesize_query_maps`, over the same noise floors."""
    pose, intr = scene.views[view_id]
    obs = render_observations(scene, view_id)
    coarse, fine = query_noise_floors(scene, view_id)
    hf, wf, _ = fine.shape
    touched = np.zeros((hf, wf), dtype=bool)

    for row in np.flatnonzero(obs.cell_winner):
        c = int(obs.cells[row, 0] // GRID_STRIDE)
        r = int(obs.cells[row, 1] // GRID_STRIDE)
        coarse[r, c] = obs.desc_coarse[row]

    depths = pose.transform(scene.points[obs.point_ids])[:, 2]
    rad = _FINE_SPLAT_RADIUS_CELLS
    for row in np.argsort(-depths):
        u, v = obs.pixels[row]
        c0 = int(np.rint(u / FINE_STRIDE))
        r0 = int(np.rint(v / FINE_STRIDE))
        cs = np.arange(max(c0 - rad, 0), min(c0 + rad + 1, wf))
        rs = np.arange(max(r0 - rad, 0), min(r0 + rad + 1, hf))
        if not len(cs) or not len(rs):
            continue
        du = cs * FINE_STRIDE - u
        dv = rs * FINE_STRIDE - v
        d2 = dv[:, None] ** 2 + du[None, :] ** 2
        g = np.exp(-d2 / (2.0 * FINE_SPLAT_SIGMA_PX**2))[:, :, None]
        block = fine[np.ix_(rs, cs)]
        fine[np.ix_(rs, cs)] = g * obs.desc_fine[row] + (1.0 - g) * block
        touched[np.ix_(rs, cs)] = True
    fine[touched] /= np.linalg.norm(fine[touched], axis=1, keepdims=True)
    return coarse, fine


def reference_fine_match(model, query, corr, stack, window=5, fine_tau=0.08):
    """Per-window loop: the oracle for `fine_match_2d3d`."""
    half = window // 2
    hf, wf, _ = query.fine.shape
    points, pixels, confs, clamped = [], [], [], []
    offsets = np.arange(window)
    for j, cell in zip(corr.coarse_points, corr.coarse_pixels):
        cf = int(cell[0] // FINE_STRIDE)
        rf = int(cell[1] // FINE_STRIDE)
        c0 = int(np.clip(cf - half, 0, wf - window))
        r0 = int(np.clip(rf - half, 0, hf - window))
        crop = query.fine[r0 : r0 + window, c0 : c0 + window].reshape(-1, query.fine.shape[2])
        pos_u = (c0 + offsets) * FINE_STRIDE
        pos_v = (r0 + offsets) * FINE_STRIDE
        positions = np.stack(
            [np.tile(pos_u, window), np.repeat(pos_v, window)], axis=1
        ).astype(float)
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
        pixels.append(window_expectation(p, positions))
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
    reference for the radix-ordered `_splat_fine`, over the same arithmetic."""
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

    def test_span_guard_at_the_bound(self):
        rng = np.random.default_rng(80)
        unit = rng.uniform(size=(6, 9))
        unit = (unit - unit.min()) / (unit.max() - unit.min())  # span exactly 1
        at_bound = unit * DUAL_SOFTMAX_MAX_SPAN - DUAL_SOFTMAX_MAX_SPAN / 2
        assert at_bound.max() - at_bound.min() == DUAL_SOFTMAX_MAX_SPAN
        ref = support.two_pass_dual_softmax(at_bound)
        assert np.max(np.abs(dual_softmax(at_bound) - ref) / ref) <= 1e-13
        past = unit * np.nextafter(DUAL_SOFTMAX_MAX_SPAN, np.inf)
        for bad in (past, np.where(unit == 0, np.inf, unit), np.where(unit == 0, np.nan, unit)):
            with pytest.raises(ValueError, match="span"):
                dual_softmax(bad)

    def test_float32_span_guard_at_the_bound(self):
        rng = np.random.default_rng(81)
        unit = rng.uniform(size=(6, 9)).astype(np.float32)
        unit = (unit - unit.min()) / (unit.max() - unit.min())  # span exactly 1
        bound = np.float32(DUAL_SOFTMAX_MAX_SPAN_F32)
        at_bound = unit * bound - bound / 2
        assert at_bound.max() - at_bound.min() == bound
        prob = dual_softmax(at_bound)
        ref = support.two_pass_dual_softmax(at_bound.astype(float))
        assert prob.dtype == np.float32
        assert np.max(np.abs(prob - ref) / ref) <= 1e-5  # E**2 stays a normal float32
        past = unit * np.nextafter(bound, np.float32(np.inf))
        assert past.dtype == np.float32 and past.max() - past.min() > bound
        for bad in (past, np.where(unit == 0, np.float32(np.inf), unit)):
            with pytest.raises(ValueError, match="span"):
                dual_softmax(bad)


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

    def _assert_equals_loop(self, scene, view_id):
        qmaps = synthesize_query_maps(scene, view_id)
        coarse, fine = reference_query_maps(scene, view_id)
        np.testing.assert_array_equal(qmaps.coarse, coarse)
        np.testing.assert_array_equal(qmaps.fine, fine)

    def test_noisy_view_with_dropout(self):
        noise = NoiseModel(descriptor_noise_sigma=0.1, dropout_rate=0.1)
        scene = generate_scene(86, 300, 3, noise)
        for view_id in range(scene.n_views):
            assert render_observations(scene, view_id).point_ids.size > 200
            self._assert_equals_loop(scene, view_id)

    def test_splats_clipped_at_the_border(self):
        scene = generate_scene(87, 300, 2, ZERO)
        pose, intr = scene.views[0]
        obs = render_observations(scene, 0)
        u, v = np.median(obs.pixels, axis=0)
        z = np.median(pose.transform(scene.points[obs.point_ids])[:, 2])
        reach = _FINE_SPLAT_RADIUS_CELLS * FINE_STRIDE
        for corner in ([0.0, 0.0], [intr.width, intr.height]):
            # slide the camera so the object's median projection lands on the corner
            shift = (np.array(corner) - [u, v]) * z / intr.fx
            moved = SE3Pose(pose.rotation, pose.translation + [shift[0], shift[1], 0.0])
            cornered = dataclasses.replace(scene, views=[(moved, intr), scene.views[1]])
            pix = render_observations(cornered, 0).pixels
            edge = np.minimum(pix, intr.width - pix)
            assert len(pix) > 20 and np.all(np.any(edge < reach, axis=0))
            self._assert_equals_loop(cornered, 0)

    def test_no_visible_point(self):
        scene = generate_scene(88, 60, 2, ZERO)
        behind = SE3Pose(np.eye(3), np.array([0.0, 0.0, -10.0]))
        scene = dataclasses.replace(scene, views=[(behind, scene.views[0][1]), scene.views[1]])
        assert render_observations(scene, 0).point_ids.size == 0
        self._assert_equals_loop(scene, 0)


    def test_noise_floors(self):
        scene = generate_scene(86, 300, 3, NoiseModel(descriptor_noise_sigma=0.1))
        coarse, fine = query_noise_floors(scene, 1)
        again = query_noise_floors(scene, 1)
        assert np.array_equal(coarse, again[0]) and np.array_equal(fine, again[1])
        assert not np.array_equal(fine, query_noise_floors(scene, 2)[1])
        np.testing.assert_allclose(np.linalg.norm(coarse, axis=2), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(fine, axis=2), 1.0, atol=1e-12)
        # the 256 x 256 fine cells gather rows of one 4096-row table
        distinct = np.unique(fine.reshape(-1, fine.shape[2]), axis=0)
        assert 4000 < len(distinct) <= 4096
        # untouched cells keep their unit floor and touched ones are renormalized
        qmaps = synthesize_query_maps(scene, 1)
        np.testing.assert_allclose(np.linalg.norm(qmaps.fine, axis=2), 1.0, atol=1e-12)


class TestSplatFine:
    """The radix-ordered splat equals the searchsorted reference bit for bit."""

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
        fine = _unit_rows(rng, hf * hf, 4).reshape(hf, hf, 4)
        ref = fine.copy()
        touched = _splat_fine(fine, pixels, desc)
        ref_touched, rounds = searchsorted_splat_fine(ref, pixels, desc)
        assert rounds > 20  # clustered peaks update one cell many times
        np.testing.assert_array_equal(touched, ref_touched)
        np.testing.assert_array_equal(fine, ref)


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
        ok, cells, pix = ground_truth_matches(model, pose, intr)
        assert ok.sum() > 0
        wc = intr.width // GRID_STRIDE
        for j in np.flatnonzero(ok):
            center = grid_cell_center(pix[j])
            expected = int(center[1] // GRID_STRIDE) * wc + int(center[0] // GRID_STRIDE)
            assert cells[j] == expected
