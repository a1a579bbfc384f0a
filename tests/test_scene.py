"""Synthetic-scene oracle: determinism, visibility, noise statistics."""

import numpy as np
import pytest
import support

from semidense.errors import VisibilityError
from semidense.geometry import (
    TRI_OK,
    SE3Pose,
    gauss_newton_polish,
    project_with_depth,
    triangulate_dlt,
)
from semidense.scene import (
    CELL_KEY_BITS,
    FINE_WINDOW_HALF,
    GRID_STRIDE,
    NoiseModel,
    SyntheticScene,
    cell_keys,
    cell_winners,
    generate_scene,
    grid_cell_center,
    oracle_fine_location,
    render_observations,
)

ZERO = NoiseModel()


class TestGenerateScene:
    def test_bit_exact_determinism(self):
        a = generate_scene(1, 100, 10, ZERO)
        b = generate_scene(1, 100, 10, ZERO)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.desc_coarse, b.desc_coarse)
        assert np.array_equal(a.desc_fine, b.desc_fine)
        for (pa, _), (pb, _) in zip(a.views, b.views):
            assert np.array_equal(pa.rotation, pb.rotation)
            assert np.array_equal(pa.translation, pb.translation)

    def test_different_seeds_differ(self):
        a = generate_scene(1, 100, 10, ZERO)
        b = generate_scene(2, 100, 10, ZERO)
        assert not np.array_equal(a.points, b.points)

    def test_points_inside_unit_box(self):
        scene = generate_scene(3, 500, 5, ZERO)
        assert np.abs(scene.points).max() <= 0.5 + 1e-12

    def test_descriptors_unit_norm(self):
        scene = generate_scene(4, 64, 4, ZERO)
        np.testing.assert_allclose(np.linalg.norm(scene.desc_coarse, axis=1), 1.0, atol=1e-6)
        np.testing.assert_allclose(np.linalg.norm(scene.desc_fine, axis=1), 1.0, atol=1e-6)

    def test_every_point_visible_twice(self):
        scene = generate_scene(5, 200, 8, ZERO)
        counts = np.zeros(scene.n_points, dtype=int)
        for v in range(scene.n_views):
            counts += render_observations(scene, v).visible_mask
        assert counts.min() >= 2

    def test_camera_distance_range(self):
        dists = []
        for seed in range(100):
            scene = generate_scene(seed, 8, 4, ZERO)
            dists.extend(
                np.linalg.norm(pose.camera_center) for pose, _ in scene.views
            )
        dists = np.array(dists)
        assert dists.min() >= 3.0 - 1e-9 and dists.max() <= 5.0 + 1e-9
        assert 3.0 < dists.mean() < 5.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            generate_scene(1, 4, 10, ZERO)
        with pytest.raises(ValueError):
            generate_scene(1, 100, 1, ZERO)
        with pytest.raises(ValueError):
            NoiseModel(dropout_rate=1.0)
        with pytest.raises(ValueError):
            NoiseModel(fine_noise_sigma=-0.1)
        # a scene file's noise goes through the same check as the flags
        for bad in (float("nan"), 1e160):
            with pytest.raises(ValueError, match="descriptor_noise_sigma must be in"):
                NoiseModel(descriptor_noise_sigma=bad)


class TestRenderObservations:
    def test_zero_noise_descriptors_exact(self):
        scene = generate_scene(7, 120, 6, ZERO)
        obs = render_observations(scene, 0)
        np.testing.assert_array_equal(obs.desc_coarse, scene.desc_coarse[obs.point_ids])
        np.testing.assert_array_equal(obs.desc_fine, scene.desc_fine[obs.point_ids])

    def test_determinism(self):
        scene = generate_scene(8, 100, 5, NoiseModel(descriptor_noise_sigma=0.2, dropout_rate=0.1))
        a = render_observations(scene, 2)
        b = render_observations(scene, 2)
        assert np.array_equal(a.point_ids, b.point_ids)
        assert np.array_equal(a.desc_coarse, b.desc_coarse)

    def test_pixels_inside_bounds(self):
        scene = generate_scene(9, 300, 8, ZERO)
        for v in range(scene.n_views):
            obs = render_observations(scene, v)
            _, intr = scene.views[v]
            assert np.all(obs.pixels >= 0)
            assert np.all(obs.pixels[:, 0] < intr.width)
            assert np.all(obs.pixels[:, 1] < intr.height)

    def test_depths_are_the_camera_depths(self):
        # the depths the z-buffer ranks by, which query-map synthesis reads back
        scene = generate_scene(10, 150, 4, NoiseModel(dropout_rate=0.2))
        for v in range(scene.n_views):
            obs = render_observations(scene, v)
            pose, _ = scene.views[v]
            assert obs.depths.shape == obs.point_ids.shape
            np.testing.assert_array_equal(obs.depths, pose.transform(scene.points)[obs.point_ids, 2])

    def test_cells_are_quantized_pixels(self):
        scene = generate_scene(10, 150, 4, ZERO)
        obs = render_observations(scene, 1)
        np.testing.assert_array_equal(obs.cells, grid_cell_center(obs.pixels))
        # cell centers are congruent to stride/2 mod stride
        assert np.all(np.mod(obs.cells, GRID_STRIDE) == GRID_STRIDE / 2.0)

    def test_dropout_rate_monte_carlo(self):
        # n = 100 scenes x 1000 in-frustum points = 100,000 independent keep
        # draws: the mean kept fraction has standard deviation
        # sqrt(0.3 * 0.7 / 100,000) ~ 0.0014, so the 0.02 bound is ~14 sigma
        fractions, planted = [], []
        for seed in range(100):
            noisy = generate_scene(seed, 1000, 2, NoiseModel(dropout_rate=0.3))
            clean = generate_scene(seed, 1000, 2, ZERO)
            n_vis = render_observations(noisy, 0).visible_mask.sum()
            n_frustum = render_observations(clean, 0).visible_mask.sum()
            assert n_frustum == 1000
            fractions.append(n_vis / n_frustum)
            # power: a rate 0.05 too high
            high = generate_scene(seed, 1000, 2, NoiseModel(dropout_rate=0.35))
            planted.append(render_observations(high, 0).visible_mask.sum() / n_frustum)
        assert abs(np.mean(fractions) - 0.7) < 0.02
        assert not abs(np.mean(planted) - 0.7) < 0.02

    def test_cell_winner_unique_and_front_most(self):
        scene = generate_scene(11, 400, 4, ZERO)
        obs = render_observations(scene, 0)
        pose, _ = scene.views[0]
        depths = pose.transform(scene.points[obs.point_ids])[:, 2]
        seen = {}
        for row in np.flatnonzero(obs.cell_winner):
            key = (obs.cells[row, 0], obs.cells[row, 1])
            assert key not in seen
            seen[key] = row
        # every observation's cell has exactly one winner, and none is nearer
        for row in range(len(obs.point_ids)):
            key = (obs.cells[row, 0], obs.cells[row, 1])
            w = seen[key]
            assert depths[w] <= depths[row]


def _ref_cell_winner(cells, depths):
    """The dict loop the array cell-winner code replaced: front-most row per cell, earliest on ties."""
    winner = np.zeros(len(cells), dtype=bool)
    best: dict[tuple[int, int], int] = {}
    for row in range(len(cells)):
        key = (int(cells[row, 0]), int(cells[row, 1]))
        prev = best.get(key)
        if prev is None or depths[row] < depths[prev]:
            best[key] = row
    for row in best.values():
        winner[row] = True
    return winner


def _assert_cell_winner_matches_loop(scene, view):
    obs = render_observations(scene, view)
    pose, intr = scene.views[view]
    depths = project_with_depth(pose, intr, scene.points)[1][obs.point_ids]
    assert np.array_equal(obs.cell_winner, _ref_cell_winner(obs.cells, depths))
    return obs


class TestCellWinnerMatchesDictLoop:
    def test_localize_size_scene(self):
        scene = generate_scene(1, 2000, 6, NoiseModel(dropout_rate=0.1))
        for view in range(scene.n_views):
            obs = _assert_cell_winner_matches_loop(scene, view)
            assert not obs.cell_winner.all()  # cells with several points occur

    def test_equal_depth_tie_goes_to_earliest_row(self):
        # rows 0-2 share one cell at depth 4 exactly; row 5 is nearer than rows 3-4 in another
        points = np.array([
            [0.001, 0.0, 0.0], [0.002, 0.0, 0.0], [0.0015, 0.0, 0.0],
            [0.105, 0.0, 0.0], [0.1051, 0.0, 0.0], [0.1, 0.0, -0.5],
        ])
        desc = np.eye(6)
        scene = SyntheticScene(
            points=points, desc_coarse=desc, desc_fine=desc,
            views=[(SE3Pose(np.eye(3), np.array([0.0, 0.0, 4.0])), support.default_intrinsics())],
            noise=NoiseModel(), seed=0,
        )
        obs = _assert_cell_winner_matches_loop(scene, 0)
        assert len(obs.point_ids) == 6
        assert len({tuple(c) for c in obs.cells.tolist()}) == 2
        assert obs.cell_winner.tolist() == [True, False, False, False, False, True]


    def test_random_cells_with_ties(self):
        # few cells and four depth levels: most cells hold several rows, many at one depth
        rng = np.random.default_rng(12)
        for n in (0, 1, 2, 7, 50, 400):
            pixels = rng.uniform(0.0, 32.0, (n, 2))
            depths = rng.integers(0, 4, n).astype(float)
            expected = _ref_cell_winner(grid_cell_center(pixels), depths)
            assert np.array_equal(cell_winners(pixels, depths), expected)


class TestCellKeys:
    def test_keys_sort_like_cells(self):
        u, v = np.meshgrid(np.arange(40) * 8.0 + 4.0, np.arange(30) * 8.0 + 4.0)
        centers = np.random.default_rng(0).permutation(np.column_stack([u.ravel(), v.ravel()]))
        keys = cell_keys(centers)
        assert np.array_equal(np.argsort(keys), np.lexsort((centers[:, 1], centers[:, 0])))
        # every pixel of a cell shares its center's key
        for offset in ((-4.0, -4.0), (3.99, -4.0), (0.5, 3.5)):
            assert np.array_equal(cell_keys(centers + offset), keys)

    def test_off_grid_and_non_finite_are_minus_one(self):
        top = GRID_STRIDE * 2.0 ** (CELL_KEY_BITS // 2)  # first column past the key's range
        pixels = [(-0.5, 4.0), (4.0, -8.0), (np.nan, 4.0), (4.0, np.inf), (-np.inf, 4.0),
                  (top, 4.0), (4.0, top), (1e30, 1e30), (top - 1.0, top - 1.0), (0.0, 0.0)]
        keys = cell_keys(pixels)
        assert keys.dtype == np.int64
        assert keys[:8].tolist() == [-1] * 8
        assert keys[8] == 2**CELL_KEY_BITS - 1 and keys[9] == 0
        assert cell_keys(np.zeros((0, 2))).shape == (0,)


class TestOracleFineLocation:
    def test_zero_noise_is_exact_projection(self):
        scene = generate_scene(12, 50, 4, ZERO)
        obs = render_observations(scene, 0)
        pid = int(obs.point_ids[0])
        loc = oracle_fine_location(scene, 0, pid)
        np.testing.assert_allclose(loc, obs.pixels[0], atol=1e-12)

    def test_repeated_calls_identical(self):
        scene = generate_scene(13, 50, 4, NoiseModel(fine_noise_sigma=0.5))
        obs = render_observations(scene, 1)
        pid = int(obs.point_ids[3])
        a = oracle_fine_location(scene, 1, pid)
        b = oracle_fine_location(scene, 1, pid)
        assert np.array_equal(a, b)

    def test_invisible_point_raises(self):
        # narrow field of view so parts of the object leave some frames
        scene = generate_scene(14, 64, 8, ZERO, focal=1200.0)
        for v in range(scene.n_views):
            vis = render_observations(scene, v).visible_mask
            hidden = np.flatnonzero(~vis)
            if hidden.size:
                with pytest.raises(VisibilityError):
                    oracle_fine_location(scene, v, int(hidden[0]))
                return
        raise AssertionError("expected at least one culled point with f=1200")

    def test_noise_std_monte_carlo(self):
        # n = 10000 per axis. The +-4 px clamp around the cell center lowers the
        # std from 0.5 to ~0.483 (pixels uniform in the cell), and the sample
        # std's standard deviation is ~0.483 / sqrt(2n) = 0.0034: the bounds
        # are ~9.6 sigma below and ~20 sigma above.
        scene = generate_scene(15, 1000, 10, NoiseModel(fine_noise_sigma=0.5))
        errs = []
        for v in range(scene.n_views):
            obs = render_observations(scene, v)
            for row, pid in enumerate(obs.point_ids):
                loc = oracle_fine_location(scene, v, int(pid))
                errs.append(loc - obs.pixels[row])
        errs = np.array(errs)
        assert errs.shape[0] >= 10_000
        for axis in range(2):
            assert 0.45 <= errs[:, axis].std() <= 0.55

    def test_clamped_to_window(self):
        scene = generate_scene(16, 200, 4, NoiseModel(fine_noise_sigma=3.0))
        obs = render_observations(scene, 0)
        for row, pid in enumerate(obs.point_ids[:100]):
            loc = oracle_fine_location(scene, 0, int(pid))
            assert np.max(np.abs(loc - obs.cells[row])) <= FINE_WINDOW_HALF + 1e-12


class TestZeroNoiseComposition:
    def _tracks_by_point(self, scene: SyntheticScene):
        per_point = {}
        for v in range(scene.n_views):
            obs = render_observations(scene, v)
            for row, pid in enumerate(obs.point_ids):
                per_point.setdefault(int(pid), []).append((v, row, obs))
        return per_point

    @staticmethod
    def _triangulate(observations):
        arrays = support.track_arrays(observations)
        point, reject = triangulate_dlt(*arrays)
        assert reject.tolist() == [TRI_OK]
        return gauss_newton_polish(point, *arrays, np.array([len(observations)]))[0]

    def test_quantized_triangulation_within_grid_bound(self):
        scene = generate_scene(17, 100, 8, ZERO)
        for pid, nodes in self._tracks_by_point(scene).items():
            if len(nodes) < 2:
                continue
            obs_list = [
                (scene.views[v][0], scene.views[v][1], obs.cells[row])
                for v, row, obs in nodes
            ]
            point = self._triangulate(obs_list)
            depth = max(
                scene.views[v][0].transform(scene.points[pid])[2] for v, _, _ in nodes
            )
            bound = GRID_STRIDE / scene.views[0][1].fx * depth * np.sqrt(2.0)
            assert np.linalg.norm(point - scene.points[pid]) <= bound

    def test_oracle_fine_triangulation_recovers_exactly(self):
        scene = generate_scene(18, 60, 6, ZERO)
        for pid, nodes in self._tracks_by_point(scene).items():
            if len(nodes) < 2:
                continue
            obs_list = [
                (
                    scene.views[v][0],
                    scene.views[v][1],
                    oracle_fine_location(scene, v, pid),
                )
                for v, _, _ in nodes
            ]
            point = self._triangulate(obs_list)
            assert np.linalg.norm(point - scene.points[pid]) < 1e-9
