"""Oracle matching frontend: coarse pair matching and windowed fine refinement."""

import dataclasses

import numpy as np
import pytest
import support

from semidense.errors import VisibilityError
from semidense.geometry import project_with_depth
from semidense.matching import (
    OUTLIER_CONFIDENCE,
    FineMatchQuery,
    OracleMatcher,
    outlier_draws,
    select_view_pairs,
)
from semidense.scene import (
    FINE_WINDOW_HALF,
    NoiseModel,
    ViewObservations,
    fine_noise_table,
    generate_scene,
    grid_cell_center,
    oracle_fine_location,
    render_observations,
)

ZERO = NoiseModel()


def _winner_points(obs: ViewObservations) -> dict[int, int]:
    return {int(obs.point_ids[r]): r for r in np.flatnonzero(obs.cell_winner)}


def _rows(matches):
    """Every match of a PairMatches as (view_a, view_b, cell_a, cell_b, score)."""
    return [
        (matches.view_a, matches.view_b, tuple(ca), tuple(cb), s)
        for ca, cb, s in zip(
            matches.cells_a.tolist(), matches.cells_b.tolist(), matches.scores.tolist()
        )
    ]


class TestCoarseMatchPair:
    def test_inlier_match_count(self):
        scene = generate_scene(21, 150, 6, ZERO)
        matcher = OracleMatcher(scene)
        a, b = matcher.observations(0), matcher.observations(1)
        matches = matcher.coarse_match_pair(a, b)
        expected = _winner_points(a).keys() & _winner_points(b).keys()
        assert len(matches) == len(expected)

    def test_matches_join_true_cells(self):
        scene = generate_scene(22, 200, 5, ZERO)
        matcher = OracleMatcher(scene)
        a, b = matcher.observations(1), matcher.observations(2)
        win_a, win_b = _winner_points(a), _winner_points(b)
        cells_of_point = {
            p: (tuple(a.cells[ra]), tuple(b.cells[win_b[p]]))
            for p, ra in win_a.items()
            if p in win_b
        }
        for _, _, cell_a, cell_b, score in _rows(matcher.coarse_match_pair(a, b)):
            assert (cell_a, cell_b) in cells_of_point.values()
            assert 0.0 <= score <= 1.0

    def test_one_match_per_cell_a(self):
        # dense scene: grid-cell collisions are guaranteed
        scene = generate_scene(23, 1500, 4, ZERO)
        matcher = OracleMatcher(scene)
        a, b = matcher.observations(0), matcher.observations(3)
        assert not np.all(a.cell_winner)  # collisions actually occur
        matches = matcher.coarse_match_pair(a, b)
        cells_a = [cell_a for _, _, cell_a, _, _ in _rows(matches)]
        assert len(cells_a) == len(set(cells_a))

    def test_same_view_rejected(self):
        scene = generate_scene(24, 50, 3, ZERO)
        matcher = OracleMatcher(scene)
        obs = matcher.observations(0)
        with pytest.raises(ValueError):
            matcher.coarse_match_pair(obs, obs)

    def test_symmetry_without_outliers(self):
        scene = generate_scene(25, 120, 4, ZERO)
        matcher = OracleMatcher(scene)
        a, b = matcher.observations(0), matcher.observations(2)
        fwd = {(ca, cb) for _, _, ca, cb, _ in _rows(matcher.coarse_match_pair(a, b))}
        rev = {(cb, ca) for _, _, ca, cb, _ in _rows(matcher.coarse_match_pair(b, a))}
        assert fwd == rev

    def test_repeatability_across_pairs(self):
        scene = generate_scene(26, 100, 5, ZERO)
        matcher = OracleMatcher(scene)
        a = matcher.observations(0)
        cell_by_point = {}
        for other in range(1, 5):
            for _, _, cell_a, _, _ in _rows(matcher.coarse_match_pair(a, matcher.observations(other))):
                pid = support.winner_point(a, cell_a)
                prev = cell_by_point.setdefault(pid, cell_a)
                assert prev == cell_a

    def test_outlier_fraction_monte_carlo(self):
        # n ~ 5300 matches over 100 pairs (~53 each): the mean of the per-pair
        # fractions has standard deviation ~0.0064, so the 0.03 bound is ~4.7 sigma
        fractions = []
        for seed in range(100):
            scene = generate_scene(seed, 100, 2, NoiseModel(outlier_rate=0.3))
            matcher = OracleMatcher(scene)
            a, b = matcher.observations(0), matcher.observations(1)
            win_a, win_b = _winner_points(a), _winner_points(b)
            wrong = total = 0
            for _, _, cell_a, cell_b, _ in _rows(matcher.coarse_match_pair(a, b)):
                pid = support.winner_point(a, cell_a)
                if pid is None or pid not in win_b:
                    continue
                total += 1
                if tuple(b.cells[win_b[pid]]) != cell_b:
                    wrong += 1
            if total:
                fractions.append(wrong / total)
        assert abs(np.mean(fractions) - 0.3) < 0.03

    def test_outliers_deterministic(self):
        scene = generate_scene(27, 80, 3, NoiseModel(outlier_rate=0.4))
        matcher = OracleMatcher(scene)
        a, b = matcher.observations(0), matcher.observations(1)
        m1 = matcher.coarse_match_pair(a, b)
        m2 = matcher.coarse_match_pair(a, b)
        assert _rows(m1) == _rows(m2)


class TestOutlierDraws:
    def _tiny_scene(self, outlier_rate):
        """A scene whose view 1 is a 16x16 px image: a 2x2 grid of 4 cells."""
        scene = generate_scene(30, 20, 2, NoiseModel(outlier_rate=outlier_rate))
        pose, _ = scene.views[1]
        tiny = support.default_intrinsics(16, 16)
        return dataclasses.replace(scene, views=[scene.views[0], (pose, tiny)])

    def test_replacement_is_never_the_true_cell(self):
        # the largest allowed rate: nearly every row is corrupted, and with 4
        # cells a draw that ignored the true cell would hit it 1 time in 4
        scene = self._tiny_scene(0.99)
        centers = np.array([(4.0, 4.0), (12.0, 4.0), (4.0, 12.0), (12.0, 12.0)])
        true_cells = centers[np.arange(4000) % 4]
        rows, cells, scores = outlier_draws(scene, 0, 1, true_cells)
        assert len(rows) > 3900
        assert not np.any(np.all(cells == true_cells[rows], axis=1))
        assert np.all((scores >= 0.0) & (scores < 1.0))
        # each of the other three cells is equally likely: n ~ 1000 per true
        # cell, so a share has standard deviation ~0.015 and 0.07 is ~4.7 sigma
        for t, center in enumerate(centers):
            drawn = cells[rows % 4 == t]
            for other in np.delete(centers, t, axis=0):
                share = np.mean(np.all(drawn == other, axis=1))
                assert abs(share - 1.0 / 3.0) < 0.07

    def test_no_rows(self):
        rows, cells, scores = outlier_draws(self._tiny_scene(0.5), 0, 1, np.zeros((0, 2)))
        assert rows.shape == (0,) and cells.shape == (0, 2) and scores.shape == (0,)


class TestOracleDrawsIndependentOfOrder:
    def test_fine_locations_independent_of_query_order(self):
        scene = support.onboard_scene(3)
        obs = render_observations(scene, 4)
        ids = obs.point_ids
        perm = np.random.default_rng(0).permutation(len(ids))
        batch = oracle_fine_location(scene, 4, ids)
        assert np.array_equal(oracle_fine_location(scene, 4, ids[perm]), batch[perm])
        assert np.array_equal(oracle_fine_location(scene, 4, ids[perm[:7]]), batch[perm[:7]])
        for i in perm[:20]:
            assert np.array_equal(oracle_fine_location(scene, 4, int(ids[i])), batch[i])

    def test_fine_refine_batch_independent_of_query_order(self):
        scene = support.onboard_scene(3)
        matcher = OracleMatcher(scene)
        queries = _track_queries(scene, matcher)
        columns = [np.asarray(c) for c in zip(*queries)]
        pixels, confidence = matcher.fine_refine_batch(*columns)
        perm = np.random.default_rng(1).permutation(len(queries))
        fresh = OracleMatcher(scene)
        got_pixels, got_confidence = fresh.fine_refine_batch(*(c[perm] for c in columns))
        assert np.array_equal(got_pixels, pixels[perm])
        assert np.array_equal(got_confidence, confidence[perm])

    def test_outliers_independent_of_pair_order(self):
        scene = support.onboard_scene(3)
        pairs = select_view_pairs(scene.views)
        fwd, rev = OracleMatcher(scene), OracleMatcher(scene)
        first = [fwd.coarse_match_pair(fwd.observations(a), fwd.observations(b)) for a, b in pairs]
        for (a, b), want in reversed(list(zip(pairs, first))):
            got = rev.coarse_match_pair(rev.observations(a), rev.observations(b))
            assert _rows(got) == _rows(want)


# Reference: the dict-based oracle pair matching that the array code
# replaced, kept here so the two can be checked match for match. Both draw
# their outliers from the one `outlier_draws`.


def _ref_coarse_match_pair(matcher, obs_a, obs_b):
    rate = matcher.scene.noise.outlier_rate
    winners_a = {int(obs_a.point_ids[r]): r for r in np.flatnonzero(obs_a.cell_winner)}
    winners_b = {int(obs_b.point_ids[r]): r for r in np.flatnonzero(obs_b.cell_winner)}
    common = sorted(winners_a.keys() & winners_b.keys())
    if not common:
        return []

    rows_a = np.array([winners_a[p] for p in common])
    rows_b = np.array([winners_b[p] for p in common])
    scores = np.clip(
        np.sum(obs_a.desc_coarse[rows_a] * obs_b.desc_coarse[rows_b], axis=1), 0.0, 1.0
    )
    cells_a = obs_a.cells[rows_a]
    cells_b = obs_b.cells[rows_b]

    if rate > 0:
        rows, wrong_cells, wrong_scores = outlier_draws(
            matcher.scene, obs_a.view_id, obs_b.view_id, cells_b
        )
        cells_b = cells_b.copy()
        scores = scores.copy()
        cells_b[rows] = wrong_cells
        scores[rows] = wrong_scores

    # one match per cell_a: keep the highest score
    best = {}
    for i in range(len(common)):
        key = (cells_a[i, 0], cells_a[i, 1])
        j = best.get(key)
        if j is None or scores[i] > scores[j]:
            best[key] = i
    return [
        (
            obs_a.view_id,
            obs_b.view_id,
            (float(cells_a[i, 0]), float(cells_a[i, 1])),
            (float(cells_b[i, 0]), float(cells_b[i, 1])),
            float(scores[i]),
        )
        for i in sorted(best.values())
    ]


def _assert_same_as_dict_reference(matcher, obs_a, obs_b):
    got = matcher.coarse_match_pair(obs_a, obs_b)
    assert got.cells_a.shape == got.cells_b.shape == (len(got), 2)
    assert got.scores.shape == (len(got),)
    assert _rows(got) == _ref_coarse_match_pair(matcher, obs_a, obs_b)
    return got


def _synthetic_obs(view_id, point_ids, cells, desc):
    """Observations in which every row wins its cell; construction rejects shared cells."""
    n = len(point_ids)
    visible = np.zeros(max(point_ids) + 1, dtype=bool)
    visible[point_ids] = True
    return ViewObservations(
        view_id=view_id,
        point_ids=np.asarray(point_ids),
        pixels=np.asarray(cells, dtype=float),
        cells=np.asarray(cells, dtype=float),
        desc_coarse=np.asarray(desc, dtype=float),
        desc_fine=np.asarray(desc, dtype=float),
        cell_winner=np.ones(n, dtype=bool),
        visible_mask=visible,
    )


class TestCoarseMatchPairMatchesDictReference:
    def test_noisy_onboard_scene(self):
        scene = support.onboard_scene(2)
        matcher = OracleMatcher(scene)
        n_rows = 0
        for a, b in select_view_pairs(scene.views):
            obs_a, obs_b = matcher.observations(a), matcher.observations(b)
            n_rows += len(_assert_same_as_dict_reference(matcher, obs_a, obs_b))
            _assert_same_as_dict_reference(matcher, obs_b, obs_a)
        assert n_rows > 10_000

    def test_no_common_winners(self):
        scene = generate_scene(29, 20, 2, NoiseModel(outlier_rate=0.5))
        matcher = OracleMatcher(scene)
        obs_a = _synthetic_obs(0, [0, 2], [(4.0, 4.0), (12.0, 4.0)], np.eye(2))
        obs_b = _synthetic_obs(1, [1, 3], [(4.0, 4.0), (12.0, 4.0)], np.eye(2))
        got = _assert_same_as_dict_reference(matcher, obs_a, obs_b)
        assert len(got) == 0


def _table_as_dict(obs: ViewObservations) -> dict[int, int]:
    table = obs.winner_row_of_point
    return {int(p): int(table[p]) for p in np.flatnonzero(table >= 0)}


class TestPerViewWinnerTables:
    @pytest.mark.parametrize(
        "make_scene",
        [
            # dense: many points lose their cell
            lambda: generate_scene(23, 1500, 4, ZERO),
            lambda: support.onboard_scene(4),
            lambda: generate_scene(
                39, 600, 5, NoiseModel(dropout_rate=0.3, descriptor_noise_sigma=0.3)
            ),
        ],
        ids=["dense-collisions", "onboard", "dropout-and-descriptor-noise"],
    )
    def test_rendered_views_match_winner_dict(self, make_scene):
        scene = make_scene()
        losers = 0
        for v in range(scene.n_views):
            obs = render_observations(scene, v)
            assert obs.winner_row_of_point.shape == (scene.n_points,)
            assert _table_as_dict(obs) == _winner_points(obs)
            losers += int(np.sum(~obs.cell_winner))
        assert losers > 0

    def test_colliding_winners_rejected(self):
        cells = [(4.0, 4.0), (4.0, 4.0), (12.0, 4.0)]
        with pytest.raises(ValueError, match="one per cell"):
            _synthetic_obs(0, [1, 3, 5], cells, np.eye(3))
        # a point inside another winner's cell, off its center, collides with it too
        with pytest.raises(ValueError, match="one per cell"):
            _synthetic_obs(0, [1, 3], [(4.0, 4.0), (4.5, 4.9)], np.eye(2))
        for off_grid in ((-4.0, 4.0), (4.0, np.nan)):
            with pytest.raises(ValueError, match="on the grid"):
                _synthetic_obs(0, [1, 3], [(4.0, 4.0), off_grid], np.eye(2))
        apart = _synthetic_obs(0, [1, 3], [(4.0, 4.0), (12.0, 4.0)], np.eye(2))
        assert apart.winner_row_of_point.tolist() == [-1, 0, -1, 1]
        # losers may share a winner's cell
        loser = dataclasses.replace(apart, cells=np.array([(4.0, 4.0), (4.5, 4.9)]),
                                    cell_winner=np.array([True, False]))
        assert loser.winner_row_of_point.tolist() == [-1, 0, -1, -1]

    def test_score_ties_on_one_cell_rejected(self):
        # rows 0-2 share cell_a, with rows 0 and 2 tied at the highest score: the
        # matcher never has to choose among them, because view a cannot be built
        cells_a = [(4.0, 4.0), (4.0, 4.0), (4.0, 4.0), (12.0, 4.0), (12.0, 4.0)]
        desc_a = [(0.6, 0.8), (1.0, 0.0), (0.6, 0.8), (1.0, 0.0), (0.0, 1.0)]
        with pytest.raises(ValueError, match="one per cell"):
            _synthetic_obs(0, [1, 3, 5, 7, 9], cells_a, desc_a)

    def test_table_covers_the_visible_mask(self):
        obs = _synthetic_obs(0, [1, 3, 5], [(4.0, 4.0), (12.0, 4.0), (20.0, 4.0)], np.eye(3))
        assert obs.winner_row_of_point.tolist() == [-1, 0, -1, 1, -1, 2]
        no_winner = dataclasses.replace(obs, cell_winner=np.array([True, False, True]))
        assert no_winner.winner_row_of_point.tolist() == [-1, 0, -1, -1, -1, 2]

    def test_views_with_different_table_lengths(self):
        # view b's mask ends before view a's highest point: that point is not visible in b
        scene = generate_scene(29, 20, 2, ZERO)
        matcher = OracleMatcher(scene)
        obs_a = _synthetic_obs(0, [0, 2, 9], [(4.0, 4.0), (12.0, 4.0), (20.0, 4.0)], np.eye(3))
        obs_b = _synthetic_obs(1, [0, 2], [(4.0, 12.0), (12.0, 12.0)], np.eye(3)[:2])
        for a, b in ((obs_a, obs_b), (obs_b, obs_a)):
            got = _assert_same_as_dict_reference(matcher, a, b)
            assert len(got) == 2


class TestWinnerRows:
    def test_matches_dict_lookup(self):
        scene = support.onboard_scene(2)
        obs = OracleMatcher(scene).observations(3)
        assert not obs.cell_winner.all()  # losers must not be found
        lookup = support.winner_row_lookup(obs)
        # winners and losers, at and off their cells' centers; empty and off-grid cells
        cells = np.concatenate([obs.cells, obs.cells + 0.5, [[4.0, 4.0], [-4.0, 4.0], [4.0, -2.5]]])
        want = [lookup.get((int(u), int(v)), -1) for u, v in cells.tolist()]
        assert obs.winner_rows(cells).tolist() == want
        assert obs.winner_rows(np.zeros((0, 2))).shape == (0,)
        for cell, row in zip(cells[:50].tolist(), want[:50]):
            assert obs.winner_rows([cell]).tolist() == [row]

    def test_any_pixel_of_a_cell_finds_its_winner(self):
        obs = _synthetic_obs(0, [0, 1], [(4.0, 4.0), (20.0, 12.0)], np.eye(2))
        pixels = [(0.0, 0.0), (7.99, 0.5), (16.0, 15.9), (23.5, 8.0), (8.0, 4.0), (20.0, 16.0)]
        assert obs.winner_rows(pixels).tolist() == [0, 0, 1, 1, -1, -1]

    def test_unusable_cells_are_empty(self):
        obs = _synthetic_obs(0, [0], [(4.0, 4.0)], [(1.0, 0.0)])
        cells = [(1e30, 4.0), (np.nan, 4.0), (4.0, np.inf), (4.5, 4.9)]
        assert obs.winner_rows(cells).tolist() == [-1, -1, -1, 0]
        no_winner = dataclasses.replace(obs, cell_winner=np.zeros(1, dtype=bool))
        assert no_winner.winner_rows(cells).tolist() == [-1, -1, -1, -1]


class TestFineRefine:
    def _query_for(self, matcher, view_ref, view_src, point_id):
        obs_r = matcher.observations(view_ref)
        obs_s = matcher.observations(view_src)
        row_r = _winner_points(obs_r)[point_id]
        row_s = np.searchsorted(obs_s.point_ids, point_id)
        return FineMatchQuery(
            view_ref=view_ref,
            u_ref=obs_r.cells[row_r],
            view_src=view_src,
            cell_src=obs_s.cells[row_s],
        ), obs_s.pixels[row_s]

    def test_zero_noise_exact(self):
        scene = generate_scene(31, 80, 4, ZERO)
        matcher = OracleMatcher(scene)
        common = _winner_points(matcher.observations(0)).keys() & _winner_points(
            matcher.observations(1)
        ).keys()
        pid = sorted(common)[0]
        query, true_pix = self._query_for(matcher, 0, 1, pid)
        res = matcher.fine_refine(query)
        np.testing.assert_allclose(res.pixel, true_pix, atol=1e-12)
        assert res.confidence == 1.0

    def test_result_inside_window(self):
        scene = generate_scene(32, 120, 4, NoiseModel(fine_noise_sigma=2.0))
        matcher = OracleMatcher(scene)
        win0 = _winner_points(matcher.observations(0))
        common = win0.keys() & _winner_points(matcher.observations(2)).keys()
        for pid in sorted(common)[:50]:
            query, _ = self._query_for(matcher, 0, 2, pid)
            res = matcher.fine_refine(query)
            assert np.max(np.abs(res.pixel - query.cell_src)) <= 4.0 + 1e-12

    @staticmethod
    def _fine_errors(sigma):
        """|refined - true| of one grounded query per (view, point) whose clamp cannot bind.

        Criterion-2 camera, 2000 points, 6 views. Each view is the source of
        the queries of the points it shares with the next view. Only points
        whose true pixel lies 2 px (4 sigma at sigma 0.5) inside the +-4 px
        clamp box are asked for: chosen by position, not by outcome.
        """
        scene = generate_scene(
            33, 2000, 6, NoiseModel(fine_noise_sigma=sigma), image_size=2048, focal=5000.0,
            distance_range=(3.5, 5.0), jitter_deg=3.0,
        )
        matcher = OracleMatcher(scene)
        view_ref, u_ref, view_src, cell_src, truth = [], [], [], [], []
        for v in range(scene.n_views):
            ref = matcher.observations((v + 1) % scene.n_views)
            src = matcher.observations(v)
            win = np.flatnonzero(ref.cell_winner)
            _, i_ref, i_src = np.intersect1d(
                ref.point_ids[win], src.point_ids, assume_unique=True, return_indices=True
            )
            offset = np.abs(src.pixels[i_src] - src.cells[i_src])
            inner = np.all(offset <= FINE_WINDOW_HALF - 2.0, axis=1)
            rows_ref, rows_src = win[i_ref[inner]], i_src[inner]
            view_ref += [ref.view_id] * len(rows_ref)
            view_src += [v] * len(rows_src)
            u_ref.append(ref.cells[rows_ref])
            cell_src.append(src.cells[rows_src])
            truth.append(src.pixels[rows_src])
        pixels, confidence = matcher.fine_refine_batch(
            view_ref, np.concatenate(u_ref), view_src, np.concatenate(cell_src)
        )
        assert np.all(confidence == 1.0)
        return np.linalg.norm(pixels - np.concatenate(truth), axis=1)

    def test_noise_magnitude_matches_rayleigh_mean(self):
        # mean |error| of 2D isotropic Gaussian noise is sigma * sqrt(pi/2), with
        # relative standard deviation sqrt(4/pi - 1) / sqrt(n) = 0.52 / sqrt(n).
        # n ~ 2500 queries gives ~1.0%, so the 10% bound is ~9.5 sigma; the
        # clamp binds only past 4 sigma and biases the mean by < 0.1%.
        sigma = 0.5
        expected = sigma * np.sqrt(np.pi / 2.0)
        errs = self._fine_errors(sigma)
        assert len(errs) > 2000
        assert abs(np.mean(errs) - expected) / expected < 0.10
        # power: 20% more noise than claimed fails the same bound
        planted = self._fine_errors(1.2 * sigma)
        assert not abs(np.mean(planted) - expected) / expected < 0.10

    def test_outlier_query_returns_center_low_confidence(self):
        scene = generate_scene(34, 100, 4, ZERO)
        matcher = OracleMatcher(scene)
        win0 = _winner_points(matcher.observations(0))
        obs1 = matcher.observations(1)
        common = sorted(win0.keys() & _winner_points(obs1).keys())
        pid = common[0]
        row_r = win0[pid]
        row_s = np.searchsorted(obs1.point_ids, pid)
        wrong_cell = obs1.cells[row_s] + np.array([80.0, 0.0])
        query = FineMatchQuery(
            view_ref=0,
            u_ref=matcher.observations(0).cells[row_r],
            view_src=1,
            cell_src=wrong_cell,
        )
        res = matcher.fine_refine(query)
        np.testing.assert_array_equal(res.pixel, wrong_cell)
        assert res.confidence == OUTLIER_CONFIDENCE

    def test_unknown_reference_cell_zero_confidence(self):
        scene = generate_scene(35, 64, 3, ZERO)
        matcher = OracleMatcher(scene)
        obs1 = matcher.observations(1)
        empty = None
        occupied = {(c[0], c[1]) for c in matcher.observations(0).cells}
        for cu in range(4, 512, 8):
            for cv in range(4, 512, 8):
                if (float(cu), float(cv)) not in occupied:
                    empty = np.array([float(cu), float(cv)])
                    break
            if empty is not None:
                break
        query = FineMatchQuery(
            view_ref=0, u_ref=empty, view_src=1, cell_src=obs1.cells[0]
        )
        res = matcher.fine_refine(query)
        assert res.confidence == 0.0

    def test_query_outside_image_rejected(self):
        scene = generate_scene(36, 64, 3, ZERO)
        matcher = OracleMatcher(scene)
        query = FineMatchQuery(
            view_ref=0,
            u_ref=matcher.observations(0).cells[0],
            view_src=1,
            cell_src=np.array([-20.0, 4.0]),
        )
        with pytest.raises(ValueError):
            matcher.fine_refine(query)


# Reference: the one-query oracle the batched call replaced, kept here so
# the batch can be checked against it bit for bit. Both take their noise
# from the one `fine_noise_table`.


def _ref_oracle_fine_location(scene, view_id, point_id, window_half=FINE_WINDOW_HALF):
    pose, intr = scene.views[view_id]
    pix, _, visible = project_with_depth(pose, intr, scene.points[point_id][None])
    pix = pix[0]
    if not visible[0]:
        raise VisibilityError(f"point {point_id} not visible in view {view_id}")
    noisy = pix + scene.noise.fine_noise_sigma * fine_noise_table(scene, view_id)[point_id]
    center = grid_cell_center(pix)
    return np.clip(noisy, center - window_half, center + window_half)


def _ref_fine_refine(matcher, view_ref, u_ref, view_src, cell_src):
    cell_src = np.asarray(cell_src, dtype=float)
    _, intr = matcher.scene.views[view_src]
    if not intr.contains(cell_src):
        raise ValueError(f"query cell {cell_src} outside the image")
    ref_obs = matcher.observations(view_ref)
    ref_cell = grid_cell_center(np.asarray(u_ref, dtype=float))
    row = support.winner_row(ref_obs, ref_cell)
    if row is None:
        return cell_src.copy(), 0.0
    point_id = int(ref_obs.point_ids[row])
    src_obs = matcher.observations(view_src)
    if not src_obs.visible_mask[point_id]:
        return cell_src.copy(), OUTLIER_CONFIDENCE
    row = np.searchsorted(src_obs.point_ids, point_id)
    if not np.array_equal(src_obs.cells[row], grid_cell_center(cell_src)):
        return cell_src.copy(), OUTLIER_CONFIDENCE
    loc = _ref_oracle_fine_location(matcher.scene, view_src, point_id, matcher.window_half)
    return loc, 1.0


def _track_queries(scene, matcher):
    """Every (reference node, node) query of every track, plus ungrounded and wrong cells."""
    tracks, _ = support.scene_tracks(scene, matcher)
    queries = []
    for nodes in support.node_lists(tracks):
        ref_view, ref_cell = nodes[len(nodes) // 2]
        for view, cell in nodes:
            queries.append((ref_view, ref_cell, view, cell))
            queries.append((ref_view, ref_cell, view, (cell[0], (cell[1] + 80.0) % 2048)))
        queries.append((ref_view, (4.0, 4.0), nodes[0][0], nodes[0][1]))
    return queries


class TestFineRefineBatchMatchesOneQueryReference:
    def test_noisy_onboard_scene(self):
        scene = support.onboard_scene(5)
        matcher = OracleMatcher(scene)
        queries = _track_queries(scene, matcher)
        view_ref, u_ref, view_src, cell_src = zip(*queries)
        pixels, confidence = matcher.fine_refine_batch(view_ref, u_ref, view_src, cell_src)
        assert pixels.shape == (len(queries), 2) and confidence.shape == (len(queries),)
        for q, pixel, conf in zip(queries, pixels, confidence.tolist()):
            ref_pixel, ref_conf = _ref_fine_refine(matcher, *q)
            assert np.array_equal(pixel, ref_pixel), q
            assert conf == ref_conf, q
        # every outcome occurs
        assert {0.0, OUTLIER_CONFIDENCE, 1.0} <= set(confidence.tolist())

    def test_one_row_call_matches_reference(self):
        scene = support.onboard_scene(6)
        matcher = OracleMatcher(scene)
        for q in _track_queries(scene, matcher)[:300]:
            res = matcher.fine_refine(FineMatchQuery(*(np.asarray(x) for x in q)))
            ref_pixel, ref_conf = _ref_fine_refine(matcher, *q)
            assert np.array_equal(res.pixel, ref_pixel)
            assert res.confidence == ref_conf

    def test_cell_outside_image_raises_from_batch(self):
        scene = generate_scene(36, 64, 3, ZERO)
        matcher = OracleMatcher(scene)
        cells = matcher.observations(1).cells[:4].copy()
        cells[2] = (-20.0, 4.0)
        u_ref = matcher.observations(0).cells[:4]
        with pytest.raises(ValueError, match="outside the image"):
            matcher.fine_refine_batch([0] * 4, u_ref, [1] * 4, cells)


class TestViewPairSelection:
    def test_exhaustive_for_small_sets(self):
        scene = generate_scene(37, 16, 8, ZERO)
        pairs = select_view_pairs(scene.views)
        assert len(pairs) == 8 * 7 // 2

    def test_nearest_neighbours_for_large_sets(self):
        scene = generate_scene(38, 16, 60, ZERO)
        pairs = select_view_pairs(scene.views, k_nearest=10)
        assert len(pairs) < 60 * 59 // 2
        assert all(a < b for a, b in pairs)
        assert pairs == sorted(set(pairs))  # unique, in order
        # every view participates, paired with at least its k nearest
        seen = {v for p in pairs for v in p}
        assert seen == set(range(60))
        partners = np.bincount(np.array(pairs).ravel(), minlength=60)
        assert partners.min() >= 10
