"""Track building (connected components + conflict handling) and coarse triangulation."""

import numpy as np
import pytest
import support

from semidense.errors import CheiralityError, DegenerateGeometryError
from semidense.geometry import (
    MAX_CONDITION,
    MIN_DEPTH,
    SE3Pose,
    pinhole,
    pinhole_jacobian,
    project,
    rotation_from_axis_angle,
    triangulate,
)
from semidense.matching import OracleMatcher, PairMatches, select_view_pairs
from semidense.scene import NoiseModel, generate_scene, grid_cell_center
from semidense.tracks import TrackStats, _node_ids, build_tracks, triangulate_tracks

ZERO = NoiseModel()


def _match(a, b, ca, cb, score=1.0):
    """One match between two views as a one-row PairMatches."""
    return PairMatches(
        view_a=a, view_b=b, cells_a=np.array([ca], dtype=float),
        cells_b=np.array([cb], dtype=float), scores=np.array([score]),
    )


def _shuffled(matches, rng):
    """The same matches with the pair order and the rows within every pair shuffled."""
    out = []
    for m in rng.permutation(len(matches)).tolist():
        m = matches[m]
        rows = rng.permutation(len(m))
        out.append(PairMatches(m.view_a, m.view_b, m.cells_a[rows], m.cells_b[rows], m.scores[rows]))
    return out


def _scene_matches(scene, matcher):
    return [
        matcher.coarse_match_pair(matcher.observations(a), matcher.observations(b))
        for a, b in select_view_pairs(scene.views)
    ]


class TestBuildTracks:
    def test_transitive_closure(self):
        c = (4.0, 4.0)
        matches = [_match(0, 1, c, c), _match(1, 2, c, c)]
        tracks, stats = build_tracks(matches, min_track_length=3)
        assert len(tracks) == 1
        assert support.node_lists(tracks)[0] == [(0, c), (1, c), (2, c)]
        assert stats.conflicts == 0

    def test_conflicting_view_nodes_dropped(self):
        # one component holding two distinct cells of view 0
        c0a, c0b, c1, c2 = (4.0, 4.0), (12.0, 4.0), (20.0, 4.0), (28.0, 4.0)
        matches = [
            _match(0, 1, c0a, c1),
            _match(0, 1, c0b, c1),  # bridges the second view-0 cell in
            _match(1, 2, c1, c2),
        ]
        tracks, stats = build_tracks(matches, min_track_length=2)
        assert stats.conflicts == 2
        assert len(tracks) == 1
        assert support.node_lists(tracks)[0] == [(1, c1), (2, c2)]

    def test_short_tracks_discarded(self):
        matches = [_match(0, 1, (4.0, 4.0), (4.0, 4.0))]
        tracks, stats = build_tracks(matches, min_track_length=3)
        assert len(tracks) == 0
        assert stats.too_short == 1

    def test_empty_input(self):
        tracks, stats = build_tracks([], min_track_length=3)
        assert len(tracks) == 0
        assert stats.n_matches == 0

    def test_permutation_invariance(self):
        scene = generate_scene(41, 80, 6, ZERO)
        matcher = OracleMatcher(scene)
        matches = _scene_matches(scene, matcher)
        base, _ = build_tracks(matches, min_track_length=3)
        rng = np.random.default_rng(0)
        for _ in range(3):
            got, _ = build_tracks(_shuffled(matches, rng), min_track_length=3)
            assert support.node_lists(got) == support.node_lists(base)

    def test_no_shared_nodes(self):
        scene = generate_scene(42, 400, 6, ZERO)
        matcher = OracleMatcher(scene)
        matches = _scene_matches(scene, matcher)
        tracks, _ = build_tracks(matches, min_track_length=3)
        seen = set()
        for nodes in support.node_lists(tracks):
            for node in nodes:
                assert node not in seen
                seen.add(node)

    @pytest.mark.parametrize(
        "cell", [(-4.0, 4.0), (4.0, np.nan), (np.inf, 4.0), (5.0, 4.0), (12.0, 4.5)],
        ids=["negative", "nan", "inf", "off-center-u", "off-center-v"],
    )
    def test_cell_not_a_grid_center_rejected(self, cell):
        for matches in ([_match(0, 1, (4.0, 4.0), cell)], [_match(0, 1, cell, (4.0, 4.0))]):
            with pytest.raises(ValueError, match="centers of grid cells"):
                build_tracks(matches, min_track_length=2)

    def test_matches_ground_truth_grouping(self):
        # collision-free scene: every visible point wins its cell everywhere
        scene = generate_scene(4, 12, 4, ZERO)
        matcher = OracleMatcher(scene)
        obs = [matcher.observations(v) for v in range(scene.n_views)]
        assert all(o.cell_winner.all() for o in obs), "expected a collision-free scene"

        matches = []
        for a, b in select_view_pairs(scene.views):
            matches.append(matcher.coarse_match_pair(obs[a], obs[b]))
        tracks, _ = build_tracks(matches, min_track_length=2)

        expected = {}
        for pid in range(scene.n_points):
            nodes = []
            for o in obs:
                if o.visible_mask[pid]:
                    row = np.searchsorted(o.point_ids, pid)
                    nodes.append((o.view_id, (o.cells[row, 0], o.cells[row, 1])))
            if len(nodes) >= 2:
                expected[frozenset(nodes)] = pid
        got = {frozenset(nodes) for nodes in support.node_lists(tracks)}
        assert got == set(expected.keys())


# Reference: the node ids before one cell key, from four rank sorts, kept
# here so the one-sort ids can be checked against them.


def _ref_node_ids(views, cells):
    n = len(views)  # every rank is below n
    _, u = np.unique(cells[:, 0], return_inverse=True)
    _, view_u = np.unique(views * n + u, return_inverse=True)
    _, v = np.unique(cells[:, 1], return_inverse=True)
    keys, ids = np.unique(view_u * n + v, return_inverse=True)
    node_row = np.empty(len(keys), dtype=np.intp)
    node_row[ids] = np.arange(n)
    return ids, node_row


class TestNodeIdsMatchRankReference:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_onboard_scene(self, seed):
        scene = support.onboard_scene(seed)
        matches = _scene_matches(scene, OracleMatcher(scene))
        lengths = [len(m) for m in matches]
        views = np.repeat([m.view_a for m in matches] + [m.view_b for m in matches], lengths * 2)
        cells = np.concatenate([m.cells_a for m in matches] + [m.cells_b for m in matches])
        ids, node_row = _node_ids(views, cells)
        ref_ids, ref_node_row = _ref_node_ids(views, cells)
        assert np.array_equal(ids, ref_ids)
        assert np.array_equal(node_row, ref_node_row)
        assert len(node_row) > 1000


# Reference: the dict-based union-find that the array track building
# replaced, kept here verbatim so the components can be checked against it.


class _RefUnionFind:
    __slots__ = ("parent", "size")

    def __init__(self):
        self.parent = {}
        self.size = {}

    def find(self, x):
        parent = self.parent
        root = parent.setdefault(x, x)
        if root == x:
            self.size.setdefault(x, 1)
            return x
        # path halving
        while parent[root] != root:
            parent[root] = parent[parent[root]]
            root = parent[root]
        parent[x] = root
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]


def _ref_build_tracks(matches, min_track_length=3):
    stats = TrackStats()
    uf = _RefUnionFind()
    for m in matches:
        for ca, cb in zip(m.cells_a.tolist(), m.cells_b.tolist()):
            stats.n_matches += 1
            uf.union((m.view_a, tuple(ca)), (m.view_b, tuple(cb)))

    components = {}
    for node in uf.parent:
        components.setdefault(uf.find(node), []).append(node)
    stats.n_components = len(components)

    tracks = []
    for nodes in components.values():
        per_view = {}
        for node in nodes:
            per_view.setdefault(node[0], []).append(node)
        kept = []
        for view_id in per_view:
            if len(per_view[view_id]) == 1:
                kept.append(per_view[view_id][0])
            else:
                stats.conflicts += len(per_view[view_id])
        if len(kept) < min_track_length:
            stats.too_short += 1
            continue
        kept.sort()
        tracks.append(kept)

    tracks.sort(key=lambda nodes: nodes[0])
    for nodes in tracks:
        stats.length_histogram[len(nodes)] = stats.length_histogram.get(len(nodes), 0) + 1
    return list(enumerate(tracks)), stats


def _assert_same_as_union_find(matches, min_track_length=3):
    tracks, stats = build_tracks(matches, min_track_length=min_track_length)
    ref_tracks, ref_stats = _ref_build_tracks(matches, min_track_length)
    assert list(zip(tracks.track_ids.tolist(), support.node_lists(tracks))) == ref_tracks
    assert tracks.views.dtype.kind == "i" and tracks.cells.dtype == float
    assert stats == ref_stats
    assert stats.to_dict() == ref_stats.to_dict()
    return tracks, stats


class TestBuildTracksMatchesUnionFindReference:
    def test_noisy_onboard_scene(self):
        scene = support.onboard_scene(3)
        matches = _scene_matches(scene, OracleMatcher(scene))
        for min_track_length in (1, 2, 3, 5):
            tracks, stats = _assert_same_as_union_find(matches, min_track_length)
        assert stats.conflicts > 0 and stats.too_short > 0
        assert len(set(np.diff(tracks.offsets).tolist())) > 3

    def test_shuffled_pairs_and_rows(self):
        scene = support.onboard_scene(3)
        matches = _scene_matches(scene, OracleMatcher(scene))
        base, base_stats = build_tracks(matches)
        rng = np.random.default_rng(5)
        for _ in range(3):
            tracks, stats = _assert_same_as_union_find(_shuffled(matches, rng))
            assert support.node_lists(tracks) == support.node_lists(base)
            assert stats == base_stats

    def test_empty_input(self):
        empty = PairMatches(0, 1, np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0))
        for matches in ([], [empty], [empty, empty]):
            tracks, stats = _assert_same_as_union_find(matches)
            assert len(tracks) == 0 and stats == TrackStats()

    def test_pairs_with_no_rows_between_others(self):
        c = (4.0, 4.0)
        empty = PairMatches(3, 4, np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0))
        matches = [empty, _match(0, 1, c, c), empty, _match(1, 2, c, c)]
        tracks, _ = _assert_same_as_union_find(matches)
        assert support.node_lists(tracks)[0] == [(0, c), (1, c), (2, c)]

    def test_long_path_is_one_component(self):
        # 500 nodes chained in a shuffled view order, so labels do not follow the path
        views = np.random.default_rng(9).permutation(500).tolist()
        c = (12.0, 20.0)
        matches = [_match(a, b, c, c) for a, b in zip(views[:-1], views[1:])]
        tracks, stats = _assert_same_as_union_find(matches)
        assert stats.n_components == 1
        assert len(tracks) == 1 and tracks.offsets.tolist() == [0, 500]

    def test_self_pair_and_repeated_matches(self):
        a, b, c = (4.0, 4.0), (12.0, 4.0), (20.0, 4.0)
        matches = [_match(0, 0, a, b), _match(0, 1, a, c), _match(0, 1, a, c), _match(2, 1, a, c)]
        for min_track_length in (1, 2):
            _assert_same_as_union_find(matches, min_track_length)


class TestTrackTablePadded:
    def test_mixed_lengths(self):
        nodes = [
            [(0, (4.0, 4.0)), (2, (12.0, 20.0))],
            [(1, (4.0, 12.0)), (3, (20.0, 4.0)), (5, (4.0, 28.0)), (6, (36.0, 4.0))],
            [(0, (44.0, 4.0)), (1, (4.0, 52.0)), (4, (60.0, 60.0))],
        ]
        tracks = support.make_tracks(nodes)
        views, cells = tracks.padded("views", 5, fill=-1), tracks.padded("cells", 5)
        assert views.shape == (3, 5) and cells.shape == (3, 5, 2)
        for track, row_views, row_cells in zip(nodes, views.tolist(), cells.tolist()):
            n = len(track)
            assert row_views == [v for v, _ in track] + [-1] * (5 - n)
            assert row_cells == [list(c) for _, c in track] + [[0.0, 0.0]] * (5 - n)


class TestTriangulateTracks:
    def _scene_tracks(self, seed=44, n_points=100, n_views=8):
        scene = generate_scene(seed, n_points, n_views, ZERO)
        matcher = OracleMatcher(scene)
        matches = _scene_matches(scene, matcher)
        tracks, stats = build_tracks(matches, min_track_length=3)
        return scene, matcher, tracks, stats

    def test_quantized_points_within_grid_bound(self):
        scene, matcher, tracks, stats = self._scene_tracks()
        poses = [p for p, _ in scene.views]
        intrs = [k for _, k in scene.views]
        recon = triangulate_tracks(tracks, poses, intrs, max_reproj_px=12.0, stats=stats)
        assert len(recon.tracks) > 0
        for nodes, point in zip(support.node_lists(recon.tracks), recon.points):
            v0, cell0 = nodes[0]
            pid = support.winner_point(matcher.observations(v0), cell0)
            assert pid is not None
            depth = max(poses[v].transform(scene.points[pid])[2] for v, _ in nodes)
            bound = 8.0 / scene.views[0][1].fx * depth * np.sqrt(2.0)
            assert np.linalg.norm(point - scene.points[pid]) <= bound

    def test_coincident_centers_rejected_as_degenerate(self):
        intr = support.default_intrinsics()
        pose_a = support.look_at_pose(np.array([4.0, 0.0, 1.0]), np.zeros(3))
        tilt_R = rotation_from_axis_angle(np.array([0.0, 1.0, 0.0]), np.radians(3.0)) @ pose_a.rotation
        pose_b = SE3Pose(tilt_R, -tilt_R @ pose_a.camera_center)
        point = np.array([0.02, 0.01, 0.0])
        cells = [
            grid_cell_center(project(pose_a, intr, point)),
            grid_cell_center(project(pose_b, intr, point)),
        ]
        track = support.make_tracks([[(0, tuple(cells[0])), (1, tuple(cells[1]))]])
        recon = triangulate_tracks(track, [pose_a, pose_b], [intr, intr])
        assert len(recon.tracks) == 0
        assert recon.stats.rejected_degenerate == 1

    def test_empty_track_list(self):
        recon = triangulate_tracks(support.make_tracks([]), [], [])
        assert len(recon.tracks) == 0
        assert recon.points.shape == (0, 3)


# Reference: the one-track triangulation the batched kernel replaced, kept
# here verbatim so the batch can be checked against it bit for bit.


def _ref_stack(observations):
    R = np.array([pose.rotation for pose, _, _ in observations])
    t = np.array([pose.translation for pose, _, _ in observations])
    k = np.array([(i.fx, i.fy, i.cx, i.cy) for _, i, _ in observations], dtype=float).T
    pixels = np.array([np.asarray(pixel, dtype=float) for _, _, pixel in observations])
    return R, t, k, pixels


def _ref_triangulate(observations):
    R, t, k, pixels = _ref_stack(observations)
    centers = -(t[:, None, :] @ R)[:, 0]
    bbox_diag = np.linalg.norm(centers.max(axis=0) - centers.min(axis=0))
    if bbox_diag < 1e-9 * (1.0 + np.abs(centers).max()):
        raise DegenerateGeometryError("coincident centers")
    K = np.zeros((len(R), 3, 3))
    K[:, 0, 0], K[:, 1, 1], K[:, 0, 2], K[:, 1, 2] = k
    K[:, 2, 2] = 1.0
    P = K @ np.concatenate([R, t[:, :, None]], axis=2)
    A = np.stack(
        [pixels[:, :1] * P[:, 2] - P[:, 0], pixels[:, 1:] * P[:, 2] - P[:, 1]], axis=1
    ).reshape(-1, 4)
    norms = np.linalg.norm(A, axis=1)
    norms[norms == 0] = 1.0
    A = A / norms[:, None]
    _, s, vt = np.linalg.svd(A)
    if s[2] * MAX_CONDITION < s[0]:
        raise DegenerateGeometryError("condition")
    X_h = vt[-1]
    if abs(X_h[3]) < 1e-12 * np.linalg.norm(X_h[:3]):
        raise DegenerateGeometryError("infinity")
    point = X_h[:3] / X_h[3]
    z = (point @ np.swapaxes(R, 1, 2) + t)[:, 2]
    if np.any(z <= MIN_DEPTH):
        raise CheiralityError("behind")
    return _ref_gauss_newton_polish(point, R, t, k, pixels)


def _ref_gauss_newton_polish(point, R, t, k, pixels, max_steps=10):
    Rt = np.swapaxes(R, 1, 2)
    scale = 1.0 + np.linalg.norm(point)
    p_cam = point @ Rt + t
    r = (pinhole(p_cam, *k) - pixels).ravel()
    for _ in range(max_steps):
        J = (pinhole_jacobian(p_cam, k[0], k[1]) @ R).reshape(-1, 3)
        try:
            delta = np.linalg.solve(J.T @ J, -J.T @ r)
        except np.linalg.LinAlgError:
            return point
        candidate = point + delta
        p_new = candidate @ Rt + t
        if np.any(p_new[:, 2] <= MIN_DEPTH):
            return point
        r_new = (pinhole(p_new, *k) - pixels).ravel()
        if not r_new @ r_new < r @ r:
            return point
        point, p_cam, r = candidate, p_new, r_new
        if np.linalg.norm(delta) < 1e-13 * scale:
            break
    return point


def _ref_mean_reprojection_error(point, observations):
    R, t, k, pixels = _ref_stack(observations)
    p_cam = point @ np.swapaxes(R, 1, 2) + t
    return float(np.mean(np.linalg.norm(pinhole(p_cam, *k) - pixels, axis=1)))


def _ref_triangulate_tracks(tracks, poses, intrinsics, max_reproj_px=12.0):
    stats = TrackStats()
    kept = []
    for track_id, nodes in zip(tracks.track_ids.tolist(), support.node_lists(tracks)):
        obs = [(poses[v], intrinsics[v], np.asarray(c, dtype=float)) for v, c in nodes]
        try:
            point = _ref_triangulate(obs)
        except DegenerateGeometryError:
            stats.rejected_degenerate += 1
            continue
        except CheiralityError:
            stats.rejected_cheirality += 1
            continue
        err = _ref_mean_reprojection_error(point, obs)
        if err > max_reproj_px:
            stats.rejected_reprojection += 1
            continue
        kept.append((track_id, point, err))
    return kept, stats


def _assert_same_as_reference(tracks, poses, intrs, max_reproj_px=12.0):
    recon = triangulate_tracks(tracks, poses, intrs, max_reproj_px=max_reproj_px)
    kept, stats = _ref_triangulate_tracks(tracks, poses, intrs, max_reproj_px)
    assert recon.tracks.track_ids.tolist() == [tid for tid, _, _ in kept]
    errors = recon.tracks.reproj_errors.tolist()
    nodes = support.node_lists(recon.tracks)
    for point, err, track, (_, ref_point, ref_err) in zip(recon.points, errors, nodes, kept):
        assert np.array_equal(point, ref_point)
        assert err == ref_err
        # the one-track entry point gives the table's row bit for bit
        obs = [(poses[v], intrs[v], np.asarray(c, dtype=float)) for v, c in track]
        assert np.array_equal(triangulate(obs), point)
    assert recon.stats == stats
    return recon


class TestTriangulateTracksMatchesOneTrackReference:
    def test_noisy_onboard_scene(self):
        scene = support.onboard_scene(3)
        tracks, _ = support.scene_tracks(scene, OracleMatcher(scene))
        poses = [p for p, _ in scene.views]
        intrs = [k for _, k in scene.views]
        recon = _assert_same_as_reference(tracks, poses, intrs)
        assert len(set(np.diff(recon.tracks.offsets).tolist())) > 3  # several length groups
        # a tight gate makes the reprojection rejection do work too
        recon = _assert_same_as_reference(tracks, poses, intrs, max_reproj_px=0.6)
        assert recon.stats.rejected_reprojection > 0

    def test_one_length_group_with_every_outcome(self):
        intr = support.default_intrinsics()
        ring = [pose for pose, _ in support.camera_ring(4, radius=4.0, intr=intr)]
        tilt = rotation_from_axis_angle(np.array([0.0, 1.0, 0.0]), np.radians(3.0))
        tilt_R = tilt @ ring[0].rotation
        tilted = SE3Pose(tilt_R, -tilt_R @ ring[0].camera_center)  # shares ring[0]'s center
        left = SE3Pose(np.eye(3), np.array([1.0, 0.0, 0.0]))
        right = SE3Pose(np.eye(3), np.array([-1.0, 0.0, 0.0]))
        poses = ring + [tilted, left, right]
        intrs = [intr] * len(poses)

        rng = np.random.default_rng(7)
        nodes, ids = [], []
        for i in range(6):  # good rows, with pixel noise
            point = rng.uniform(-0.2, 0.2, size=3)
            views = [i % 4, (i + 1) % 4]
            nodes.append([
                (v, tuple(project(poses[v], intr, point) + rng.normal(0, 0.5, 2))) for v in views
            ])
            ids.append(len(ids))
        point = np.array([0.02, 0.01, 0.0])
        nodes.insert(2, [
            (0, tuple(project(poses[0], intr, point))), (4, tuple(project(poses[4], intr, point))),
        ])
        ids.insert(2, 99)
        nodes.insert(4, [
            (5, (intr.cx - 0.2 * intr.fx, intr.cy)), (6, (intr.cx + 0.2 * intr.fx, intr.cy)),
        ])
        ids.insert(4, 98)
        tracks = support.make_tracks(nodes, track_ids=ids)
        recon = _assert_same_as_reference(tracks, poses, intrs)
        assert recon.stats.rejected_degenerate == 1
        assert recon.stats.rejected_cheirality == 1
        assert len(recon.tracks) == 6

    def test_mixed_lengths_with_every_outcome(self):
        # one lock-step polish over tracks of 2 to 12 views, given out of length order
        intr = support.default_intrinsics()
        ring = [pose for pose, _ in support.camera_ring(12, radius=4.0, intr=intr)]
        tilt = rotation_from_axis_angle(np.array([0.0, 1.0, 0.0]), np.radians(3.0))
        tilt_R = tilt @ ring[0].rotation
        tilted = SE3Pose(tilt_R, -tilt_R @ ring[0].camera_center)  # shares ring[0]'s center
        # cameras looking along +z: three abreast at x = -1, 1, 3 and three along the z axis
        abreast = [SE3Pose(np.eye(3), np.array([-x, 0.0, 0.0])) for x in (-1.0, 1.0, 3.0)]
        along = [SE3Pose(np.eye(3), np.array([0.0, 0.0, z])) for z in (4.0, 6.0, 8.0)]
        poses = ring + [tilted] + abreast + along
        intrs = [intr] * len(poses)
        centre = (intr.cx, intr.cy)
        behind = np.array([0.0, 0.0, -5.0])  # in front of no abreast camera

        rng = np.random.default_rng(11)
        nodes = []
        for length in rng.integers(2, 13, size=40):  # good rows, with pixel noise
            point = rng.uniform(-0.2, 0.2, size=3)
            views = rng.choice(12, size=length, replace=False).tolist()
            nodes.append([
                (v, tuple(project(poses[v], intr, point) + rng.normal(0, 0.5, 2))) for v in views
            ])
        point = np.array([0.02, 0.01, 0.0])
        special = {
            "coincident": [(v, tuple(project(poses[v], intr, point))) for v in (0, 12)],
            "infinity": [(13, centre), (14, centre)],  # parallel rays
            "condition": [(16, centre), (17, centre), (18, centre)],  # one ray: rank 2
            "behind": [(v, tuple(support.pixel_of(poses[v], intr, behind))) for v in (13, 14, 15)],
            "reprojection": [(v, tuple(project(poses[v], intr, point))) for v in (1, 2, 3, 4)],
        }
        u, v = special["reprojection"][0][1]
        special["reprojection"][0] = (1, (u + 80.0, v))
        for at, (reason, track) in zip((3, 11, 19, 27, 35), special.items()):
            nodes.insert(at, track)
            obs = [(poses[v], intr, np.asarray(c, dtype=float)) for v, c in track]
            if reason == "reprojection":
                assert _ref_mean_reprojection_error(_ref_triangulate(obs), obs) > 12.0
            else:
                with pytest.raises((DegenerateGeometryError, CheiralityError), match=reason):
                    _ref_triangulate(obs)
        tracks = support.make_tracks(nodes, track_ids=list(range(100, 100 + len(nodes))))
        recon = _assert_same_as_reference(tracks, poses, intrs)
        assert recon.stats.rejected_degenerate == 3
        assert recon.stats.rejected_cheirality == 1
        assert recon.stats.rejected_reprojection == 1
        assert len(recon.tracks) == 40
        assert len(set(np.diff(recon.tracks.offsets).tolist())) == 11
