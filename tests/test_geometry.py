"""Projection, SE(3), and triangulation primitives."""

import numpy as np
import pytest
import support

from semidense.errors import CheiralityError
from semidense.geometry import (
    MIN_DEPTH,
    TRI_BEHIND,
    TRI_COINCIDENT,
    TRI_OK,
    CameraIntrinsics,
    SE3Pose,
    ViewTable,
    gauss_newton_polish,
    mean_reprojection_errors,
    pinhole,
    pinhole_inverse,
    pinhole_jacobian,
    project,
    project_with_depth,
    size_runs,
    triangulate_dlt,
)


def _simple_intr(f=100.0, w=1000, h=1000, cx=0.0, cy=0.0):
    return CameraIntrinsics(fx=f, fy=f, cx=cx, cy=cy, width=w, height=h)


class TestProject:
    def test_optical_axis_hits_principal_point(self):
        intr = _simple_intr()
        pix = project(SE3Pose.identity(), intr, np.array([0.0, 0.0, 1.0]))
        np.testing.assert_allclose(pix, [0.0, 0.0])

    def test_unit_offset_scales_by_focal(self):
        intr = _simple_intr()
        pix = project(SE3Pose.identity(), intr, np.array([1.0, 1.0, 1.0]))
        np.testing.assert_allclose(pix, [100.0, 100.0])

    def test_behind_camera_raises(self):
        intr = _simple_intr()
        with pytest.raises(CheiralityError):
            project(SE3Pose.identity(), intr, np.array([0.0, 0.0, -1.0]))

    def test_batch_matches_reference(self):
        rng = np.random.default_rng(7)
        pose = support.random_pose(rng)
        intr = _simple_intr()
        pts = rng.standard_normal((50, 3))
        pts = pose.inverse().transform(
            np.column_stack([pts[:, :2], np.abs(pts[:, 2]) + 1.0])
        )
        got = project(pose, intr, pts)
        want = np.array([support.pixel_of(pose, intr, p) for p in pts])
        np.testing.assert_allclose(got, want, atol=1e-12)


class TestPinholeKernel:
    def test_stack_with_per_row_intrinsics(self):
        rng = np.random.default_rng(8)
        intrs = [
            _simple_intr(f=100.0, cx=3.0, cy=4.0),
            CameraIntrinsics(fx=250.0, fy=180.0, cx=320.0, cy=240.0, width=640, height=480),
        ]
        pts = rng.standard_normal((2, 5, 3))
        pts[..., 2] = np.abs(pts[..., 2]) + 0.5
        fx, fy, cx, cy = np.array([(i.fx, i.fy, i.cx, i.cy) for i in intrs]).T[:, :, None]
        got = pinhole(pts, fx, fy, cx, cy)  # (2, 1) intrinsics against (2, 5) points
        assert got.shape == (2, 5, 2)
        want = [[support.pixel_of(SE3Pose.identity(), intrs[i], p) for p in pts[i]] for i in range(2)]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_jacobian_vs_central_differences(self):
        rng = np.random.default_rng(9)
        pts = rng.standard_normal((20, 3))
        pts[:, 2] = np.abs(pts[:, 2]) + 0.5
        fx, fy = rng.uniform(100.0, 900.0, size=(2, 20))
        J = pinhole_jacobian(pts, fx, fy)
        h = 1e-6
        fd = np.zeros_like(J)
        for a in range(3):
            step = np.zeros(3)
            step[a] = h
            plus = pinhole(pts + step, fx, fy, 0.0, 0.0)
            minus = pinhole(pts - step, fx, fy, 0.0, 0.0)
            fd[:, :, a] = (plus - minus) / (2.0 * h)
        np.testing.assert_allclose(J, fd, rtol=1e-6, atol=1e-6 * np.abs(J).max())

    def test_visible_mask_matches_brute_force_rule(self):
        intr = _simple_intr(w=1000, h=1000)
        pose = SE3Pose.identity()
        pts = np.array([
            [0.0, 5.0, 1.0],       # u = 0: inside
            [10.0, 5.0, 1.0],      # u = width: outside
            [2.0, 3.0, -1.0],      # behind the camera
            [0.0, 0.0, 0.0],       # at the camera centre
            [np.nan, 5.0, 1.0],    # NaN pixel
            [4.0, 9.0, 2.0],       # inside
        ])
        pix, depths, visible = project_with_depth(pose, intr, pts)
        np.testing.assert_array_equal(depths, pose.transform(pts)[:, 2])
        want = []
        for p in pts:
            z = pose.transform(p)[2]
            if not z > MIN_DEPTH:
                want.append(False)
                continue
            u, v = support.pixel_of(pose, intr, p)
            want.append(bool(
                np.isfinite(u) and np.isfinite(v) and 0 <= u < intr.width and 0 <= v < intr.height
            ))
        assert want == [True, False, False, False, False, True]
        np.testing.assert_array_equal(visible, want)
        assert np.isnan(pix[2:5]).all()


class TestViewTable:
    def test_padding_camera_is_row_minus_one(self):
        rng = np.random.default_rng(5)
        poses = [support.random_pose(rng) for _ in range(3)]
        intrs = [_simple_intr(f=100.0 + i, cx=10.0 + i, cy=20.0 + i) for i in range(3)]
        table = ViewTable.stack(poses, intrs)
        assert table.R.shape == (4, 3, 3) and table.t.shape == (4, 3)
        for v, (pose, k) in enumerate(zip(poses, intrs)):
            assert np.array_equal(table.R[v], pose.rotation)
            assert np.array_equal(table.t[v], pose.translation)
            assert list(table.k(v)) == [k.fx, k.fy, k.cx, k.cy]
        assert np.array_equal(table.R[-1], np.zeros((3, 3)))
        assert table.t[-1].tolist() == [0.0, 0.0, 1.0]
        assert list(table.k(-1)) == [0.0] * 4
        empty = ViewTable.stack([], [])
        assert np.array_equal(empty.R, table.R[-1:]) and np.array_equal(empty.t, table.t[-1:])


def _k(intr):
    return intr.fx, intr.fy, intr.cx, intr.cy


class TestBackproject:
    def test_principal_point_is_optical_axis(self):
        intr = _simple_intr(cx=320.0, cy=240.0, w=640, h=480)
        p = pinhole_inverse(np.array([320.0, 240.0]), 2.0, *_k(intr))
        np.testing.assert_allclose(p, [0.0, 0.0, 2.0])

    def test_focal_scaling(self):
        intr = _simple_intr()
        p = pinhole_inverse(np.array([100.0, 0.0]), 1.0, *_k(intr))
        np.testing.assert_allclose(p, [1.0, 0.0, 1.0])

    def test_project_backproject_roundtrip(self):
        rng = np.random.default_rng(11)
        intr = support.default_intrinsics()
        for _ in range(200):
            pose = support.random_pose(rng)
            u = rng.uniform(0, 512, size=2)
            d = rng.uniform(0.5, 10.0)
            p_cam = pinhole_inverse(u, d, *_k(intr))
            np.testing.assert_allclose(pinhole(p_cam, *_k(intr)), u, atol=1e-10)
            p_world = pose.inverse().transform(p_cam)
            np.testing.assert_allclose(project(pose, intr, p_world), u, atol=1e-10)


class TestSE3:
    def test_invalid_rotation_rejected(self):
        with pytest.raises(ValueError):
            SE3Pose(np.eye(3) * 2.0, np.zeros(3))

    def test_reflection_rejected(self):
        R = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            SE3Pose(R, np.zeros(3))

    def test_from_matrix_round_trip(self):
        pose = support.random_pose(np.random.default_rng(2))
        for m in (pose.matrix, pose.matrix[:3]):
            assert np.array_equal(SE3Pose.from_matrix(m).matrix, pose.matrix)

    @pytest.mark.parametrize(
        "last_row", [(5.0, 5.0, 5.0, 9.0), (0.0, 0.0, 0.0, 2.0), (1e-12, 0.0, 0.0, 1.0)]
    )
    def test_from_matrix_rejects_a_non_rigid_last_row(self, last_row):
        m = support.random_pose(np.random.default_rng(2)).matrix
        m[3] = last_row
        with pytest.raises(ValueError, match=r"is not \(0, 0, 0, 1\)"):
            SE3Pose.from_matrix(m)

    # the pose from the frame of a into the frame of b is b.compose(a.inverse())

    def test_relative_pose_of_self_is_identity(self):
        pose = support.random_pose(np.random.default_rng(3))
        rel = pose.compose(pose.inverse())
        np.testing.assert_allclose(rel.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(rel.translation, 0.0, atol=1e-12)

    def test_relative_from_identity(self):
        pose = support.random_pose(np.random.default_rng(4))
        rel = pose.compose(SE3Pose.identity().inverse())
        np.testing.assert_allclose(rel.matrix, pose.matrix, atol=1e-12)

    def test_relative_pose_recomposes(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b = support.random_pose(rng), support.random_pose(rng)
            rel = b.compose(a.inverse())
            np.testing.assert_allclose(rel.compose(a).matrix, b.matrix, atol=1e-10)

    def test_relative_pose_chain(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a, b, c = (support.random_pose(rng) for _ in range(3))
            lhs = c.compose(b.inverse()).compose(b.compose(a.inverse()))
            np.testing.assert_allclose(lhs.matrix, c.compose(a.inverse()).matrix, atol=1e-10)

    def test_camera_center(self):
        pose = support.look_at_pose(np.array([1.0, 2.0, 3.0]), np.zeros(3))
        np.testing.assert_allclose(pose.camera_center, [1.0, 2.0, 3.0], atol=1e-12)


def _triangulated(observations):
    """One track's DLT point, its reject code and its polished point."""
    arrays = support.track_arrays(observations)
    point, reject = triangulate_dlt(*arrays)
    polished = gauss_newton_polish(point, *arrays, np.array([len(observations)]))
    return point[0], int(reject[0]), polished[0]


class TestTriangulate:
    def test_exact_two_views(self):
        intr = support.default_intrinsics()
        views = support.camera_ring(2, radius=4.0, intr=intr)
        point = np.array([0.1, -0.2, 0.05])
        obs = [(p, k, project(p, k, point)) for p, k in views]
        _, reject, got = _triangulated(obs)
        assert reject == TRI_OK
        np.testing.assert_allclose(got, point, atol=1e-9)

    def test_noisy_eight_views_matches_grid_oracle(self):
        rng = np.random.default_rng(21)
        intr = support.default_intrinsics()
        views = support.camera_ring(8, radius=4.0, intr=intr)
        point = np.array([0.15, 0.1, -0.08])
        obs = [
            (p, k, project(p, k, point) + rng.normal(0.0, 0.5, size=2))
            for p, k in views
        ]
        _, reject, got = _triangulated(obs)
        assert reject == TRI_OK

        oracle = support.grid_search_point(obs, center=point, radius=0.05)
        # one GN step lands essentially at the least-squares optimum here
        assert np.linalg.norm(got - oracle) < 2e-5
        # error stays within 5x the two-view noise bound sigma*sqrt(2)*depth/f
        depth = np.linalg.norm(views[0][0].transform(point))
        bound = 0.5 * np.sqrt(2.0) * depth / intr.fx
        assert np.linalg.norm(got - point) < 5.0 * bound

    def test_same_camera_center_degenerate(self):
        # second camera shares the center, only tilted a few degrees
        intr = support.default_intrinsics()
        pose = support.look_at_pose(np.array([3.0, 0.0, 1.0]), np.zeros(3))
        from semidense.geometry import rotation_from_axis_angle

        tilt_R = rotation_from_axis_angle(np.array([1.0, 0, 0]), np.radians(4.0)) @ pose.rotation
        tilt = SE3Pose(tilt_R, -tilt_R @ pose.camera_center)
        point = np.array([0.05, 0.02, 0.0])
        obs = [
            (pose, intr, project(pose, intr, point)),
            (tilt, intr, project(tilt, intr, point)),
        ]
        point, reject, _ = _triangulated(obs)
        assert reject == TRI_COINCIDENT
        assert np.isnan(point).all()

    def test_cheirality_rejected(self):
        # diverging rays whose supporting lines meet behind both cameras
        intr = support.default_intrinsics()
        a = SE3Pose(np.eye(3), np.array([1.0, 0.0, 0.0]))   # center (-1, 0, 0)
        b = SE3Pose(np.eye(3), np.array([-1.0, 0.0, 0.0]))  # center (+1, 0, 0)
        pix_a = np.array([intr.cx - 0.2 * intr.fx, intr.cy])
        pix_b = np.array([intr.cx + 0.2 * intr.fx, intr.cy])
        point, reject, _ = _triangulated([(a, intr, pix_a), (b, intr, pix_b)])
        assert reject == TRI_BEHIND
        assert np.isnan(point).all()

    def test_rigid_invariance(self):
        rng = np.random.default_rng(31)
        intr = support.default_intrinsics()
        views = support.camera_ring(5, radius=4.0, intr=intr)
        point = np.array([0.2, -0.1, 0.1])
        obs = [
            (p, k, project(p, k, point) + rng.normal(0, 0.3, size=2)) for p, k in views
        ]
        base = _triangulated(obs)[2]
        g = support.random_pose(rng)
        moved = [(p.compose(g.inverse()), k, pix) for p, k, pix in obs]
        got = _triangulated(moved)[2]
        np.testing.assert_allclose(got, g.transform(base), rtol=0, atol=1e-9 * (1 + np.linalg.norm(base)))

    def test_mean_reprojection_error(self):
        intr = support.default_intrinsics()
        views = support.camera_ring(3, radius=4.0, intr=intr)
        point = np.array([0.0, 0.1, 0.0])
        arrays = support.track_arrays([(p, i, project(p, i, point)) for p, i in views])
        assert mean_reprojection_errors(point[None], *arrays) < 1e-12


class TestSizeRuns:
    def test_runs_of_a_sorted_array(self):
        runs = size_runs(np.array([2, 2, 3, 5, 5, 5]))
        assert runs == [(2, slice(0, 2)), (3, slice(2, 3)), (5, slice(3, 6))]

    def test_one_value(self):
        assert size_runs(np.array([4, 4, 4])) == [(4, slice(0, 3))]

    def test_empty(self):
        assert size_runs(np.array([], dtype=int)) == []
