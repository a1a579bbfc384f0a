"""Pinhole projection, SE(3) algebra, and multi-view triangulation.

Conventions used throughout the package:
  - poses are world-to-camera: p_cam = R @ p_world + t
  - pixels are (u, v) with u along image columns (x) and v along rows (y)
  - all arrays are float64
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .errors import CheiralityError, DegenerateGeometryError

# Camera-frame depths below this count as "behind the camera".
MIN_DEPTH = 1e-8
# Triangulation systems with a larger singular-value ratio are rejected.
MAX_CONDITION = 1e12

# Why triangulate_dlt rejects a track; TRI_OK keeps it.
TRI_OK, TRI_COINCIDENT, TRI_ILL_CONDITIONED, TRI_AT_INFINITY, TRI_BEHIND = range(5)
_TRI_ERRORS = {
    TRI_COINCIDENT: (DegenerateGeometryError, "all camera centers coincide; depth unobservable"),
    TRI_ILL_CONDITIONED: (DegenerateGeometryError, "triangulation condition number too large"),
    TRI_AT_INFINITY: (DegenerateGeometryError, "triangulated point at infinity (parallel rays)"),
    TRI_BEHIND: (CheiralityError, "triangulated point is behind a camera"),
}

Observation = tuple["SE3Pose", "CameraIntrinsics", np.ndarray]


def rotation_checks(R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The SE3Pose rotation checks on a (..., 3, 3) stack: (orthonormal, det_one) masks.

    orthonormal is np.allclose(R^T R, I, atol=1e-9) per matrix; det_one is
    |det R - 1| <= 1e-9. Non-finite matrices fail both.
    """
    eye = np.eye(3)
    gram = np.swapaxes(R, -1, -2) @ R
    orthonormal = np.all(np.abs(gram - eye) <= 1e-9 + 1e-5 * eye, axis=(-2, -1))
    det_one = np.abs(np.linalg.det(R) - 1.0) <= 1e-9
    return orthonormal, det_one


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics: focal lengths and principal point in pixels.

    The principal point may lie outside the image, as it does for a crop of
    an image off its centre (pose_matching.crop_camera).
    """

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not all(np.isfinite([self.fx, self.fy, self.cx, self.cy])):
            raise ValueError(
                f"intrinsics must be finite, got fx={self.fx}, fy={self.fy}, "
                f"cx={self.cx}, cy={self.cy}"
            )
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError(f"focal lengths must be positive, got ({self.fx}, {self.fy})")

    @property
    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]]
        )

    def contains(self, pixels: np.ndarray) -> np.ndarray:
        """Boolean mask of pixels lying inside the image bounds."""
        p = np.atleast_2d(np.asarray(pixels, dtype=float))
        mask = (
            (p[:, 0] >= 0.0)
            & (p[:, 0] < self.width)
            & (p[:, 1] >= 0.0)
            & (p[:, 1] < self.height)
        )
        return mask if np.ndim(pixels) > 1 else bool(mask[0])

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "CameraIntrinsics":
        return cls(
            fx=float(d["fx"]),
            fy=float(d["fy"]),
            cx=float(d["cx"]),
            cy=float(d["cy"]),
            width=int(d["width"]),
            height=int(d["height"]),
        )


@dataclass(frozen=True, eq=False)
class ViewTable:
    """The cameras of a view list as arrays indexed by view id, plus one padding camera.

    Interior kernels gather from these arrays; SE3Pose and CameraIntrinsics
    stay the types at the edges. The lock-step solvers pad a track's views
    past its own with view -1, the padding camera: R = 0, t = (0, 0, 1) and
    fx = fy = cx = cy = 0. It sees every point at camera point (0, 0, 1), so
    with zero target pixels its residuals and Jacobians are exactly 0 and it
    passes every cheirality test.
    """

    R: np.ndarray   # (V + 1, 3, 3) world-to-camera rotations, the padding camera last
    t: np.ndarray   # (V + 1, 3) translations
    fx: np.ndarray  # (V + 1,)
    fy: np.ndarray
    cx: np.ndarray
    cy: np.ndarray

    @classmethod
    def stack(
        cls, poses: Sequence["SE3Pose"], intrinsics: Sequence[CameraIntrinsics]
    ) -> "ViewTable":
        R = np.array([p.rotation for p in poses] + [np.zeros((3, 3))])
        t = np.array([p.translation for p in poses] + [np.array([0.0, 0.0, 1.0])])
        k = np.array([(i.fx, i.fy, i.cx, i.cy) for i in intrinsics] + [(0.0,) * 4], dtype=float)
        return cls(R, t, *k.T)

    def k(self, views: np.ndarray) -> tuple[np.ndarray, ...]:
        """(fx, fy, cx, cy) of an array of view ids, each shaped like it."""
        return self.fx[views], self.fy[views], self.cx[views], self.cy[views]


@dataclass(frozen=True, eq=False)
class SE3Pose:
    """World-to-camera rigid transform: p_cam = rotation @ p_world + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        R = np.array(self.rotation, dtype=float)
        t = np.array(self.translation, dtype=float).reshape(3)
        if R.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {R.shape}")
        orthonormal, det_one = rotation_checks(R)
        if not orthonormal:
            raise ValueError("rotation is not orthonormal (RtR != I within 1e-9)")
        if not det_one:
            raise ValueError("rotation determinant is not +1 within 1e-9")
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "SE3Pose":
        return cls(np.eye(3), np.zeros(3))

    def inverse(self) -> "SE3Pose":
        return SE3Pose(self.rotation.T, -self.rotation.T @ self.translation)

    def compose(self, other: "SE3Pose") -> "SE3Pose":
        """self after other: (self @ other)(p) = self(other(p))."""
        return SE3Pose(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Apply to one (3,) point or an (N, 3) batch."""
        p = np.asarray(points, dtype=float)
        return p @ self.rotation.T + self.translation

    @property
    def camera_center(self) -> np.ndarray:
        """Camera center in world coordinates."""
        return -self.rotation.T @ self.translation

    @property
    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "SE3Pose":
        """The pose of a 3x4 [R | t] or a 4x4 matrix, whose last row must be (0, 0, 0, 1)."""
        m = np.asarray(m, dtype=float)
        pose = cls(m[:3, :3], m[:3, 3])
        if m.shape == (4, 4) and not np.array_equal(m[3], [0.0, 0.0, 0.0, 1.0]):
            raise ValueError(f"last row {m[3].tolist()} is not (0, 0, 0, 1)")
        return pose


def rotation_from_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues formula for a unit axis."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    K = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def rotation_from_rotvec(w: np.ndarray) -> np.ndarray:
    """Exponential map of a rotation vector (angle * unit axis)."""
    w = np.asarray(w, dtype=float)
    angle = np.linalg.norm(w)
    if angle < 1e-12:
        return np.eye(3)
    return rotation_from_axis_angle(w / angle, angle)


def pinhole(p_cam: np.ndarray, fx, fy, cx, cy) -> np.ndarray:
    """Pixels (..., 2) of camera-frame points (..., 3).

    The intrinsics broadcast over the leading axes. There is no depth check:
    each caller applies its own rule.
    """
    z = p_cam[..., 2]
    return np.stack([fx * p_cam[..., 0] / z + cx, fy * p_cam[..., 1] / z + cy], axis=-1)


def pinhole_jacobian(p_cam: np.ndarray, fx, fy) -> np.ndarray:
    """d(pixel)/d(camera point) of camera-frame points (..., 3), shape (..., 2, 3)."""
    x, y, z = p_cam[..., 0], p_cam[..., 1], p_cam[..., 2]
    J = np.zeros(p_cam.shape[:-1] + (2, 3))
    J[..., 0, 0] = fx / z
    J[..., 0, 2] = -fx * x / (z * z)
    J[..., 1, 1] = fy / z
    J[..., 1, 2] = -fy * y / (z * z)
    return J


def project(pose: SE3Pose, intrinsics: CameraIntrinsics, points: np.ndarray) -> np.ndarray:
    """Project world points to pixels; raises CheiralityError on non-positive depth.

    Accepts a single (3,) point or an (N, 3) batch, returning (2,) or (N, 2).
    """
    single = np.ndim(points) == 1
    p_cam = np.atleast_2d(pose.transform(points))
    z = p_cam[:, 2]
    if np.any(z <= MIN_DEPTH):
        raise CheiralityError(f"point at depth {z.min():.3g} is behind the camera")
    k = intrinsics
    pix = pinhole(p_cam, k.fx, k.fy, k.cx, k.cy)
    return pix[0] if single else pix


def project_with_depth(
    pose: SE3Pose, intrinsics: CameraIntrinsics, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batch projection that reports instead of raising: (pixels, depths, visible).

    Pixels are NaN behind the camera. A point is visible when its depth
    exceeds MIN_DEPTH and its pixel lies inside the image.
    """
    return project_camera_points(np.atleast_2d(pose.transform(points)), intrinsics)


def project_camera_points(
    p_cam: np.ndarray, intrinsics: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """project_with_depth on camera-frame points (N, 3)."""
    z = p_cam[:, 2]
    front = z > MIN_DEPTH
    k = intrinsics
    pix = pinhole(np.where(front[:, None], p_cam, np.nan), k.fx, k.fy, k.cx, k.cy)
    return pix, z, front & k.contains(pix)


def backproject(pixel: np.ndarray, depth, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Lift pixels at given depth into the camera frame (inverse projection).

    Accepts (2,) with scalar depth, or (N, 2) with (N,) depths.
    """
    single = np.ndim(pixel) == 1
    p = np.atleast_2d(np.asarray(pixel, dtype=float))
    d = np.atleast_1d(np.asarray(depth, dtype=float))
    if np.any(d <= 0):
        raise ValueError(f"depth must be positive, got {d.min():.3g}")
    k = intrinsics
    out = pinhole_inverse(p, d, k.fx, k.fy, k.cx, k.cy)
    return out[0] if single else out


def pinhole_inverse(pixels: np.ndarray, depths, fx, fy, cx, cy) -> np.ndarray:
    """Camera-frame points (..., 3) of pixels (..., 2) at depths (...,); inverts pinhole.

    The depths and intrinsics broadcast over the leading axes; depths are not checked.
    """
    d = np.broadcast_to(np.asarray(depths, dtype=float), pixels.shape[:-1])
    x = (pixels[..., 0] - cx) * d / fx
    y = (pixels[..., 1] - cy) * d / fy
    return np.stack([x, y, d], axis=-1)


def relative_pose(xi_r: SE3Pose, xi_s: SE3Pose) -> SE3Pose:
    """Transform from the frame of xi_r into the frame of xi_s."""
    return xi_s.compose(xi_r.inverse())


def triangulate(observations: Sequence[Observation]) -> np.ndarray:
    """Multi-view DLT least-squares point followed by a Gauss-Newton polish.

    Each observation is (pose, intrinsics, pixel). Requires >= 2 views.
    Raises DegenerateGeometryError for ill-conditioned geometry and
    CheiralityError if the solution lies behind any camera. This is the
    one-track case of triangulate_dlt and gauss_newton_polish.
    """
    if len(observations) < 2:
        raise ValueError("triangulation needs at least 2 observations")
    poses, intrinsics, pixels = zip(*observations)
    table, views = ViewTable.stack(poses, intrinsics), np.arange(len(observations))[None]
    R, t, k = table.R[views], table.t[views], table.k(views)
    pixels = np.array([np.asarray(pixel, dtype=float) for pixel in pixels])[None]
    points, reject = triangulate_dlt(R, t, k, pixels)
    if reject[0] != TRI_OK:
        error, message = _TRI_ERRORS[int(reject[0])]
        raise error(message)
    return gauss_newton_polish(points, R, t, k, pixels, np.array([len(observations)]))[0]


def _to_camera(points: np.ndarray, R: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Camera-frame copies (T, n, 3) of one point per track (T, 3) in each of its n views.

    Each point is transformed on its own, as a (1, 3) row against R^T, so a
    row equals the single-track product bit for bit.
    """
    return (points[:, None, None, :] @ np.swapaxes(R, -1, -2))[:, :, 0] + t


def _solve_rows(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stacked np.linalg.solve whose singular rows come back NaN instead of raising."""
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        out = np.full(b.shape, np.nan)
        for i in range(len(A)):  # only when some system is singular
            try:
                out[i] = np.linalg.solve(A[i], b[i])
            except np.linalg.LinAlgError:
                pass
        return out


def triangulate_dlt(R, t, k, pixels) -> tuple[np.ndarray, np.ndarray]:
    """Multi-view DLT points of T tracks of n views each: (points (T, 3), reject (T,)).

    R (T, n, 3, 3) and t (T, n, 3) are the views' poses, k = (fx, fy, cx, cy)
    each (T, n), and pixels (T, n, 2). reject is TRI_OK for a kept point and
    otherwise the first gate the track failed, in this order: coincident
    camera centers, condition number, point at infinity, cheirality; a
    rejected track's point is NaN. Rows never mix and are never padded, so
    every row equals its one-track solve.
    """
    T, n = pixels.shape[:2]
    reject = np.full(T, TRI_OK)

    centers = -(t[:, :, None, :] @ R)[:, :, 0]  # -R^T t per view
    span = centers.max(axis=1) - centers.min(axis=1)
    coincident = np.sqrt(np.vecdot(span, span)) < 1e-9 * (1.0 + np.abs(centers).max(axis=(1, 2)))
    reject[coincident] = TRI_COINCIDENT

    fx, fy, cx, cy = k
    K = np.zeros((T, n, 3, 3))
    K[..., 0, 0], K[..., 1, 1], K[..., 0, 2], K[..., 1, 2] = fx, fy, cx, cy
    K[..., 2, 2] = 1.0
    P = K @ np.concatenate([R, t[..., None]], axis=-1)
    A = np.stack(
        [
            pixels[..., :1] * P[..., 2, :] - P[..., 0, :],
            pixels[..., 1:] * P[..., 2, :] - P[..., 1, :],
        ],
        axis=-2,
    ).reshape(T, 2 * n, 4)
    norms = np.linalg.norm(A, axis=-1)
    norms[norms == 0] = 1.0
    A = A / norms[..., None]

    _, s, vt = np.linalg.svd(A)
    reject[(reject == TRI_OK) & (s[:, 2] * MAX_CONDITION < s[:, 0])] = TRI_ILL_CONDITIONED
    X_h = vt[:, -1]
    at_infinity = np.abs(X_h[:, 3]) < 1e-12 * np.sqrt(np.vecdot(X_h[:, :3], X_h[:, :3]))
    reject[(reject == TRI_OK) & at_infinity] = TRI_AT_INFINITY
    with np.errstate(divide="ignore", invalid="ignore"):
        points = X_h[:, :3] / X_h[:, 3:]

    front = np.flatnonzero(reject == TRI_OK)
    behind = np.any(_to_camera(points[front], R[front], t[front])[..., 2] <= MIN_DEPTH, axis=1)
    reject[front[behind]] = TRI_BEHIND
    points[reject != TRI_OK] = np.nan
    return points, reject


def gauss_newton_polish(point, R, t, k, pixels, lengths, max_steps: int = 10) -> np.ndarray:
    """Gauss-Newton polish on reprojection error, run to convergence per row.

    A single step leaves ~1e-8 frame dependence under pixel noise; iterating
    to convergence makes the result the geometric least-squares optimum,
    which is invariant under a common rigid transform of all cameras.

    Arrays as in triangulate_dlt, in any row order, with each row's view
    count in `lengths` (T,); row i's views past lengths[i] are ViewTable's
    padding camera, with zero pixels. All rows step in one loop, a row's
    k-th step at iteration k. The active rows are kept sorted by length, so
    the sums over a row's residuals (J^T J, J^T r and the cost) run per
    length on exactly its 2 n entries, and every row equals its one-track
    polish bit for bit.
    Only active rows step. A row freezes on a failed solve, on a step that
    breaks cheirality or does not lower the cost, and once it converges.
    """
    point = point.copy()
    T, n_max = pixels.shape[:2]
    scale = 1.0 + np.sqrt(np.vecdot(point, point))
    p_cam = _to_camera(point, R, t)
    r = (pinhole(p_cam, *k) - pixels).reshape(T, 2 * n_max)
    active = np.argsort(lengths, kind="stable")
    with np.errstate(all="ignore"):  # rows that fail are masked out
        for _ in range(max_steps):
            if not active.size:
                break
            a = active
            R_a, t_a, k_a, pixels_a, r_a = R[a], t[a], tuple(x[a] for x in k), pixels[a], r[a]
            J = (pinhole_jacobian(p_cam[a], k_a[0], k_a[1]) @ R_a).reshape(len(a), 2 * n_max, 3)
            segments = size_runs(2 * lengths[a])
            JtJ, Jtr = np.empty((len(a), 3, 3)), np.empty((len(a), 3, 1))
            for m, rows in segments:
                Jt = np.swapaxes(J[rows, :m], 1, 2)
                JtJ[rows], Jtr[rows] = Jt @ J[rows, :m], -Jt @ r_a[rows, :m, None]
            delta = _solve_rows(JtJ, Jtr)[:, :, 0]
            candidate = point[a] + delta
            p_new = _to_camera(candidate, R_a, t_a)
            r_new = (pinhole(p_new, *k_a) - pixels_a).reshape(len(a), 2 * n_max)
            lower = np.zeros(len(a), dtype=bool)
            for m, rows in segments:
                new, old = r_new[rows, :m], r_a[rows, :m]
                lower[rows] = np.vecdot(new, new) < np.vecdot(old, old)
            step = (
                np.isfinite(delta).all(axis=1) & ~np.any(p_new[..., 2] <= MIN_DEPTH, axis=1) & lower
            )
            rows = a[step]
            point[rows], p_cam[rows], r[rows] = candidate[step], p_new[step], r_new[step]
            converged = np.sqrt(np.vecdot(delta[step], delta[step])) < 1e-13 * scale[rows]
            active = rows[~converged]
    return point


def size_runs(sizes: np.ndarray) -> list[tuple[int, slice]]:
    """The runs of equal values of a sorted array: [(value, slice)], in order.

    Callers sort row ids by size once and take each run's rows as a slice
    of that order; masking rows out keeps the order sorted.
    """
    values, starts = np.unique(sizes, return_index=True)
    cuts = np.append(starts, len(sizes)).tolist()
    return [(m, slice(lo, hi)) for m, lo, hi in zip(values.tolist(), cuts, cuts[1:])]


def mean_reprojection_errors(points, R, t, k, pixels) -> np.ndarray:
    """Mean pixel distance per track (T,) between projections and observed pixels.

    Arrays as in triangulate_dlt; raises CheiralityError if a point is
    behind one of its cameras.
    """
    p_cam = _to_camera(points, R, t)
    if np.any(p_cam[..., 2] <= MIN_DEPTH):
        raise CheiralityError("point is behind a camera")
    return np.mean(np.linalg.norm(pinhole(p_cam, *k) - pixels, axis=-1), axis=-1)
