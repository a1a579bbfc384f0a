"""Pinhole projection, SE(3) algebra, and multi-view triangulation.

Conventions used throughout the package:
  - poses are world-to-camera: p_cam = R @ p_world + t
  - pixels are (u, v) with u along image columns (x) and v along rows (y)
  - all arrays are float64
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CheiralityError, DegenerateGeometryError

# Camera-frame depths below this count as "behind the camera".
MIN_DEPTH = 1e-8
# Triangulation systems with a larger singular-value ratio are rejected.
MAX_CONDITION = 1e12

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
    """Pinhole intrinsics: focal lengths and principal point in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError(f"focal lengths must be positive, got ({self.fx}, {self.fy})")
        if not (0 <= self.cx < self.width):
            raise ValueError(f"cx={self.cx} outside [0, {self.width})")
        if not (0 <= self.cy < self.height):
            raise ValueError(f"cy={self.cy} outside [0, {self.height})")

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
        return {
            "fx": self.fx,
            "fy": self.fy,
            "cx": self.cx,
            "cy": self.cy,
            "width": self.width,
            "height": self.height,
        }

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
    def optical_axis(self) -> np.ndarray:
        """World direction of the camera +z axis."""
        return self.rotation[2].copy()

    @property
    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "SE3Pose":
        m = np.asarray(m, dtype=float)
        return cls(m[:3, :3], m[:3, 3])


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
    p_cam = np.atleast_2d(pose.transform(points))
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
    x = (p[:, 0] - intrinsics.cx) * d / intrinsics.fx
    y = (p[:, 1] - intrinsics.cy) * d / intrinsics.fy
    out = np.stack([x, y, d], axis=1)
    return out[0] if single else out


def relative_pose(xi_r: SE3Pose, xi_s: SE3Pose) -> SE3Pose:
    """Transform from the frame of xi_r into the frame of xi_s."""
    return xi_s.compose(xi_r.inverse())


def _stack_observations(observations: Sequence[Observation]):
    """An observation list as arrays: R (n, 3, 3), t (n, 3), k (4, n), pixels (n, 2).

    The rows of k are fx, fy, cx and cy.
    """
    R = np.array([pose.rotation for pose, _, _ in observations])
    t = np.array([pose.translation for pose, _, _ in observations])
    k = np.array([(i.fx, i.fy, i.cx, i.cy) for _, i, _ in observations], dtype=float).T
    pixels = np.array([np.asarray(pixel, dtype=float) for _, _, pixel in observations])
    return R, t, k, pixels


def triangulate(observations: Sequence[Observation]) -> np.ndarray:
    """Multi-view DLT least-squares point followed by one Gauss-Newton polish.

    Each observation is (pose, intrinsics, pixel). Requires >= 2 views.
    Raises DegenerateGeometryError for ill-conditioned geometry and
    CheiralityError if the solution lies behind any camera.
    """
    if len(observations) < 2:
        raise ValueError("triangulation needs at least 2 observations")
    R, t, k, pixels = _stack_observations(observations)

    centers = -(t[:, None, :] @ R)[:, 0]  # -R^T t per view
    bbox_diag = np.linalg.norm(centers.max(axis=0) - centers.min(axis=0))
    if bbox_diag < 1e-9 * (1.0 + np.abs(centers).max()):
        raise DegenerateGeometryError("all camera centers coincide; depth unobservable")

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
        raise DegenerateGeometryError(
            f"triangulation condition number {s[0] / max(s[2], 1e-300):.3g} too large"
        )
    X_h = vt[-1]
    if abs(X_h[3]) < 1e-12 * np.linalg.norm(X_h[:3]):
        raise DegenerateGeometryError("triangulated point at infinity (parallel rays)")
    point = X_h[:3] / X_h[3]

    z = (point @ np.swapaxes(R, 1, 2) + t)[:, 2]
    if np.any(z <= MIN_DEPTH):
        raise CheiralityError(
            f"triangulated point has depth {z[z <= MIN_DEPTH][0]:.3g} in one view"
        )
    return _gauss_newton_polish(point, R, t, k, pixels)


def _gauss_newton_polish(point, R, t, k, pixels, max_steps: int = 10) -> np.ndarray:
    """Gauss-Newton polish on reprojection error, run to convergence.

    A single step leaves ~1e-8 frame dependence under pixel noise; iterating
    to convergence makes the result the geometric least-squares optimum,
    which is invariant under a common rigid transform of all cameras.
    Steps that increase the cost or break cheirality are rejected.
    """
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


def mean_reprojection_error(point: np.ndarray, observations: Sequence[Observation]) -> float:
    """Mean pixel distance between projections and observed pixels."""
    R, t, k, pixels = _stack_observations(observations)
    p_cam = point @ np.swapaxes(R, 1, 2) + t
    if np.any(p_cam[:, 2] <= MIN_DEPTH):
        raise CheiralityError("point is behind a camera")
    return float(np.mean(np.linalg.norm(pinhole(p_cam, *k) - pixels, axis=1)))
