"""Pose and point-cloud evaluation metrics.

Covers the cm-degree success rate, average model-point distance with its
symmetric nearest-point variant (success at 10% of the object diameter),
mean 2D projection error (success at 5 px), and nearest-neighbor
point-cloud accuracy at metric thresholds.

Synthetic scenes declare 1 scene unit = 1 object diameter = 10 cm, so
centimeter and millimeter thresholds map to fixed unit fractions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import MIN_DEPTH, CameraIntrinsics, SE3Pose, pinhole

UNITS_TO_CM = 10.0
PROJ2D_THRESHOLD_PX = 5.0
ADD_DIAMETER_FRACTION = 0.1
POINT_CLOUD_THRESHOLDS_UNITS = (0.001, 0.01, 0.03, 0.05)  # 0.1mm-equiv, 1mm, 3mm, 5mm
CM_DEGREE_LEVELS = ((1.0, 1.0), (3.0, 3.0), (5.0, 5.0))


@dataclass
class PoseErrors:
    translation_cm: float
    rotation_deg: float
    add: float
    add_ok: bool
    add_s: float
    add_s_ok: bool
    proj2d_px: float
    proj2d_ok: bool


def rotation_error_deg(est: SE3Pose, gt: SE3Pose) -> float:
    """Geodesic angle between the two rotations, in degrees."""
    c = (np.trace(est.rotation.T @ gt.rotation) - 1.0) / 2.0
    return float(np.degrees(np.arccos(np.clip(c, -1.0, 1.0))))


def translation_error(est: SE3Pose, gt: SE3Pose) -> float:
    return float(np.linalg.norm(est.translation - gt.translation))


def cm_degree_success(
    est: SE3Pose,
    gt: SE3Pose,
    t_cm: float,
    t_deg: float,
    units_to_cm: float = UNITS_TO_CM,
) -> bool:
    """True iff both the translation and rotation errors are under threshold."""
    return (
        translation_error(est, gt) * units_to_cm <= t_cm
        and rotation_error_deg(est, gt) <= t_deg
    )


def _pairwise_min_dists(a: np.ndarray, b: np.ndarray, chunk: int = 512) -> np.ndarray:
    """min_j |a_i - b_j| for every row of a, chunked to bound memory."""
    out = np.empty(len(a))
    for s in range(0, len(a), chunk):
        block = a[s : s + chunk]
        d = np.linalg.norm(block[:, None, :] - b[None, :, :], axis=2)
        out[s : s + chunk] = d.min(axis=1)
    return out


def add_s(
    est: SE3Pose,
    gt: SE3Pose,
    model_points: np.ndarray,
    diameter: float,
    symmetric: bool,
) -> tuple[float, bool]:
    """Average model-point distance; nearest-point variant for symmetric objects.

    Returns (value, success at 10% of the diameter).
    """
    pts = np.asarray(model_points, dtype=float)
    if len(pts) == 0:
        raise ValueError("need at least one model point")
    if diameter <= 0:
        raise ValueError(f"diameter must be positive, got {diameter}")
    p_est = est.transform(pts)
    p_gt = gt.transform(pts)
    if symmetric:
        value = float(np.mean(_pairwise_min_dists(p_est, p_gt)))
    else:
        value = float(np.mean(np.linalg.norm(p_est - p_gt, axis=1)))
    return value, value <= ADD_DIAMETER_FRACTION * diameter


def proj2d(
    est: SE3Pose,
    gt: SE3Pose,
    model_points: np.ndarray,
    intr: CameraIntrinsics,
    threshold_px: float = PROJ2D_THRESHOLD_PX,
) -> tuple[float, bool]:
    """Mean reprojected pixel distance; cheirality failure counts as infinite."""
    pts = np.asarray(model_points, dtype=float)
    p_gt = gt.transform(pts)
    if np.any(p_gt[:, 2] <= MIN_DEPTH):
        raise ValueError("ground-truth pose puts model points behind the camera")
    p_est = est.transform(pts)
    if np.any(p_est[:, 2] <= MIN_DEPTH):
        return np.inf, False
    k = (intr.fx, intr.fy, intr.cx, intr.cy)
    err = float(np.mean(np.linalg.norm(pinhole(p_est, *k) - pinhole(p_gt, *k), axis=1)))
    return err, err <= threshold_px


def point_cloud_accuracy(
    recon_points: np.ndarray,
    gt_points: np.ndarray,
    thresholds=POINT_CLOUD_THRESHOLDS_UNITS,
) -> dict[float, float]:
    """Fraction of reconstructed points within each threshold of their nearest truth."""
    recon = np.asarray(recon_points, dtype=float)
    gt = np.asarray(gt_points, dtype=float)
    if len(recon) == 0 or len(gt) == 0:
        raise ValueError("both clouds must be non-empty")
    dists = _pairwise_min_dists(recon, gt)
    return {float(t): float(np.mean(dists <= t)) for t in thresholds}


def compute_pose_errors(
    est: SE3Pose,
    gt: SE3Pose,
    model_points: np.ndarray,
    intr: CameraIntrinsics,
    diameter: float,
    units_to_cm: float = UNITS_TO_CM,
) -> PoseErrors:
    """All per-query pose metrics in one pass (ADD and ADD-S both reported)."""
    add_val, add_ok = add_s(est, gt, model_points, diameter, symmetric=False)
    add_s_val, add_s_ok = add_s(est, gt, model_points, diameter, symmetric=True)
    proj_err, proj_ok = proj2d(est, gt, model_points, intr)
    return PoseErrors(
        translation_cm=translation_error(est, gt) * units_to_cm,
        rotation_deg=rotation_error_deg(est, gt),
        add=add_val,
        add_ok=add_ok,
        add_s=add_s_val,
        add_s_ok=add_s_ok,
        proj2d_px=proj_err,
        proj2d_ok=proj_ok,
    )
