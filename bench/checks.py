"""Output checks for the benchmark, written apart from the program.

Every check compares an output with the synthetic scene's ground truth, or
tests a property the method must have. The arithmetic (nearest neighbours,
pinhole projection, pose errors, PLY and CSV parsing) is written out here
with numpy alone, so a fault in the program's own metric or I/O code cannot
hide a fault in its results. Each check returns a list of problems; an
empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

# Accuracy threshold of the refined cloud, as a share of the object diameter.
ACC_SHARE = 0.001
# Criterion-2 bar: mean refined-minus-coarse accuracy gain over the objects.
MIN_MEAN_GAIN = 0.20
# Pose success: translation within 1% of the camera distance and 1 degree.
POSE_T_SHARE = 0.01
POSE_R_DEG = 1.0
# metrics.csv holds repr() floats; a recomputation agrees to rounding.
CSV_TOL = 1e-9


def nearest_distances(points: np.ndarray, truth: np.ndarray, chunk: int = 256) -> np.ndarray:
    """Distance from each row of `points` to its nearest row of `truth` (brute force)."""
    points = np.asarray(points, dtype=float)
    truth = np.asarray(truth, dtype=float)
    out = np.empty(len(points))
    for s in range(0, len(points), chunk):
        diff = points[s : s + chunk, None, :] - truth[None, :, :]
        out[s : s + chunk] = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff).min(axis=1))
    return out


def cloud_accuracy(points: np.ndarray, truth: np.ndarray, diameter: float) -> float:
    """Share of points within ACC_SHARE of the diameter of a true point."""
    if len(points) == 0:
        return 0.0
    return float(np.mean(nearest_distances(points, truth) <= ACC_SHARE * diameter))


def rotation_angle_deg(Ra: np.ndarray, Rb: np.ndarray) -> float:
    c = (np.trace(Ra.T @ Rb) - 1.0) / 2.0
    return float(np.degrees(np.arccos(np.clip(c, -1.0, 1.0))))


def project(R: np.ndarray, t: np.ndarray, intr, points: np.ndarray) -> np.ndarray:
    """Pinhole projection of world points under the world-to-camera pose (R, t)."""
    p = np.asarray(points, dtype=float) @ np.asarray(R).T + np.asarray(t)
    return np.stack(
        [intr.fx * p[:, 0] / p[:, 2] + intr.cx, intr.fy * p[:, 1] / p[:, 2] + intr.cy],
        axis=1,
    )


def proj2d_px(R, t, R_gt, t_gt, intr, truth_points) -> float:
    """Mean pixel distance between the true points projected with both poses."""
    d = project(R, t, intr, truth_points) - project(R_gt, t_gt, intr, truth_points)
    return float(np.mean(np.linalg.norm(d, axis=1)))


def check_object(coarse_points, refined_points, truth, diameter):
    """One onboarded object: the refined cloud is at least as accurate as the coarse one.

    Returns (coarse accuracy, refined accuracy, problems).
    """
    coarse = cloud_accuracy(coarse_points, truth, diameter)
    refined = cloud_accuracy(refined_points, truth, diameter)
    problems = []
    if len(refined_points) == 0:
        problems.append("empty refined cloud")
    if refined < coarse:
        problems.append(f"refined accuracy {refined:.4f} below coarse {coarse:.4f}")
    return coarse, refined, problems


def check_mean_gain(accuracies) -> list[str]:
    """Criterion 2 over the run's objects: mean refined-minus-coarse gain."""
    gain = float(np.mean([r - c for c, r in accuracies])) if accuracies else float("nan")
    if not gain >= MIN_MEAN_GAIN:
        return [f"mean accuracy gain {gain:.4f} below {MIN_MEAN_GAIN}"]
    return []


def check_query(R, t, R_gt, t_gt, intr, inlier_points, inlier_pixels, inlier_px) -> list[str]:
    """One localized query: pose within 1% / 1 degree, every inlier within the threshold."""
    problems = []
    distance = float(np.linalg.norm(-np.asarray(R_gt).T @ np.asarray(t_gt)))
    t_err = float(np.linalg.norm(np.asarray(t) - np.asarray(t_gt)))
    r_err = rotation_angle_deg(np.asarray(R), np.asarray(R_gt))
    if t_err > POSE_T_SHARE * distance:
        problems.append(f"translation error {t_err:.5f} above 1% of {distance:.3f}")
    if r_err > POSE_R_DEG:
        problems.append(f"rotation error {r_err:.4f} deg above {POSE_R_DEG}")
    if len(inlier_points) < 4:
        problems.append(f"{len(inlier_points)} inliers")
    else:
        err = np.linalg.norm(project(R, t, intr, inlier_points) - inlier_pixels, axis=1)
        if err.max() > inlier_px:
            problems.append(f"inlier reprojects at {err.max():.3f} px > {inlier_px} px")
    return problems


def read_ply_points(path) -> np.ndarray:
    """Vertices of the ASCII PLY (x, y, z per line) that the CLI writes."""
    with open(path) as fh:
        n = None
        for line in fh:
            words = line.split()
            if words[:2] == ["format", "binary_little_endian"]:
                raise ValueError(f"{path}: expected an ASCII PLY")
            if words[:2] == ["element", "vertex"]:
                n = int(words[2])
            elif words == ["end_header"]:
                break
        rows = [line.split() for line in fh]
    if n is None or len(rows) != n:
        raise ValueError(f"{path}: {len(rows)} vertex lines, header says {n}")
    return np.array(rows, dtype=float).reshape(n, 3)


def check_pipeline_dir(out: Path, truth_views, truth_points, units_to_cm, n_queries):
    """A `semidense pipeline` output directory against the scene's ground truth.

    Every query is solved, and the per-query t_err_cm and rot_err_deg of
    metrics.csv equal this module's recomputation from poses.json.
    Returns (per-query Proj2D errors, problems).
    """
    problems = []
    with open(out / "estimate" / "poses.json") as fh:
        queries = json.load(fh)["queries"]
    solved = [q for q in queries if q["ok"] and q["pose"] is not None]
    if len(queries) != n_queries or len(solved) != n_queries:
        problems.append(f"{len(solved)} of {len(queries)} poses solved, expected {n_queries}")
    with open(out / "metrics.csv", newline="") as fh:
        rows = {r["view"]: r for r in csv.DictReader(fh)}
    proj = []
    for q in solved:
        m = np.array(q["pose"], dtype=float)
        R, t = m[:3, :3], m[:3, 3]
        R_gt, t_gt, intr = truth_views[q["view"]]
        row = rows.get(str(q["view"]))
        if row is None:
            problems.append(f"view {q['view']} missing from metrics.csv")
            continue
        want = {
            "t_err_cm": float(np.linalg.norm(t - t_gt)) * units_to_cm,
            "rot_err_deg": rotation_angle_deg(R, R_gt),
        }
        for col, value in want.items():
            got = float(row[col])
            if not abs(got - value) <= CSV_TOL * max(1.0, abs(value)):
                problems.append(f"view {q['view']} {col} {got!r} != recomputed {value!r}")
        proj.append(proj2d_px(R, t, R_gt, t_gt, intr, truth_points))
    return proj, problems
