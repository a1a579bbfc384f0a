"""Shared helpers for the test suite: random poses, camera rings, reference math.

Reference implementations here are deliberately written from scratch
(plain matrix arithmetic, exhaustive searches) so they stay independent
of the library code they are used to check.
"""

import dataclasses
import functools

import numpy as np

from semidense.geometry import CameraIntrinsics, SE3Pose, ViewTable


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish random rotation from a QR decomposition."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_pose(rng: np.random.Generator, t_scale: float = 1.0) -> SE3Pose:
    return SE3Pose(random_rotation(rng), rng.standard_normal(3) * t_scale)


def look_at_pose(camera_pos: np.ndarray, target: np.ndarray) -> SE3Pose:
    """World-to-camera pose with +z pointing from camera_pos to target."""
    camera_pos = np.asarray(camera_pos, dtype=float)
    z = np.asarray(target, dtype=float) - camera_pos
    z = z / np.linalg.norm(z)
    up = np.array([0.0, 0.0, 1.0])
    if abs(z @ up) > 0.999:
        up = np.array([0.0, 1.0, 0.0])
    x = np.cross(up, z)
    x = x / np.linalg.norm(x)
    y = np.cross(z, x)
    R = np.stack([x, y, z])
    return SE3Pose(R, -R @ camera_pos)


def camera_ring(n: int, radius: float, intr: CameraIntrinsics, *, height: float = 1.0):
    """n cameras on a circle of given radius, all looking at the origin."""
    views = []
    for k in range(n):
        a = 2.0 * np.pi * k / n
        pos = np.array([radius * np.cos(a), radius * np.sin(a), height])
        views.append((look_at_pose(pos, np.zeros(3)), intr))
    return views


def default_intrinsics(width: int = 512, height: int = 512, f: float = 640.0) -> CameraIntrinsics:
    return CameraIntrinsics(fx=f, fy=f, cx=width / 2.0, cy=height / 2.0, width=width, height=height)


def pixel_of(pose: SE3Pose, intr: CameraIntrinsics, point: np.ndarray) -> np.ndarray:
    """Reference pinhole projection written out longhand."""
    p = pose.rotation @ np.asarray(point, dtype=float) + pose.translation
    return np.array(
        [intr.fx * p[0] / p[2] + intr.cx, intr.fy * p[1] / p[2] + intr.cy]
    )


def track_arrays(observations):
    """One track's (pose, intrinsics, pixel) observations as a one-row stack.

    Returns R (1, n, 3, 3), t (1, n, 3), k = (fx, fy, cx, cy) each (1, n)
    and pixels (1, n, 2): the arrays triangulate_dlt, gauss_newton_polish and
    mean_reprojection_errors take.
    """
    poses, intrinsics, pixels = zip(*observations)
    views = np.arange(len(observations))[None]
    table = ViewTable.stack(poses, intrinsics)
    return table.R[views], table.t[views], table.k(views), np.array(pixels, dtype=float)[None]


def total_reprojection_cost(point: np.ndarray, observations) -> float:
    """Sum of squared pixel errors over all observations (reference math)."""
    cost = 0.0
    for pose, intr, pixel in observations:
        d = pixel_of(pose, intr, point) - np.asarray(pixel, dtype=float)
        cost += float(d @ d)
    return cost


def grid_search_point(observations, center: np.ndarray, radius: float,
                      rounds: int = 18, n: int = 7) -> np.ndarray:
    """Brute-force coarse-to-fine grid search minimizing total reprojection cost.

    Searches an axis-aligned box around `center`, shrinking it each round
    around the best grid node. Independent oracle for triangulation.
    """
    best = np.asarray(center, dtype=float).copy()
    r = float(radius)
    for _ in range(rounds):
        axes = [np.linspace(best[i] - r, best[i] + r, n) for i in range(3)]
        best_cost = np.inf
        best_node = best
        for x in axes[0]:
            for y in axes[1]:
                for z in axes[2]:
                    p = np.array([x, y, z])
                    c = total_reprojection_cost(p, observations)
                    if c < best_cost:
                        best_cost = c
                        best_node = p
        best = best_node
        r *= 0.45
    return best


def rotation_angle_deg(Ra: np.ndarray, Rb: np.ndarray) -> float:
    c = (np.trace(Ra.T @ Rb) - 1.0) / 2.0
    return float(np.degrees(np.arccos(np.clip(c, -1.0, 1.0))))


def random_rotation_perturbation(rng: np.random.Generator, max_deg: float) -> np.ndarray:
    from semidense.geometry import rotation_from_axis_angle

    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    return rotation_from_axis_angle(axis, np.radians(rng.uniform(0.0, max_deg)))


def golden_section_minimize(f, lo: float, hi: float, tol: float) -> float:
    """1-D golden-section search; reference oracle for scalar optimizers."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def random_refined_track(rng: np.random.Generator, n_sources: int = 8,
                         pixel_noise: float = 0.5, intr: CameraIntrinsics | None = None):
    """A one-track RefinedTracks with known ground truth for depth-optimizer tests.

    Node k sees view k, the reference view 0. The reference ray passes
    exactly through the true point; source pixels carry Gaussian noise.
    Returns (track, views, true_depth), views the ViewTable of its cameras.
    """
    from semidense.geometry import ViewTable

    intr = intr or default_intrinsics()
    point = rng.uniform(-0.35, 0.35, size=3)

    poses = []
    while len(poses) < n_sources + 1:
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        pos = direction * rng.uniform(3.0, 5.0)
        pose = look_at_pose(pos, np.zeros(3))
        pix = pixel_of(pose, intr, point)
        if 20 < pix[0] < intr.width - 20 and 20 < pix[1] < intr.height - 20:
            poses.append(pose)

    pixels = [pixel_of(poses[0], intr, point)]
    for k in range(1, n_sources + 1):
        pixels.append(pixel_of(poses[k], intr, point) + rng.normal(0.0, pixel_noise, size=2))
    true_depth = float(poses[0].transform(point)[2])
    track = refined_track(range(n_sources + 1), pixels, point * rng.uniform(0.95, 1.05))
    return track, ViewTable.stack(poses, [intr] * (n_sources + 1)), true_depth


def refined_track(views, pixels, point_init, **columns):
    """One track as a RefinedTracks table: its nodes' views (n,) and pixels (n, 2), reference first.

    The other columns default to track id 0, the pixels' grid cells,
    confidences of 1, and the depth LM's NaN columns (converged False).
    """
    from semidense.refine import RefinedTracks
    from semidense.scene import grid_cell_center

    pixels = np.array(pixels, dtype=float).reshape(-1, 2)
    defaults = dict(
        track_ids=np.zeros(1, dtype=int), cells=grid_cell_center(pixels),
        confidences=np.ones(len(pixels)), depths=np.full(1, np.nan), points=np.full((1, 3), np.nan),
        initial_costs=np.full(1, np.nan), final_costs=np.full(1, np.nan),
        converged=np.zeros(1, dtype=bool),
    )
    return RefinedTracks(
        point_init=np.array(point_init, dtype=float).reshape(1, 3),
        views=np.array(views, dtype=int),
        pixels=pixels,
        offsets=np.array([0, len(pixels)]),
        **(defaults | columns),
    )


def concat_tracks(tables):
    """One track table of several of the same type, their tracks in order."""
    first = tables[0]
    lengths = np.concatenate([np.diff(table.offsets) for table in tables])
    return type(first)(**{
        f.name: np.concatenate([getattr(table, f.name) for table in tables])
        for f in dataclasses.fields(first) if f.name != "offsets"
    }, offsets=np.concatenate([[0], np.cumsum(lengths)]))


def stack_tracks(pairs):
    """One track table and one ViewTable of (tracks, views) pairs, each over cameras of its own.

    A pair's view ids move past the cameras of the pairs before it; the
    padding camera stays last.
    """
    from semidense.geometry import ViewTable

    shifted, shift = [], 0
    for tracks, views in pairs:
        shifted.append(dataclasses.replace(tracks, views=tracks.views + shift))
        shift += len(views.fx) - 1

    def column(name):
        cameras = [getattr(views, name)[:-1] for _, views in pairs]
        return np.concatenate(cameras + [getattr(pairs[0][1], name)[-1:]])

    return concat_tracks(shifted), ViewTable(*(column(f.name) for f in dataclasses.fields(ViewTable)))


def onboard_scene(seed: int):
    """A noisy 2048-px object: 0.5 px fine noise, 10% outliers and 10% dropout."""
    from semidense.scene import NoiseModel, generate_scene

    noise = NoiseModel(fine_noise_sigma=0.5, outlier_rate=0.1, dropout_rate=0.1)
    return generate_scene(
        seed, 400, 12, noise, image_size=2048, focal=5000.0,
        distance_range=(3.5, 5.0), jitter_deg=3.0,
    )


def scene_tracks(scene, matcher, min_track_length: int = 3):
    """Tracks over every view pair of a scene, with their statistics."""
    from semidense.matching import select_view_pairs
    from semidense.tracks import build_tracks

    matches = []
    for a, b in select_view_pairs(scene.views):
        matches.append(matcher.coarse_match_pair(matcher.observations(a), matcher.observations(b)))
    return build_tracks(matches, min_track_length=min_track_length)


def fine_one(matcher, view_ref, u_ref, view_src, cell_src) -> tuple[np.ndarray, float]:
    """One fine query through the matcher's batch call: (pixel (2,), confidence)."""
    pixels, confidence = matcher.fine_refine([view_ref], [u_ref], [view_src], [cell_src])
    return pixels[0], float(confidence[0])


@functools.lru_cache(maxsize=64)
def winner_row_lookup(obs) -> dict[tuple[int, int], int]:
    """Dict from integer-truncated cell to the row of its cell winner."""
    return {
        (int(obs.cells[r, 0]), int(obs.cells[r, 1])): int(r) for r in np.flatnonzero(obs.cell_winner)
    }


def winner_row(obs, cell) -> int | None:
    """Row of the cell winner of one cell, or None, by a dict lookup."""
    return winner_row_lookup(obs).get((int(cell[0]), int(cell[1])))


def winner_point(obs, cell) -> int | None:
    """Point id of the cell winner of one cell, or None, through ViewObservations.winner_rows."""
    row = int(obs.winner_rows([cell])[0])
    return None if row < 0 else int(obs.point_ids[row])


def make_tracks(node_lists, points=None, track_ids=None):
    """A Tracks table from per-track lists of (view, (u, v)) nodes, for hand-written test tracks.

    points (T, 3) default to NaN rows (not triangulated), track ids to 0..T-1.
    """
    from semidense.tracks import Tracks

    nodes = [node for track in node_lists for node in track]
    n = len(node_lists)
    return Tracks(
        views=np.array([v for v, _ in nodes], dtype=int),
        cells=np.array([c for _, c in nodes], dtype=float).reshape(-1, 2),
        offsets=np.cumsum([0] + [len(track) for track in node_lists]),
        track_ids=np.arange(n) if track_ids is None else np.array(track_ids, dtype=int),
        points=np.full((n, 3), np.nan) if points is None else np.array(points, dtype=float),
        reproj_errors=np.full(n, np.nan),
    )


def node_lists(tracks) -> list[list[tuple[int, tuple[float, float]]]]:
    """Every track's nodes as (view, (u, v)) tuples of Python numbers."""
    nodes = [(v, tuple(c)) for v, c in zip(tracks.views.tolist(), tracks.cells.tolist())]
    return [nodes[lo:hi] for lo, hi in zip(tracks.offsets[:-1].tolist(), tracks.offsets[1:].tolist())]


def two_pass_row_col_softmax(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise and column-wise softmax, each shifted by its own row or column max."""
    rows = np.exp(scores - scores.max(axis=1, keepdims=True))
    rows /= rows.sum(axis=1, keepdims=True)
    cols = np.exp(scores - scores.max(axis=0, keepdims=True))
    cols /= cols.sum(axis=0, keepdims=True)
    return rows, cols


def two_pass_dual_softmax(scores: np.ndarray) -> np.ndarray:
    """The dual-softmax as the product of two separately computed softmaxes."""
    rows, cols = two_pass_row_col_softmax(scores)
    return rows * cols
