"""Deterministic synthetic-scene oracle standing in for real images and a learned matcher.

Generates ground-truth 3D points on a blobby surface, cameras on a viewing
hemisphere, per-point unit descriptors shared across views, and noisy
per-view observations quantized to the stride-8 coarse grid.

All randomness is keyed through numpy SeedSequence lists (seed, stream) or
(seed, stream, view_id); per-point quantities are drawn as one table over
all points and indexed by point id. Every quantity is therefore
reproducible bit-exactly and independent of evaluation order.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import VisibilityError
from .geometry import (
    CameraIntrinsics,
    SE3Pose,
    project_camera_points,
    project_with_depth,
    rotation_from_axis_angle,
)

# Coarse-level grid stride in pixels (1/8 resolution matching level).
GRID_STRIDE = 8
# Half-extent of the 9x9 sub-pixel refinement window around a grid-cell center.
FINE_WINDOW_HALF = 4
# Largest pixel and descriptor noise sigma: far past any useful noise, and the
# squares that normalize noisy descriptors stay inside float64 (1e160 overflowed).
MAX_NOISE_SIGMA = 1e6
# Bits of a cell_keys key: a grid column, then a grid row of half as many bits.
CELL_KEY_BITS = 40

# RNG stream tags
_STREAM_POINTS = 1
_STREAM_CAMERAS = 2
_STREAM_DESC_COARSE = 3
_STREAM_DESC_FINE = 4
_STREAM_DROPOUT = 10
_STREAM_DESC_NOISE = 11
_STREAM_FINE_NOISE = 12


def grid_cell_center(pixels: np.ndarray) -> np.ndarray:
    """Center of the stride-8 grid cell containing each pixel."""
    p = np.asarray(pixels, dtype=float)
    return np.floor(p / GRID_STRIDE) * GRID_STRIDE + GRID_STRIDE / 2.0


def _unit_rows(m: np.ndarray) -> np.ndarray:
    return m / np.linalg.norm(m, axis=-1, keepdims=True)


@dataclass(frozen=True)
class NoiseModel:
    """Observation noise: sub-pixel jitter, descriptor noise, dropout, outliers."""

    fine_noise_sigma: float = 0.0
    descriptor_noise_sigma: float = 0.0
    dropout_rate: float = 0.0
    outlier_rate: float = 0.0

    def __post_init__(self):
        for name in ("fine_noise_sigma", "descriptor_noise_sigma"):
            sigma = getattr(self, name)
            if not (0 <= sigma <= MAX_NOISE_SIGMA):  # NaN fails too
                raise ValueError(f"{name} must be in [0, {MAX_NOISE_SIGMA:g}], got {sigma}")
        if not (0 <= self.dropout_rate < 1):
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if not (0 <= self.outlier_rate < 1):
            raise ValueError(f"outlier_rate must be in [0, 1), got {self.outlier_rate}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "NoiseModel":
        """The inverse of to_dict; missing or unknown keys raise ValueError."""
        if not isinstance(d, dict):
            raise ValueError("noise is not a mapping")
        names = [f.name for f in fields(cls)]
        missing = [k for k in names if k not in d]
        unknown = sorted(set(d) - set(names))
        if missing:
            raise ValueError(f"noise: missing {', '.join(missing)}")
        if unknown:
            raise ValueError(f"noise: unknown key {', '.join(unknown)}")
        return cls(**{k: float(d[k]) for k in names})


@dataclass(frozen=True, eq=False)
class SyntheticScene:
    """Ground-truth points, descriptors, cameras, and the noise model."""

    points: np.ndarray            # (N, 3), inside the unit-diameter box
    desc_coarse: np.ndarray       # (N, C_c) unit rows
    desc_fine: np.ndarray         # (N, C_f) unit rows
    views: list[tuple[SE3Pose, CameraIntrinsics]]
    noise: NoiseModel
    seed: int
    diameter: float = 1.0

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def n_views(self) -> int:
        return len(self.views)


@dataclass(frozen=True, eq=False)
class ViewObservations:
    """Everything one view sees: true pixels, grid cells, noisy descriptors.

    Rows cover visible points in ascending point-id order. `cell_winner`
    marks the front-most point of each occupied grid cell: only winners are
    observable at the coarse level (one descriptor patch per cell). Winners
    on a shared or off-grid cell (by cell_keys) raise ValueError.
    """

    view_id: int
    point_ids: np.ndarray         # (M,) int
    pixels: np.ndarray            # (M, 2) true sub-pixel projections
    depths: np.ndarray            # (M,) camera-frame depths
    cells: np.ndarray             # (M, 2) stride-8 cell centers
    desc_coarse: np.ndarray       # (M, C_c) noisy unit rows
    desc_fine: np.ndarray         # (M, C_f)
    cell_winner: np.ndarray       # (M,) bool
    visible_mask: np.ndarray      # (N,) bool over all scene points
    _winner_keys: np.ndarray = field(init=False, repr=False)   # sorted winner keys, then a top key
    _winner_rows: np.ndarray = field(init=False, repr=False)   # their rows, then -1 for a miss
    winner_row_of_point: np.ndarray = field(init=False, repr=False)
    """(N,) row of each scene point's cell-winning observation, -1 where it wins no cell."""

    def __post_init__(self):
        rows = np.flatnonzero(self.cell_winner)
        keys = cell_keys(self.cells[rows])
        order = np.argsort(keys)
        sorted_keys = keys[order]
        if np.any(sorted_keys[:1] < 0) or np.any(sorted_keys[1:] == sorted_keys[:-1]):
            raise ValueError("cell winners must be on the grid, at most one per cell")
        object.__setattr__(self, "_winner_keys", np.append(sorted_keys, 2**CELL_KEY_BITS))
        object.__setattr__(self, "_winner_rows", np.append(rows[order], -1))
        of_point = np.full(len(self.visible_mask), -1, dtype=np.intp)
        of_point[self.point_ids[rows]] = rows
        object.__setattr__(self, "winner_row_of_point", of_point)

    def winner_rows(self, pixels) -> np.ndarray:
        """Row index of the cell winner of each pixel's grid cell, -1 where there is none.

        Any pixel of a cell finds that cell's winner, not only its center.
        A pixel off the grid or not finite finds none.
        """
        keys = cell_keys(pixels)
        pos = np.searchsorted(self._winner_keys, keys)
        return np.where(self._winner_keys[pos] == keys, self._winner_rows[pos], -1)


def cell_keys(pixels) -> np.ndarray:
    """The int64 key of each pixel's stride-8 grid cell: column * 2**(CELL_KEY_BITS / 2) + row.

    Every pixel of a cell gets the same key, and keys sort like (u, v). A
    pixel off the grid (a negative coordinate, or a column or row that does
    not fit in CELL_KEY_BITS / 2 bits) or not finite gets -1.
    """
    u, v = np.floor(np.asarray(pixels, dtype=float).reshape(-1, 2) / GRID_STRIDE).T
    n = 2 ** (CELL_KEY_BITS // 2)  # columns, and rows, a key can hold
    on_grid = (np.minimum(u, v) >= 0) & (np.maximum(u, v) < n)  # False for NaN
    return np.where(on_grid, u * n + v, -1).astype(np.int64)


def _sample_blob_points(rng: np.random.Generator, n_points: int) -> np.ndarray:
    """Union of 3 random ellipsoid shells, scaled into the unit-diameter box."""
    centers = rng.uniform(-0.12, 0.12, size=(3, 3))
    semi_axes = rng.uniform(0.08, 0.28, size=(3, 3))
    rotations = []
    for _ in range(3):
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        q = q @ np.diag(np.sign(np.diag(r)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        rotations.append(q)

    which = rng.integers(0, 3, size=n_points)
    dirs = _unit_rows(rng.standard_normal((n_points, 3)))
    pts = np.empty((n_points, 3))
    for e in range(3):
        m = which == e
        pts[m] = centers[e] + (dirs[m] * semi_axes[e]) @ rotations[e].T

    # scale so the surface touches the unit-diameter sphere exactly
    pts *= 0.5 / np.linalg.norm(pts, axis=1).max()
    return pts


def _hemisphere_camera(
    rng: np.random.Generator,
    distance_range: tuple[float, float],
    jitter_deg: float,
) -> SE3Pose:
    """One camera on the viewing hemisphere, looking at the origin with jitter."""
    z = rng.uniform(0.1, 1.0)
    phi = rng.uniform(0.0, 2.0 * np.pi)
    r_xy = np.sqrt(1.0 - z * z)
    direction = np.array([r_xy * np.cos(phi), r_xy * np.sin(phi), z])
    dist = rng.uniform(*distance_range)
    pos = direction * dist

    fwd = -direction  # toward the origin
    up = np.array([0.0, 0.0, 1.0])
    if abs(fwd @ up) > 0.999:
        up = np.array([0.0, 1.0, 0.0])
    x = np.cross(up, fwd)
    x /= np.linalg.norm(x)
    y = np.cross(fwd, x)
    R = np.stack([x, y, fwd])

    axis = _unit_rows(rng.standard_normal(3)[None])[0]
    angle = np.radians(rng.uniform(0.0, jitter_deg))
    R = rotation_from_axis_angle(axis, angle) @ R
    return SE3Pose(R, -R @ pos)


def generate_scene(
    seed: int,
    n_points: int,
    n_views: int,
    noise: NoiseModel,
    *,
    coarse_dim: int = 32,
    fine_dim: int = 32,
    image_size: int = 512,
    focal: float = 640.0,
    distance_range: tuple[float, float] = (3.0, 5.0),
    jitter_deg: float = 10.0,
) -> SyntheticScene:
    """Deterministically build a scene; bit-identical for identical arguments.

    Cameras sit on a hemisphere at 3-5 object diameters (configurable) and
    look at the object center with bounded jitter. Raises if any point ends
    up geometrically visible in fewer than 2 views.
    """
    if n_points < 8:
        raise ValueError(f"need at least 8 points, got {n_points}")
    if n_views < 2:
        raise ValueError(f"need at least 2 views, got {n_views}")

    points = _sample_blob_points(np.random.default_rng([seed, _STREAM_POINTS]), n_points)

    intr = CameraIntrinsics(
        fx=focal, fy=focal, cx=image_size / 2.0, cy=image_size / 2.0,
        width=image_size, height=image_size,
    )
    cam_rng = np.random.default_rng([seed, _STREAM_CAMERAS])
    views = [(_hemisphere_camera(cam_rng, distance_range, jitter_deg), intr) for _ in range(n_views)]

    desc_coarse = _unit_rows(
        np.random.default_rng([seed, _STREAM_DESC_COARSE]).standard_normal((n_points, coarse_dim))
    )
    desc_fine = _unit_rows(
        np.random.default_rng([seed, _STREAM_DESC_FINE]).standard_normal((n_points, fine_dim))
    )

    scene = SyntheticScene(
        points=points,
        desc_coarse=desc_coarse,
        desc_fine=desc_fine,
        views=views,
        noise=noise,
        seed=seed,
    )

    visible_counts = np.zeros(n_points, dtype=int)
    for pose, k in views:
        visible_counts += project_with_depth(pose, k, points)[2]
    if visible_counts.min() < 2:
        raise ValueError(
            "scene has points visible in fewer than 2 views; "
            "widen the field of view or reduce jitter"
        )
    return scene


def render_observations(scene: SyntheticScene, view_id: int) -> ViewObservations:
    """Project all points into one view with frustum culling, dropout, and noise."""
    if not 0 <= view_id < scene.n_views:
        raise ValueError(f"view_id {view_id} out of range")
    pose, intr = scene.views[view_id]
    pix, z, in_frustum = project_with_depth(pose, intr, scene.points)

    drop_rng = np.random.default_rng([scene.seed, _STREAM_DROPOUT, view_id])
    dropped = drop_rng.uniform(size=scene.n_points) < scene.noise.dropout_rate
    visible = in_frustum & ~dropped

    sigma = scene.noise.descriptor_noise_sigma
    if sigma > 0:
        noise_rng = np.random.default_rng([scene.seed, _STREAM_DESC_NOISE, view_id])
        nc = noise_rng.standard_normal(scene.desc_coarse.shape)
        nf = noise_rng.standard_normal(scene.desc_fine.shape)
        obs_coarse = _unit_rows(scene.desc_coarse + sigma * nc)
        obs_fine = _unit_rows(scene.desc_fine + sigma * nf)
    else:
        obs_coarse = scene.desc_coarse
        obs_fine = scene.desc_fine

    ids = np.flatnonzero(visible)
    pixels = pix[ids]
    depths = z[ids]
    cells = grid_cell_center(pixels)

    return ViewObservations(
        view_id=view_id,
        point_ids=ids,
        pixels=pixels,
        depths=depths,
        cells=cells,
        desc_coarse=obs_coarse[ids],
        desc_fine=obs_fine[ids],
        cell_winner=cell_winners(cells, depths),  # losers are not coarse-observable
        visible_mask=visible,
    )


def cell_winners(pixels: np.ndarray, depths: np.ndarray) -> np.ndarray:
    """Z-buffer mask: each occupied grid cell's row of least depth, the earliest on a tie."""
    keys = cell_keys(pixels)
    order = np.argsort(keys)  # rows grouped by cell, in no set order within a cell
    starts = np.flatnonzero(np.diff(keys[order], prepend=-2))
    d = depths[order]
    front = d == np.repeat(np.minimum.reduceat(d, starts), np.diff(starts, append=len(d)))
    winner = np.zeros(len(keys), dtype=bool)
    winner[np.minimum.reduceat(np.where(front, order, len(d)), starts)] = True
    return winner


def fine_noise_table(scene: SyntheticScene, view_id: int) -> np.ndarray:
    """Unit-variance sub-pixel noise of every point in one view: (N, 2), row = point id.

    Drawn over all points, so a point's noise does not depend on which
    points are asked for, or in what order.
    """
    rng = np.random.default_rng([scene.seed, _STREAM_FINE_NOISE, view_id])
    return rng.standard_normal((scene.n_points, 2))


def oracle_fine_location(
    scene: SyntheticScene,
    view_id: int,
    point_id,
    *,
    window_half: int = FINE_WINDOW_HALF,
) -> np.ndarray:
    """True projection plus clamped Gaussian sub-pixel noise (ground truth u-hat).

    point_id is one id, giving a (2,) location, or an array of ids, giving
    (M, 2). The noise is the point's row of the view's fine_noise_table:
    repeated calls return the same location. The result is clamped to
    +-window_half px of the grid-cell center so it stays inside the
    refinement window.
    """
    pose, intr = scene.views[view_id]
    ids = np.atleast_1d(np.asarray(point_id, dtype=int))
    # one (1, 3) row per point, as pose.transform does for a single point
    p_cam = (scene.points[ids][:, None, :] @ pose.rotation.T)[:, 0] + pose.translation
    pix, _, visible = project_camera_points(p_cam, intr)
    if not visible.all():
        raise VisibilityError(f"point {ids[~visible][0]} not visible in view {view_id}")

    noisy = pix + scene.noise.fine_noise_sigma * fine_noise_table(scene, view_id)[ids]
    center = grid_cell_center(pix)
    out = np.clip(noisy, center - window_half, center + window_half)
    return out[0] if np.ndim(point_id) == 0 else out
