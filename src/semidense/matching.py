"""Semi-dense matching frontend: pairwise coarse matches plus two-view fine refinement.

The shipped matcher is a synthetic-scene oracle. A learned matcher plugs in
by providing the same two calls: coarse_match_pair (grid-resolution matches
of one view pair) and the batched fine_refine (windowed sub-pixel locations
for many queries at once).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .formats import atomic_write
from .geometry import CameraIntrinsics, SE3Pose
from .scene import (
    FINE_WINDOW_HALF,
    GRID_STRIDE,
    SyntheticScene,
    ViewObservations,
    cell_keys,
    oracle_fine_location,
    render_observations,
)

_STREAM_OUTLIERS = 20

# Confidence reported for fine queries the matcher cannot ground.
OUTLIER_CONFIDENCE = 0.1


@dataclass(frozen=True, eq=False)
class PairMatches:
    """Grid-cell correspondences between two views, one row per match.

    Row i matches cells_a[i] in view_a with cells_b[i] in view_b at a
    matching score scores[i] in [0, 1].
    """

    view_a: int
    view_b: int
    cells_a: np.ndarray  # (K, 2)
    cells_b: np.ndarray  # (K, 2)
    scores: np.ndarray   # (K,)

    def __len__(self) -> int:
        return len(self.scores)


def outlier_draws(
    scene: SyntheticScene, view_a: int, view_b: int, cells_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The oracle's outliers among one pair's matches: (rows, wrong cells_b, scores).

    cells_b holds the true view-b cell of each match. Each row is corrupted
    with probability outlier_rate; a corrupted row gets a cell drawn
    uniformly from the other cells of view b's grid, and a uniform score.
    All draws come from one generator keyed on (seed, view_a, view_b).
    """
    rng = np.random.default_rng([scene.seed, _STREAM_OUTLIERS, view_a, view_b])
    rows = np.flatnonzero(rng.uniform(size=len(cells_b)) < scene.noise.outlier_rate)
    _, intr_b = scene.views[view_b]
    n_cols = intr_b.width // GRID_STRIDE
    n_cells = n_cols * (intr_b.height // GRID_STRIDE)
    true = (cells_b[rows] // GRID_STRIDE).astype(np.int64)
    true_idx = true[:, 1] * n_cols + true[:, 0]
    # uniform over the n_cells - 1 other cells: skip the true one
    k = rng.integers(0, n_cells - 1, size=len(rows))
    k += k >= true_idx
    cells = np.column_stack([k % n_cols, k // n_cols]) * GRID_STRIDE + GRID_STRIDE / 2.0
    return rows, cells, rng.uniform(0.0, 1.0, size=len(rows))


class OracleMatcher:
    """Ground-truth matcher over a synthetic scene.

    Coarse matches pair the cells of points that win their grid cell in both
    views; a configurable fraction is replaced by uniformly random wrong
    cells to emulate outliers. Fine refinement returns the clamped noisy
    true projection when the query is consistent with ground truth and the
    window center at low confidence otherwise.
    """

    def __init__(self, scene: SyntheticScene, *, window: int = 2 * FINE_WINDOW_HALF + 1):
        if window % 2 != 1:
            raise ValueError(f"refinement window must be odd, got {window}")
        self.scene = scene
        self.window_half = window // 2
        self._obs_cache: dict[int, ViewObservations] = {}

    def observations(self, view_id: int) -> ViewObservations:
        if view_id not in self._obs_cache:
            self._obs_cache[view_id] = render_observations(self.scene, view_id)
        return self._obs_cache[view_id]

    def coarse_match_pair(
        self, obs_a: ViewObservations, obs_b: ViewObservations
    ) -> PairMatches:
        """Grid-resolution matches between two distinct views."""
        if obs_a.view_id == obs_b.view_id:
            raise ValueError("coarse matching needs two distinct views")
        # the points that win a (distinct) cell in both views, in ascending point
        # id; a point past the end of one view's table is not visible in that view
        n = min(len(obs_a.winner_row_of_point), len(obs_b.winner_row_of_point))
        of_a = obs_a.winner_row_of_point[:n]
        of_b = obs_b.winner_row_of_point[:n]
        common = np.flatnonzero((of_a >= 0) & (of_b >= 0))
        rows_a, rows_b = of_a[common], of_b[common]
        scores = np.clip(
            np.sum(obs_a.desc_coarse[rows_a] * obs_b.desc_coarse[rows_b], axis=1),
            0.0,
            1.0,
        )
        cells_a = obs_a.cells[rows_a]
        cells_b = obs_b.cells[rows_b]

        if self.scene.noise.outlier_rate > 0:
            rows, wrong_cells, wrong_scores = outlier_draws(
                self.scene, obs_a.view_id, obs_b.view_id, cells_b
            )
            cells_b[rows] = wrong_cells
            scores[rows] = wrong_scores
        return PairMatches(
            view_a=obs_a.view_id,
            view_b=obs_b.view_id,
            cells_a=cells_a,
            cells_b=cells_b,
            scores=scores,
        )

    def fine_refine(
        self, view_ref, u_ref, view_src, cell_src
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sub-pixel locations for Q fine queries at once: (pixels (Q, 2), confidence (Q,)).

        Row i asks for the location in view_src[i] matching the reference
        pixel u_ref[i] of view_ref[i], searched within the window around the
        coarse cell cell_src[i]. View ids are (Q,) and pixels (Q, 2).

        A query whose cell lies outside its source image raises ValueError.
        Otherwise a query returns its cell at confidence 0 when the reference
        cell has no cell winner, at OUTLIER_CONFIDENCE when the point is not
        visible in the source view or sits in another cell, and the oracle
        fine location (the clamped noisy true projection) at confidence 1
        otherwise.
        """
        view_ref = np.asarray(view_ref, dtype=int).reshape(-1)
        view_src = np.asarray(view_src, dtype=int).reshape(-1)
        u_ref = np.asarray(u_ref, dtype=float).reshape(-1, 2)
        cell_src = np.asarray(cell_src, dtype=float).reshape(-1, 2)
        src_views = sorted(set(view_src.tolist()))
        for v in src_views:
            cells = cell_src[view_src == v]
            inside = self.scene.views[v][1].contains(cells)
            if not inside.all():
                raise ValueError(f"query cell {cells[~inside][0]} outside the image")

        point_ids = np.full(len(view_ref), -1, dtype=int)
        for v in sorted(set(view_ref.tolist())):
            rows = np.flatnonzero(view_ref == v)
            ref_obs = self.observations(v)
            win = ref_obs.winner_rows(u_ref[rows])
            point_ids[rows[win >= 0]] = ref_obs.point_ids[win[win >= 0]]
        pixels = cell_src.copy()
        confidence = np.where(point_ids >= 0, OUTLIER_CONFIDENCE, 0.0)
        for v in src_views:
            rows = np.flatnonzero((view_src == v) & (point_ids >= 0))
            if not rows.size:
                continue
            src_obs = self.observations(v)
            rows = rows[src_obs.visible_mask[point_ids[rows]]]
            true_cells = src_obs.cells[np.searchsorted(src_obs.point_ids, point_ids[rows])]
            rows = rows[cell_keys(true_cells) == cell_keys(cell_src[rows])]
            confidence[rows] = 1.0
            pixels[rows] = oracle_fine_location(
                self.scene, v, point_ids[rows], window_half=self.window_half
            )
        return pixels, confidence


def select_view_pairs(
    views: Sequence[tuple[SE3Pose, CameraIntrinsics]],
    *,
    max_exhaustive: int = 50,
    k_nearest: int = 10,
) -> list[tuple[int, int]]:
    """All pairs for small view sets; k nearest neighbours by camera center otherwise."""
    n = len(views)
    if n <= max_exhaustive:
        return [(a, b) for a in range(n) for b in range(a + 1, n)]
    centers = np.array([pose.camera_center for pose, _ in views])
    pairs = set()
    for a in range(n):
        d = np.linalg.norm(centers - centers[a], axis=1)
        d[a] = np.inf
        for b in np.argsort(d)[:k_nearest]:
            pairs.add((min(a, int(b)), max(a, int(b))))
    return sorted(pairs)


def dump_matches_csv(matches: Iterable[PairMatches], path) -> None:
    """Debug dump: view_a,view_b,ua,va,ub,vb,score, one line per match."""
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["view_a", "view_b", "ua", "va", "ub", "vb", "score"])
        for m in matches:
            rows = np.column_stack([m.cells_a, m.cells_b, m.scores]).tolist()
            writer.writerows([m.view_a, m.view_b, *row] for row in rows)
