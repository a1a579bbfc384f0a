"""Semi-dense matching frontend: pairwise coarse matches plus two-view fine refinement.

The frontend is an abstract seam: the shipped implementation is a
synthetic-scene oracle, but anything producing the same two operations
(grid-resolution coarse matches, windowed sub-pixel refinement) can plug in.
"""

from __future__ import annotations

import csv
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .geometry import CameraIntrinsics, SE3Pose
from .scene import (
    FINE_WINDOW_HALF,
    GRID_STRIDE,
    SyntheticScene,
    ViewObservations,
    grid_cell_center,
    oracle_fine_location,
    render_observations,
)

_STREAM_OUTLIERS = 20

Cell = tuple[float, float]

# Confidence reported for fine queries the matcher cannot ground.
OUTLIER_CONFIDENCE = 0.1


@dataclass(frozen=True, slots=True)
class CoarseMatch:
    """Grid-cell correspondence between two views with a matching score in [0, 1]."""

    view_a: int
    view_b: int
    cell_a: Cell
    cell_b: Cell
    score: float


@dataclass(frozen=True)
class FineMatchQuery:
    """Ask for the sub-pixel location in view_src matching the reference node.

    u_ref is the (fixed) reference-node pixel in view_ref; cell_src is the
    coarse location in view_src whose 9x9 neighbourhood is searched.
    """

    view_ref: int
    u_ref: np.ndarray
    view_src: int
    cell_src: np.ndarray


@dataclass(frozen=True)
class FineMatchResult:
    pixel: np.ndarray
    confidence: float


class MatchingFrontend(ABC):
    """Interface of the pluggable semi-dense matcher."""

    @abstractmethod
    def coarse_match_pair(
        self, obs_a: ViewObservations, obs_b: ViewObservations
    ) -> list[CoarseMatch]:
        """Grid-resolution matches between two distinct views."""

    @abstractmethod
    def fine_refine(self, query: FineMatchQuery) -> FineMatchResult:
        """Sub-pixel location within the window around the query's coarse cell."""


class OracleMatcher(MatchingFrontend):
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
    ) -> list[CoarseMatch]:
        if obs_a.view_id == obs_b.view_id:
            raise ValueError("coarse matching needs two distinct views")
        rate = self.scene.noise.outlier_rate

        winners_a = {
            int(obs_a.point_ids[r]): r for r in np.flatnonzero(obs_a.cell_winner)
        }
        winners_b = {
            int(obs_b.point_ids[r]): r for r in np.flatnonzero(obs_b.cell_winner)
        }
        common = sorted(winners_a.keys() & winners_b.keys())
        if not common:
            return []

        rows_a = np.array([winners_a[p] for p in common])
        rows_b = np.array([winners_b[p] for p in common])
        scores = np.clip(
            np.sum(obs_a.desc_coarse[rows_a] * obs_b.desc_coarse[rows_b], axis=1),
            0.0,
            1.0,
        )
        cells_a = obs_a.cells[rows_a]
        cells_b = obs_b.cells[rows_b]

        if rate > 0:
            rng = np.random.default_rng(
                [self.scene.seed, _STREAM_OUTLIERS, obs_a.view_id, obs_b.view_id]
            )
            corrupt = rng.uniform(size=len(common)) < rate
            _, intr_b = self.scene.views[obs_b.view_id]
            n_cols = intr_b.width // GRID_STRIDE
            n_rows = intr_b.height // GRID_STRIDE
            cells_b = cells_b.copy()
            scores = scores.copy()
            for i in np.flatnonzero(corrupt):
                while True:
                    cu = rng.integers(0, n_cols) * GRID_STRIDE + GRID_STRIDE / 2.0
                    cv = rng.integers(0, n_rows) * GRID_STRIDE + GRID_STRIDE / 2.0
                    if (cu, cv) != (cells_b[i, 0], cells_b[i, 1]):
                        break
                cells_b[i] = (cu, cv)
                scores[i] = rng.uniform(0.0, 1.0)

        # one match per cell_a: keep the highest score
        best: dict[Cell, int] = {}
        for i in range(len(common)):
            key = (cells_a[i, 0], cells_a[i, 1])
            j = best.get(key)
            if j is None or scores[i] > scores[j]:
                best[key] = i
        kept = sorted(best.values())
        return [
            CoarseMatch(
                view_a=obs_a.view_id,
                view_b=obs_b.view_id,
                cell_a=(float(cells_a[i, 0]), float(cells_a[i, 1])),
                cell_b=(float(cells_b[i, 0]), float(cells_b[i, 1])),
                score=float(scores[i]),
            )
            for i in kept
        ]

    def fine_refine(self, query: FineMatchQuery) -> FineMatchResult:
        cell_src = np.asarray(query.cell_src, dtype=float)
        _, intr = self.scene.views[query.view_src]
        if not intr.contains(cell_src):
            raise ValueError(f"query cell {cell_src} outside the image")

        ref_obs = self.observations(query.view_ref)
        ref_cell = grid_cell_center(np.asarray(query.u_ref, dtype=float))
        point_id = ref_obs.winner_point_for_cell(ref_cell)
        if point_id is None:
            return FineMatchResult(pixel=cell_src.copy(), confidence=0.0)

        src_obs = self.observations(query.view_src)
        if not src_obs.visible_mask[point_id]:
            return FineMatchResult(pixel=cell_src.copy(), confidence=OUTLIER_CONFIDENCE)
        row = np.searchsorted(src_obs.point_ids, point_id)
        true_cell = src_obs.cells[row]
        if not np.array_equal(true_cell, grid_cell_center(cell_src)):
            return FineMatchResult(pixel=cell_src.copy(), confidence=OUTLIER_CONFIDENCE)

        loc = oracle_fine_location(
            self.scene, query.view_src, point_id, window_half=self.window_half
        )
        return FineMatchResult(pixel=loc, confidence=1.0)


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


def dump_matches_csv(matches: Iterable[CoarseMatch], path) -> None:
    """Debug dump: view_a,view_b,ua,va,ub,vb,score."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["view_a", "view_b", "ua", "va", "ub", "vb", "score"])
        for m in matches:
            writer.writerow(
                [m.view_a, m.view_b, m.cell_a[0], m.cell_a[1], m.cell_b[0], m.cell_b[1], m.score]
            )
