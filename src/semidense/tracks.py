"""Coarse reconstruction: fuse pairwise matches into feature tracks and triangulate.

A track node is a (view_id, cell) pair, numbered by an integer id that
sorts like the pair. Every coarse match is an edge between two node ids;
connected components become tracks. Components that contain two distinct
cells of the same view are internally inconsistent (outlier bridges): all
nodes of the offending views are dropped, keeping the rest of the component.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Iterable, Sequence

import numpy as np

from .geometry import (
    TRI_BEHIND,
    TRI_OK,
    CameraIntrinsics,
    SE3Pose,
    ViewTable,
    gauss_newton_polish,
    mean_reprojection_errors,
    triangulate_dlt,
)
from .formats import _dump_json
from .matching import PairMatches
from .scene import CELL_KEY_BITS, cell_keys, grid_cell_center


class TrackTable:
    """Tracks as row ranges of one node table.

    A subclass is a dataclass with an `offsets` field (T + 1,): the nodes
    of track i are rows offsets[i]:offsets[i + 1] of the fields named in
    NODE_FIELDS; every other field holds one row per track.
    """

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def take(self, idx):
        """The tracks idx (integer indices), in that order, as a table of their own."""
        lengths = np.diff(self.offsets)[idx]
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        nodes = np.repeat(self.offsets[:-1][idx] - offsets[:-1], lengths) + np.arange(offsets[-1])
        return type(self)(**{
            f.name: getattr(self, f.name)[nodes if f.name in self.NODE_FIELDS else idx]
            for f in fields(self) if f.name != "offsets"
        }, offsets=offsets)

    def padded(self, name: str, width: int, fill=0) -> np.ndarray:
        """The node column `name` as (T, width, ...) rows: each track's nodes, then `fill`.

        No track may have more than width nodes. Views padded with -1 gather
        ViewTable's padding camera.
        """
        column = getattr(self, name)
        out = np.full((len(self), width) + column.shape[1:], fill, dtype=column.dtype)
        out[np.arange(width) < np.diff(self.offsets)[:, None]] = column
        return out


@dataclass(frozen=True, eq=False)
class Tracks(TrackTable):
    """Multi-view tracks: at most one node per view, each track observing one 3D point.

    A node is a (view, cell) pair; a track's nodes are ordered by (view, u, v).
    """

    views: np.ndarray           # (N,) int
    cells: np.ndarray           # (N, 2) cell centers
    offsets: np.ndarray         # (T + 1,)
    track_ids: np.ndarray       # (T,)
    points: np.ndarray          # (T, 3) coarse points, NaN before triangulation
    reproj_errors: np.ndarray   # (T,) mean reprojection error (px), NaN before triangulation

    NODE_FIELDS = ("views", "cells")


@dataclass
class TrackStats:
    n_matches: int = 0
    n_components: int = 0
    conflicts: int = 0           # nodes dropped by the same-view conflict rule
    too_short: int = 0
    rejected_degenerate: int = 0
    rejected_cheirality: int = 0
    rejected_reprojection: int = 0
    length_histogram: dict[int, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = self.__dict__.copy()
        d["length_histogram"] = {str(k): v for k, v in sorted(self.length_histogram.items())}
        return d


@dataclass
class CoarseReconstruction:
    tracks: Tracks
    stats: TrackStats

    @property
    def points(self) -> np.ndarray:
        """(T, 3) coarse points of the surviving tracks."""
        return self.tracks.points


def _node_ids(views: np.ndarray, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer ids of (view, cell) endpoints, in the order of (view, u, v).

    Returns the id of every endpoint and one endpoint row of every id.
    Raises ValueError for a cell that is not the center of a grid cell.
    """
    keys = cell_keys(cells)
    if np.any(keys < 0) or np.any(cells != grid_cell_center(cells)):
        raise ValueError("match cells must be the centers of grid cells")
    node_keys, ids = np.unique(views << CELL_KEY_BITS | keys, return_inverse=True)
    node_row = np.empty(len(node_keys), dtype=np.intp)
    node_row[ids] = np.arange(len(ids))
    return ids, node_row


def _components(n_nodes: int, ends_a: np.ndarray, ends_b: np.ndarray) -> np.ndarray:
    """Smallest node id of each node's connected component.

    Min-label propagation: every edge hooks the larger of its two roots
    under the smaller, then pointer jumping flattens the forest, until both
    ends of every edge share a root.
    """
    label = np.arange(n_nodes)
    while True:
        ra, rb = label[ends_a], label[ends_b]
        split = ra != rb
        if not split.any():
            return label
        ra, rb = ra[split], rb[split]
        np.minimum.at(label, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


def build_tracks(
    matches: Iterable[PairMatches], min_track_length: int = 3
) -> tuple[Tracks, TrackStats]:
    """Connected components of the match graph; returns 2D-only tracks plus statistics.

    Deterministic and permutation-invariant: the output depends only on the
    set of matches. Tracks are ordered by their smallest (view, cell) node
    and numbered in that order.
    """
    stats = TrackStats()
    matches = list(matches)
    lengths = [len(m) for m in matches]
    stats.n_matches = sum(lengths)
    views = np.repeat(
        np.array([m.view_a for m in matches] + [m.view_b for m in matches], dtype=int),
        lengths + lengths,
    )
    ends = [m.cells_a for m in matches] + [m.cells_b for m in matches]
    cells = np.concatenate(ends) if ends else np.zeros((0, 2))
    ids, node_row = _node_ids(views, cells)
    node_view, node_cell = views[node_row], cells[node_row]
    label = _components(len(node_row), ids[: stats.n_matches], ids[stats.n_matches:])
    roots = np.flatnonzero(label == np.arange(len(label)))
    stats.n_components = len(roots)

    # node ids sort by view, so sorting by component groups each view's nodes
    order = np.argsort(label, kind="stable")
    comp, view = label[order], node_view[order]
    start = np.ones(len(order), dtype=bool)
    start[1:] = (comp[1:] != comp[:-1]) | (view[1:] != view[:-1])
    run = np.cumsum(start) - 1
    conflict = np.bincount(run)[run] > 1
    stats.conflicts = int(np.count_nonzero(conflict))

    kept, comp = order[~conflict], np.searchsorted(roots, comp[~conflict])
    n_kept = np.bincount(comp, minlength=len(roots))
    long_enough = n_kept >= min_track_length
    stats.too_short = int(np.count_nonzero(~long_enough))
    kept = kept[long_enough[comp]]
    offsets = np.concatenate([[0], np.cumsum(n_kept[long_enough])])
    order = np.argsort(kept[offsets[:-1]])
    tracks = Tracks(
        views=node_view[kept],
        cells=node_cell[kept],
        offsets=offsets,
        track_ids=np.argsort(order),  # each track's position once sorted
        points=np.full((len(order), 3), np.nan),
        reproj_errors=np.full(len(order), np.nan),
    ).take(order)
    length, count = np.unique(np.diff(tracks.offsets), return_counts=True)
    stats.length_histogram = dict(zip(length.tolist(), count.tolist()))
    return tracks, stats


def triangulate_tracks(
    tracks: Tracks,
    poses: Sequence[SE3Pose],
    intrinsics: Sequence[CameraIntrinsics],
    max_reproj_px: float = 12.0,
    stats: TrackStats | None = None,
) -> CoarseReconstruction:
    """Triangulate every track, rejecting failures per-track with reason counts.

    The DLT and its gates run per track length; one Gauss-Newton polish
    then steps every kept track in lock-step, its views padded to the
    longest track with ViewTable's padding camera. The surviving tracks
    keep their ids and carry their points and reprojection errors. The
    default reprojection gate (12 px) sits above the worst-case
    grid-quantization offset so clean quantized tracks always survive.
    """
    stats = stats if stats is not None else TrackStats()
    if np.any(np.diff(tracks.offsets) < 2):
        raise ValueError("triangulation needs at least 2 observations")
    table = ViewTable.stack(poses, intrinsics)
    order, groups = length_order(tracks.offsets)
    by_length = tracks.take(order)
    width = groups[-1][0] if groups else 0
    views = by_length.padded("views", width, fill=-1)
    R, t, k, pix = table.R[views], table.t[views], table.k(views), by_length.padded("cells", width)

    def rows_of(rows, n=width):
        """R, t, k and pixels of the sorted rows `rows`, cut to their first n views."""
        return R[rows, :n], t[rows, :n], tuple(a[rows, :n] for a in k), pix[rows, :n]

    points = np.full((len(tracks), 3), np.nan)
    reject = np.full(len(tracks), TRI_OK)
    for n, rows in groups:
        points[rows], reject[rows] = triangulate_dlt(*rows_of(rows, n))
    kept = np.flatnonzero(reject == TRI_OK)
    lengths = np.diff(by_length.offsets)
    points[kept] = gauss_newton_polish(points[kept], *rows_of(kept), lengths[kept])
    errors = np.full(len(tracks), np.nan)
    for n, rows in groups:
        e = np.arange(rows.start, rows.stop)[reject[rows] == TRI_OK]
        errors[e] = mean_reprojection_errors(points[e], *rows_of(e, n))

    behind = reject == TRI_BEHIND
    stats.rejected_degenerate += int(np.count_nonzero((reject != TRI_OK) & ~behind))
    stats.rejected_cheirality += int(np.count_nonzero(behind))
    too_far = (reject == TRI_OK) & (errors > max_reproj_px)
    stats.rejected_reprojection += int(np.count_nonzero(too_far))
    rank = np.argsort(order)  # each track's row in by_length
    survivors = rank[((reject == TRI_OK) & ~too_far)[rank]]
    triangulated = replace(by_length, points=points, reproj_errors=errors).take(survivors)
    return CoarseReconstruction(tracks=triangulated, stats=stats)


def length_order(offsets: np.ndarray) -> tuple[np.ndarray, list[tuple[int, slice]]]:
    """The tracks sorted by length, stably, and per length n the slice of that order so long.

    Returns (order (T,), [(n, slice)]) with the lengths ascending, so the
    tracks order[rows] of one (n, rows) are contiguous in the sorted table.
    """
    lengths = np.diff(offsets)
    order = np.argsort(lengths, kind="stable")
    sizes, starts = np.unique(lengths[order], return_index=True)
    bounds = np.append(starts, len(order)).tolist()
    return order, [(n, slice(lo, hi)) for n, lo, hi in zip(sizes.tolist(), bounds, bounds[1:])]


def length_groups(offsets: np.ndarray):
    """Per track length n, the tracks that long and their node rows: (rows (T,), nodes (T, n))."""
    order, groups = length_order(offsets)
    for n, rows in groups:
        yield order[rows], offsets[order[rows], None] + np.arange(n)


def tracks_to_json(tracks: Tracks, path) -> None:
    """Export: {track_id, nodes:[{view,u,v}], point:[x,y,z] or null before triangulation}."""
    cells = tracks.cells.tolist()
    nodes = [{"view": v, "u": u, "v": w} for v, (u, w) in zip(tracks.views.tolist(), cells)]
    bounds = zip(tracks.offsets[:-1].tolist(), tracks.offsets[1:].tolist())
    payload = {
        "tracks": [
            {
                "track_id": track_id,
                "nodes": nodes[lo:hi],
                "point": None if np.isnan(point).any() else point,
            }
            for track_id, (lo, hi), point in zip(
                tracks.track_ids.tolist(), bounds, tracks.points.tolist()
            )
        ]
    }
    _dump_json(payload, path)
