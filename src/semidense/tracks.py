"""Coarse reconstruction: fuse pairwise matches into feature tracks and triangulate.

A track node is a (view_id, cell) pair, numbered by an integer id that
sorts like the pair. Every coarse match is an edge between two node ids;
connected components become tracks. Components that contain two distinct
cells of the same view are internally inconsistent (outlier bridges): all
nodes of the offending views are dropped, keeping the rest of the component.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .geometry import (
    TRI_BEHIND,
    TRI_OK,
    CameraIntrinsics,
    SE3Pose,
    ViewTable,
    mean_reprojection_errors,
    triangulate_batch,
)
from .matching import Cell, PairMatches

Node = tuple[int, Cell]


@dataclass
class FeatureTrack:
    """One multi-view track: at most one node per view, observing one 3D point."""

    track_id: int
    nodes: list[Node]
    point_coarse: np.ndarray | None = None
    reproj_error: float | None = None

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def view_ids(self) -> list[int]:
        return [v for v, _ in self.nodes]


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
    tracks: list[FeatureTrack]
    points: np.ndarray  # (n_tracks, 3)
    stats: TrackStats


def _dense_rank(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rank of every value among the distinct values of x, plus one row holding each rank."""
    order = np.argsort(x)
    new = np.ones(len(x), dtype=bool)
    new[1:] = x[order[1:]] != x[order[:-1]]
    rank = np.empty(len(x), dtype=np.intp)
    rank[order] = np.cumsum(new) - 1
    return rank, order[new]


def _node_ids(views: np.ndarray, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer ids of (view, cell) endpoints, in the order of (view, u, v).

    Returns the id of every endpoint and one endpoint row of every id.
    """
    view_u, _ = _dense_rank(cells[:, 0])
    view_u, _ = _dense_rank(views * (view_u.max() + 1) + view_u)
    v, _ = _dense_rank(cells[:, 1])
    return _dense_rank(view_u * (v.max() + 1) + v)


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
) -> tuple[list[FeatureTrack], TrackStats]:
    """Connected components of the match graph; returns 2D-only tracks plus statistics.

    Deterministic and permutation-invariant: the output depends only on the
    set of matches. Tracks are ordered by their smallest (view, cell) node.
    """
    stats = TrackStats()
    matches = list(matches)
    lengths = [len(m) for m in matches]
    stats.n_matches = sum(lengths)
    if not stats.n_matches:
        return [], stats
    views = np.concatenate([
        np.repeat([m.view_a for m in matches], lengths),
        np.repeat([m.view_b for m in matches], lengths),
    ])
    cells = np.concatenate([m.cells_a for m in matches] + [m.cells_b for m in matches])
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
    nodes = list(zip(node_view[kept].tolist(), map(tuple, node_cell[kept].tolist())))
    tracks = [
        FeatureTrack(track_id=-1, nodes=nodes[lo:hi])
        for lo, hi in zip(offsets[:-1].tolist(), offsets[1:].tolist())
    ]

    tracks = [tracks[i] for i in np.argsort(kept[offsets[:-1]])]
    for i, t in enumerate(tracks):
        t.track_id = i
        stats.length_histogram[len(t)] = stats.length_histogram.get(len(t), 0) + 1
    return tracks, stats


def triangulate_tracks(
    tracks: Sequence[FeatureTrack],
    poses: Sequence[SE3Pose],
    intrinsics: Sequence[CameraIntrinsics],
    max_reproj_px: float = 12.0,
    stats: TrackStats | None = None,
) -> CoarseReconstruction:
    """Triangulate every track, rejecting failures per-track with reason counts.

    Tracks of equal length are solved as one batch. The default
    reprojection gate (12 px) sits above the worst-case grid-quantization
    offset so clean quantized tracks always survive.
    """
    stats = stats if stats is not None else TrackStats()
    if any(len(track) < 2 for track in tracks):
        raise ValueError("triangulation needs at least 2 observations")
    table = ViewTable.stack(poses, intrinsics)
    views, cells, offsets = node_arrays(tracks)

    points = np.full((len(tracks), 3), np.nan)
    reject = np.full(len(tracks), TRI_OK)
    errors = np.full(len(tracks), np.nan)
    for rows, nodes in length_groups(offsets):
        v = views[nodes]
        R, t, k, pix = table.R[v], table.t[v], table.k(v), cells[nodes]
        points[rows], reject[rows] = triangulate_batch(R, t, k, pix)
        kept = reject[rows] == TRI_OK
        errors[rows[kept]] = mean_reprojection_errors(
            points[rows[kept]], R[kept], t[kept], tuple(x[kept] for x in k), pix[kept]
        )

    behind = reject == TRI_BEHIND
    stats.rejected_degenerate += int(np.count_nonzero((reject != TRI_OK) & ~behind))
    stats.rejected_cheirality += int(np.count_nonzero(behind))
    too_far = (reject == TRI_OK) & (errors > max_reproj_px)
    stats.rejected_reprojection += int(np.count_nonzero(too_far))
    keep = np.flatnonzero((reject == TRI_OK) & ~too_far)
    kept_tracks = [
        FeatureTrack(
            track_id=tracks[i].track_id,
            nodes=list(tracks[i].nodes),
            point_coarse=points[i],
            reproj_error=err,
        )
        for i, err in zip(keep.tolist(), errors[keep].tolist())
    ]
    return CoarseReconstruction(tracks=kept_tracks, points=points[keep], stats=stats)


def node_arrays(tracks: Sequence[FeatureTrack]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every track's nodes flattened: views (N,), cells (N, 2) and offsets (T + 1,).

    The nodes of track i are rows offsets[i]:offsets[i + 1].
    """
    nodes = [node for track in tracks for node in track.nodes]
    views = np.array([v for v, _ in nodes], dtype=int)
    cells = np.array([c for _, c in nodes], dtype=float).reshape(-1, 2)
    offsets = np.concatenate([[0], np.cumsum([len(track) for track in tracks], dtype=int)])
    return views, cells, offsets


def length_groups(offsets: np.ndarray):
    """Per track length n, the tracks that long and their node rows: (rows (T,), nodes (T, n))."""
    lengths = np.diff(offsets)
    for n in sorted(set(lengths.tolist())):
        rows = np.flatnonzero(lengths == n)
        yield rows, offsets[rows, None] + np.arange(n)


def tracks_to_json(tracks: Sequence[FeatureTrack], path) -> None:
    """Export: {track_id, nodes:[{view,u,v}], point:[x,y,z]}."""
    payload = {
        "tracks": [
            {
                "track_id": t.track_id,
                "nodes": [{"view": v, "u": c[0], "v": c[1]} for v, c in t.nodes],
                "point": None if t.point_coarse is None else [float(x) for x in t.point_coarse],
            }
            for t in tracks
        ]
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")
