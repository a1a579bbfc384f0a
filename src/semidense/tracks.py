"""Coarse reconstruction: fuse pairwise matches into feature tracks and triangulate.

A track node is a (view_id, cell) pair. Union-find merges the two endpoints
of every coarse match; connected components become tracks. Components that
contain two distinct cells of the same view are internally inconsistent
(outlier bridges): all nodes of the offending views are dropped, keeping
the rest of the component.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import CheiralityError, DegenerateGeometryError
from .geometry import CameraIntrinsics, SE3Pose, mean_reprojection_error, triangulate
from .matching import Cell, CoarseMatch

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


class _UnionFind:
    __slots__ = ("parent", "size")

    def __init__(self):
        self.parent: dict[Node, Node] = {}
        self.size: dict[Node, int] = {}

    def find(self, x: Node) -> Node:
        parent = self.parent
        root = parent.setdefault(x, x)
        if root == x:
            self.size.setdefault(x, 1)
            return x
        # path halving
        while parent[root] != root:
            parent[root] = parent[parent[root]]
            root = parent[root]
        parent[x] = root
        return root

    def union(self, a: Node, b: Node) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]


def build_tracks(
    matches: Iterable[CoarseMatch], min_track_length: int = 3
) -> tuple[list[FeatureTrack], TrackStats]:
    """Union-find over match endpoints; returns 2D-only tracks plus statistics.

    Deterministic and permutation-invariant: the output depends only on the
    set of matches. Tracks are ordered by their smallest (view, cell) node.
    """
    stats = TrackStats()
    uf = _UnionFind()
    for m in matches:
        stats.n_matches += 1
        uf.union((m.view_a, m.cell_a), (m.view_b, m.cell_b))

    components: dict[Node, list[Node]] = {}
    for node in uf.parent:
        components.setdefault(uf.find(node), []).append(node)
    stats.n_components = len(components)

    tracks: list[FeatureTrack] = []
    for nodes in components.values():
        per_view: dict[int, list[Node]] = {}
        for node in nodes:
            per_view.setdefault(node[0], []).append(node)
        kept = []
        for view_id in per_view:
            if len(per_view[view_id]) == 1:
                kept.append(per_view[view_id][0])
            else:
                stats.conflicts += len(per_view[view_id])
        if len(kept) < min_track_length:
            stats.too_short += 1
            continue
        kept.sort()
        tracks.append(FeatureTrack(track_id=-1, nodes=kept))

    tracks.sort(key=lambda t: t.nodes[0])
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

    The default reprojection gate (12 px) sits above the worst-case
    grid-quantization offset so clean quantized tracks always survive.
    """
    stats = stats if stats is not None else TrackStats()

    kept_tracks: list[FeatureTrack] = []
    points: list[np.ndarray] = []
    for track in tracks:
        obs = [
            (poses[v], intrinsics[v], np.asarray(cell, dtype=float))
            for v, cell in track.nodes
        ]
        try:
            point = triangulate(obs)
        except DegenerateGeometryError:
            stats.rejected_degenerate += 1
            continue
        except CheiralityError:
            stats.rejected_cheirality += 1
            continue
        err = mean_reprojection_error(point, obs)
        if err > max_reproj_px:
            stats.rejected_reprojection += 1
            continue
        kept_tracks.append(
            FeatureTrack(
                track_id=track.track_id,
                nodes=list(track.nodes),
                point_coarse=point,
                reproj_error=err,
            )
        )
        points.append(point)

    pts = np.array(points) if points else np.zeros((0, 3))
    return CoarseReconstruction(tracks=kept_tracks, points=pts, stats=stats)


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
