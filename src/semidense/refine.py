"""Track refinement: sub-pixel node refinement plus depth-only point optimization.

For each coarse track one reference node is fixed; every node is resolved
to sub-pixel accuracy by the fine matcher, and the 3D point is then
re-parameterized by the scalar depth d of the reference ray. Levenberg-
Marquardt minimizes the sum of squared distances between the refined
source locations and the reprojections of the reference ray point:

    sum_k || u_k - proj( rel_pose_k * backproject(u_ref, d) ) ||^2

The optimized depth is back-projected through the inverse reference pose
into the object frame, and per-point descriptors are aggregated by
averaging the observations along the track (coarse and fine separately).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .geometry import ViewTable, pinhole, pinhole_inverse, pinhole_jacobian
from .matching import Cell, MatchingFrontend
from .scene import ViewObservations
from .tracks import CoarseReconstruction, FeatureTrack, length_groups, node_arrays

LM_INITIAL_LAMBDA = 1e-3
LM_MAX_ITERS = 50
LM_RELATIVE_TOL = 1e-8
MIN_DEPTH_CLAMP = 1e-6


@dataclass
class SourceNode:
    view_id: int
    cell: Cell
    pixel: np.ndarray      # refined sub-pixel location
    confidence: float


@dataclass
class RefinedTrack:
    """A track after sub-pixel refinement and depth optimization."""

    track_id: int
    ref_view: int
    ref_cell: Cell
    u_ref: np.ndarray              # sub-pixel reference location (fixed in Eq. 1 terms)
    sources: list[SourceNode]
    point_init: np.ndarray         # coarse 3D point used for initialization
    depth: float = np.nan
    point: np.ndarray | None = None
    initial_cost: float = np.nan   # RMS source reprojection error (px) at d0
    final_cost: float = np.nan     # RMS error at the optimized depth
    converged: bool = False


@dataclass
class RefineStats:
    dropped_low_confidence_nodes: int = 0
    dropped_tracks: int = 0
    non_converged: int = 0
    dropped_degenerate_features: int = 0

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class PointCloudModel:
    """Refined points with aggregated per-point coarse and fine descriptors."""

    points: np.ndarray           # (M, 3)
    coarse_features: np.ndarray  # (M, C_c), unit rows
    fine_features: np.ndarray    # (M, C_f), unit rows
    track_ids: np.ndarray        # (M,)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        if self.n_points == 0:
            return np.zeros(3), np.ones(3)
        return self.points.min(axis=0), self.points.max(axis=0)


def select_reference_node(track: FeatureTrack, poses) -> int:
    """Node whose view's optical axis is most aligned with the track's viewing rays.

    For each candidate node, the mean angle between its view's optical axis
    and the rays from the other nodes' camera centers toward the coarse
    point is computed; the minimizer wins (best expected window overlap).
    Ties fall to the lowest view id, i.e. the earliest node. This is the
    one-track case of reference_nodes.
    """
    if len(track.nodes) < 2:
        raise ValueError("reference selection needs a track with at least 2 nodes")
    if track.point_coarse is None:
        raise ValueError("track must be triangulated before reference selection")
    R = np.array([poses[view_id].rotation for view_id, _ in track.nodes])
    t = np.array([poses[view_id].translation for view_id, _ in track.nodes])
    return int(reference_nodes(R[None], t[None], np.asarray(track.point_coarse)[None])[0])


def reference_nodes(R: np.ndarray, t: np.ndarray, points: np.ndarray) -> np.ndarray:
    """select_reference_node for T tracks of n nodes each: node indices (T,).

    R (T, n, 3, 3) and t (T, n, 3) are the nodes' view poses and points
    (T, 3) the coarse points. A later node wins only by more than 1e-12 rad.
    """
    T, n = t.shape[:2]
    centers = -(t[:, :, None, :] @ R)[:, :, 0]  # -R^T t per view
    d = points[:, None, :] - centers
    rays = d / np.linalg.norm(d, axis=2, keepdims=True)
    cos = np.clip((R[:, :, None, 2, :] * rays[:, None]).sum(axis=3), -1.0, 1.0)  # (axis, ray)
    others = np.arccos(cos)[:, ~np.eye(n, dtype=bool)].reshape(T, n, n - 1)
    mean_angle = others.mean(axis=2)
    best_idx = np.zeros(T, dtype=int)
    best_angle = np.full(T, np.inf)
    for idx in range(n):
        wins = mean_angle[:, idx] < best_angle - 1e-12
        best_idx[wins] = idx
        best_angle[wins] = mean_angle[wins, idx]
    return best_idx


def refine_track_nodes(
    track: FeatureTrack,
    reference_idx: int,
    matcher: MatchingFrontend,
    min_confidence: float = 0.2,
    stats: RefineStats | None = None,
) -> RefinedTrack | None:
    """Resolve every track node to sub-pixel accuracy through the fine matcher.

    The one-track case of refine_nodes.
    """
    return refine_nodes([track], [reference_idx], matcher, min_confidence, stats)[0]


def refine_nodes(
    tracks: list[FeatureTrack],
    reference_idx,
    matcher: MatchingFrontend,
    min_confidence: float = 0.2,
    stats: RefineStats | None = None,
) -> list[RefinedTrack | None]:
    """Sub-pixel refinement of every node of every track, in two batched matcher calls.

    The reference node is refined with a self-view query so the reference
    ray passes through the true sub-pixel feature location rather than the
    grid-cell center; without this the depth-only optimization would keep a
    lateral quantization offset that no amount of source accuracy removes.
    Source nodes below min_confidence are dropped; a track is dropped (None)
    when no source survives or the reference cannot be grounded, in which
    case its sources are not queried.
    """
    stats = stats if stats is not None else RefineStats()
    views, cells, offsets = node_arrays(tracks)
    ref_node = offsets[:-1] + np.asarray(reference_idx, dtype=int)
    ref_view, ref_cell = views[ref_node], cells[ref_node]
    u_ref, ref_conf = matcher.fine_refine_batch(ref_view, ref_cell, ref_view, ref_cell)
    grounded = ~(ref_conf < min_confidence)
    stats.dropped_tracks += int(np.count_nonzero(~grounded))

    # source nodes of grounded tracks, in track order
    owner = np.repeat(np.arange(len(tracks)), np.diff(offsets))
    src = np.flatnonzero(grounded[owner] & (np.arange(len(views)) != ref_node[owner]))
    pixels, conf = matcher.fine_refine_batch(
        ref_view[owner[src]], ref_cell[owner[src]], views[src], cells[src]
    )
    keep = ~(conf < min_confidence)
    stats.dropped_low_confidence_nodes += int(np.count_nonzero(~keep))
    src, pixels, conf = src[keep], pixels[keep], conf[keep].tolist()

    out: list[RefinedTrack | None] = [None] * len(tracks)
    bounds = np.searchsorted(owner[src], np.arange(len(tracks) + 1)).tolist()
    node_idx = (src - offsets[owner[src]]).tolist()  # index of each source within its track
    for i in np.flatnonzero(grounded).tolist():
        lo, hi = bounds[i], bounds[i + 1]
        if lo == hi:
            stats.dropped_tracks += 1
            continue
        track = tracks[i]
        ref_view_i, ref_cell_i = track.nodes[ref_node[i] - offsets[i]]
        out[i] = RefinedTrack(
            track_id=track.track_id,
            ref_view=ref_view_i,
            ref_cell=ref_cell_i,
            u_ref=u_ref[i],
            sources=[
                SourceNode(*track.nodes[node_idx[q]], pixel=pixels[q], confidence=conf[q])
                for q in range(lo, hi)
            ],
            point_init=track.point_coarse.copy(),
        )
    return out


@dataclass(frozen=True)
class DepthProblem:
    """The depth residual of B refined tracks with S sources each, stacked over both.

    A source's residual at reference depth d is its pinhole projection of
    p = d * Rray + t minus its refined pixel, where Rray is the relative
    rotation applied to the reference ray and t the relative translation.
    Depths d are (B,), or a scalar for every row.
    """

    Rray: np.ndarray     # (B, S, 3)
    t: np.ndarray        # (B, S, 3)
    fx: np.ndarray       # (B, S)
    fy: np.ndarray
    cx: np.ndarray
    cy: np.ndarray
    targets: np.ndarray  # (B, S, 2)

    @classmethod
    def from_track(cls, rt: RefinedTrack, poses, intrinsics) -> DepthProblem:
        """The one-track (B = 1) problem."""
        return cls.from_tracks([rt], ViewTable.stack(poses, intrinsics))

    @classmethod
    def from_tracks(cls, rts: list[RefinedTrack], table: ViewTable) -> DepthProblem:
        """The problem of tracks that all have the same number of sources."""
        ref = np.array([rt.ref_view for rt in rts], dtype=int)
        src = np.array([[s.view_id for s in rt.sources] for rt in rts], dtype=int)
        u_ref = np.array([rt.u_ref for rt in rts], dtype=float)
        R_r, t_r, R_s = table.R[ref], table.t[ref], table.R[src]
        ray = pinhole_inverse(u_ref, 1.0, *table.k(ref))
        R_rt = np.swapaxes(R_r, 1, 2)
        return cls(
            Rray=((R_s @ R_rt[:, None]) @ ray[:, None, :, None])[..., 0],
            t=(R_s @ ((-R_rt) @ t_r[:, :, None])[:, None])[..., 0] + table.t[src],
            fx=table.fx[src],
            fy=table.fy[src],
            cx=table.cx[src],
            cy=table.cy[src],
            targets=np.array([[s.pixel for s in rt.sources] for rt in rts], dtype=float),
        )

    def rows(self, idx: np.ndarray) -> DepthProblem:
        """The sub-problem of the rows idx."""
        return DepthProblem(*(getattr(self, f.name)[idx] for f in fields(self)))

    def _points(self, d) -> np.ndarray:
        return np.asarray(d, dtype=float)[..., None, None] * self.Rray + self.t

    def residuals(self, d) -> tuple[np.ndarray, np.ndarray]:
        """Residuals (B, S, 2) at depths d, and a mask (B,) of the rows all sources see in front."""
        p = self._points(d)
        front = ~np.any(p[..., 2] <= 1e-12, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            return pinhole(p, self.fx, self.fy, self.cx, self.cy) - self.targets, front

    def jacobian(self, d) -> np.ndarray:
        """Analytic d(residual)/d(depth), shape (B, S, 2).

        Chain rule through backprojection (constant ray direction), the
        relative rigid transform, and the pinhole projection.
        """
        p = self._points(d)
        return (pinhole_jacobian(p, self.fx, self.fy) @ self.Rray[..., None])[..., 0]

    def cost(self, d) -> np.ndarray:
        """Sum of squared source reprojection errors at depths d (inf past cheirality), (B,)."""
        r, front = self.residuals(d)
        return np.where(front, _sum_squares(r), np.inf)


def _sum_squares(r: np.ndarray) -> np.ndarray:
    """Per-row sum of squares of (B, S, 2) residuals, summed as one track's np.sum."""
    flat = r.reshape(len(r), 2 * r.shape[1])
    return np.sum(flat * flat, axis=1)


def optimize_depth(
    rt: RefinedTrack,
    poses,
    intrinsics,
    *,
    max_iters: int = LM_MAX_ITERS,
    rel_tol: float = LM_RELATIVE_TOL,
) -> RefinedTrack:
    """Scalar Levenberg-Marquardt on the reference depth; returns a new track.

    The one-track case of optimize_depths.
    """
    table = ViewTable.stack(poses, intrinsics)
    return optimize_depths([rt], table, max_iters=max_iters, rel_tol=rel_tol)[0]


def optimize_depths(
    rts: list[RefinedTrack],
    table: ViewTable,
    *,
    max_iters: int = LM_MAX_ITERS,
    rel_tol: float = LM_RELATIVE_TOL,
) -> list[RefinedTrack]:
    """optimize_depth for every track, batched over tracks with equal source counts."""
    counts = np.array([len(rt.sources) for rt in rts], dtype=int)
    solved: dict[int, RefinedTrack] = {}
    for n_src in sorted(set(counts.tolist())):
        idx = np.flatnonzero(counts == n_src).tolist()
        solved.update(zip(idx, _depth_lm([rts[i] for i in idx], table, max_iters, rel_tol)))
    return [solved[i] for i in range(len(rts))]


def _depth_lm(rts, table: ViewTable, max_iters: int, rel_tol: float) -> list[RefinedTrack]:
    """Levenberg-Marquardt on the reference depth of B tracks with S sources each.

    Initialized from the coarse point's z coordinate in the reference frame.
    Each row keeps its own lambda: accepted steps must not raise the cost
    (lambda /10, floored at 1e-12), rejected steps raise lambda x10 and stop
    the row above 1e12. A row stops on flat geometry (near-zero curvature,
    e.g. pure rotation) or once the cost falls by at most rel_tol. Flat and
    clamped rows are flagged non-converged.
    """
    problem = DepthProblem.from_tracks(rts, table)
    B, S = problem.fx.shape
    ref = np.array([rt.ref_view for rt in rts], dtype=int)
    R_r, t_r = table.R[ref], table.t[ref]
    R_rt = np.swapaxes(R_r, 1, 2)
    point_init = np.array([rt.point_init for rt in rts], dtype=float)

    d0 = (point_init[:, None, :] @ R_rt)[:, 0, 2] + t_r[:, 2]
    d = np.where(d0 > 0, d0, MIN_DEPTH_CLAMP)
    hit_clamp = d0 <= 0
    r, front = problem.residuals(d)
    cost = np.where(front, _sum_squares(r), np.inf)
    # RMS per-source pixel error: monotone whenever the summed cost is
    initial_cost = np.where(d0 > 0, np.sqrt(cost / S), np.inf)
    lam = np.full(B, LM_INITIAL_LAMBDA)
    converged = np.zeros(B, dtype=bool)

    active = np.flatnonzero(np.isfinite(cost))
    for _ in range(max_iters):
        if not active.size:
            break
        sub = problem.rows(active)
        J = sub.jacobian(d[active]).reshape(len(active), 2 * S)
        g = np.vecdot(J, r[active].reshape(len(active), 2 * S))
        H = np.vecdot(J, J)
        curved = ~(H < 1e-18)  # a flat cost leaves the depth unobservable
        a, sub = active[curved], sub.rows(np.flatnonzero(curved))
        d_new = d[a] - g[curved] / (H[curved] * (1.0 + lam[a]))
        d_new[d_new <= 0] = MIN_DEPTH_CLAMP
        r_new, front = sub.residuals(d_new)
        cost_new = np.where(front, _sum_squares(r_new), np.inf)

        accept = cost_new <= cost[a]
        up = a[accept]
        hit_clamp[up] = d_new[accept] == MIN_DEPTH_CLAMP
        decrease = cost[up] - cost_new[accept]
        d[up], cost[up], r[up] = d_new[accept], cost_new[accept], r_new[accept]
        lam[up] = np.maximum(lam[up] / 10.0, 1e-12)
        done = decrease <= rel_tol * cost[up] + 1e-24
        converged[up[done]] = True

        down = a[~accept]
        lam[down] *= 10.0
        active = np.sort(np.concatenate([up[~done], down[~(lam[down] > 1e12)]]))
    converged &= ~hit_clamp

    final_cost = np.sqrt(cost / S)

    u_ref = np.array([rt.u_ref for rt in rts], dtype=float)
    p_ref = pinhole_inverse(u_ref, d, *table.k(ref))
    # pose_r.inverse().transform(p_ref): p_ref @ (R_r^T)^T - R_r^T t_r, one row at a time
    t_inv = ((-R_rt) @ t_r[:, :, None])[..., 0]
    points = (p_ref[:, None, :] @ R_r)[:, 0] + t_inv
    return [
        RefinedTrack(
            track_id=rt.track_id,
            ref_view=rt.ref_view,
            ref_cell=rt.ref_cell,
            u_ref=rt.u_ref,
            sources=rt.sources,
            point_init=rt.point_init,
            depth=depth,
            point=point,
            initial_cost=initial,
            final_cost=final,
            converged=ok,
        )
        for rt, depth, point, initial, final, ok in zip(
            rts, d.tolist(), points, initial_cost.tolist(), final_cost.tolist(),
            converged.tolist(),
        )
    ]


def aggregate_features(
    tracks: list[RefinedTrack],
    observations: dict[int, ViewObservations],
    stats: RefineStats | None = None,
) -> PointCloudModel:
    """Per-point descriptors: renormalized means over the track's observations.

    Coarse and fine descriptors are averaged and stored separately. Nodes
    whose cell has no grounded observation are skipped; points whose mean
    descriptor degenerates to (near) zero norm are dropped.
    """
    stats = stats if stats is not None else RefineStats()
    tracks = [rt for rt in tracks if rt.point is not None]

    # the cell-winner row of every node of every track, the reference first
    counts = [1 + len(rt.sources) for rt in tracks]
    views = np.array(
        [v for rt in tracks for v in [rt.ref_view] + [s.view_id for s in rt.sources]], dtype=int
    )
    cells = np.array(
        [c for rt in tracks for c in [rt.ref_cell] + [s.cell for s in rt.sources]], dtype=float
    ).reshape(-1, 2)
    rows = np.full(len(views), -1)
    for v in sorted(set(views.tolist())):
        at = np.flatnonzero(views == v)
        rows[at] = observations[v].winner_rows(cells[at])
    found = rows >= 0
    n_found = np.bincount(np.repeat(np.arange(len(tracks)), counts)[found], minlength=len(tracks))

    views, rows = views[found], rows[found]
    mean_c, norm_c = _mean_descriptors(observations, "desc_coarse", views, rows, n_found)
    mean_f, norm_f = _mean_descriptors(observations, "desc_fine", views, rows, n_found)
    keep = (n_found > 0) & ~((norm_c < 1e-8) | (norm_f < 1e-8))
    stats.dropped_degenerate_features += int(np.count_nonzero(~keep))

    keep = np.flatnonzero(keep)
    return PointCloudModel(
        points=np.array([tracks[i].point for i in keep.tolist()], dtype=float).reshape(-1, 3),
        coarse_features=mean_c[keep] / norm_c[keep, None],
        fine_features=mean_f[keep] / norm_f[keep, None],
        track_ids=np.array([tracks[i].track_id for i in keep.tolist()], dtype=int),
    )


def _mean_descriptors(observations, name, views, rows, counts):
    """Per track, the mean of its nodes' descriptors `name` and that mean's norm.

    views and rows locate every node in track order, counts[i] nodes for
    track i; a track without nodes keeps a zero mean. Tracks are averaged
    in groups of equal count, and the norm uses matmul's dot as
    np.linalg.norm does, so every bit is that of the one-track arithmetic.
    """
    dim = getattr(next(iter(observations.values())), name).shape[1] if observations else 0
    desc = np.empty((len(rows), dim))
    for v in sorted(set(views.tolist())):
        at = views == v
        desc[at] = getattr(observations[v], name)[rows[at]]
    offsets = np.concatenate([[0], np.cumsum(counts)])
    mean = np.zeros((len(counts), dim))
    for n in sorted(set(counts.tolist()) - {0}):
        tracks = np.flatnonzero(counts == n)
        mean[tracks] = np.mean(desc[offsets[tracks, None] + np.arange(n)], axis=1)
    return mean, np.sqrt((mean[:, None, :] @ mean[:, :, None])[:, 0, 0])


def refine_reconstruction(
    recon: CoarseReconstruction,
    poses,
    intrinsics,
    matcher: MatchingFrontend,
    observations: dict[int, ViewObservations],
    min_confidence: float = 0.2,
) -> tuple[PointCloudModel, list[RefinedTrack], RefineStats]:
    """Full refinement pass over a coarse reconstruction (deterministic order).

    Reference selection runs batched by track length, node refinement as two
    matcher batch calls, and the depth LM batched by source count.
    """
    stats = RefineStats()
    table = ViewTable.stack(poses, intrinsics)
    tracks = recon.tracks
    if any(len(track) < 2 for track in tracks):
        raise ValueError("reference selection needs a track with at least 2 nodes")
    if any(track.point_coarse is None for track in tracks):
        raise ValueError("track must be triangulated before reference selection")
    points = np.array([track.point_coarse for track in tracks], dtype=float).reshape(-1, 3)
    views, _, offsets = node_arrays(tracks)
    ref_idx = np.zeros(len(tracks), dtype=int)
    for rows, nodes in length_groups(offsets):
        v = views[nodes]
        ref_idx[rows] = reference_nodes(table.R[v], table.t[v], points[rows])
    nodes = refine_nodes(tracks, ref_idx.tolist(), matcher, min_confidence, stats)
    refined = optimize_depths([rt for rt in nodes if rt is not None], table)
    stats.non_converged += sum(not rt.converged for rt in refined)
    model = aggregate_features(refined, observations, stats)
    return model, refined, stats
