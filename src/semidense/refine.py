"""Track refinement: sub-pixel node refinement plus depth-only point optimization.

For each coarse track one reference node is fixed; every node is resolved
to sub-pixel accuracy by the fine matcher, and the 3D point is then
re-parameterized by the scalar depth d of the reference ray. Levenberg-
Marquardt minimizes the sum of squared distances between the refined
source locations and the reprojections of the reference ray point:

    sum_k || u_k - pinhole( rel_pose_k * pinhole_inverse(u_ref, d) ) ||^2

The optimized depth is back-projected through the inverse reference pose
into the object frame, and per-point descriptors are aggregated by
averaging the observations along the track (coarse and fine separately).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .geometry import ViewTable, pinhole, pinhole_inverse, pinhole_jacobian, size_runs
from .matching import OracleMatcher
from .scene import ViewObservations
from .tracks import CoarseReconstruction, Tracks, TrackTable

LM_INITIAL_LAMBDA = 1e-3
LM_MAX_ITERS = 50
LM_RELATIVE_TOL = 1e-8
MIN_DEPTH_CLAMP = 1e-6


@dataclass(frozen=True, eq=False)
class RefinedTracks(TrackTable):
    """Refined tracks as row ranges of one node table, the reference node first.

    A node's pixel is its refined sub-pixel location (u_ref for the
    reference) and its confidence that of its fine query. The columns after
    offsets are the depth LM's: NaN, and converged False, before it runs.
    """

    track_ids: np.ndarray       # (T,)
    point_init: np.ndarray      # (T, 3) coarse points
    views: np.ndarray           # (N,)
    cells: np.ndarray           # (N, 2)
    pixels: np.ndarray          # (N, 2)
    confidences: np.ndarray     # (N,)
    offsets: np.ndarray         # (T + 1,)
    depths: np.ndarray          # (T,)
    points: np.ndarray          # (T, 3)
    initial_costs: np.ndarray   # (T,)
    final_costs: np.ndarray     # (T,)
    converged: np.ndarray       # (T,) bool

    NODE_FIELDS = ("views", "cells", "pixels", "confidences")


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


def select_reference_node(tracks: Tracks, R: np.ndarray, t: np.ndarray) -> np.ndarray:
    """One reference node index per track, (T,): the node most aligned with its viewing rays.

    For each candidate node, the mean angle between its view's optical axis
    and the rays from the other nodes' camera centers toward the coarse
    point is computed; the minimizer wins (best expected window overlap).
    A later node wins only by more than 1e-12 rad, so ties fall to the
    lowest view id. R (V, 3, 3) and t (V, 3) are the views' poses. Returns
    node indices within each track, computed per track length.
    """
    lengths = np.diff(tracks.offsets)
    if np.any(lengths < 2):
        raise ValueError("reference selection needs a track with at least 2 nodes")
    if np.isnan(tracks.points).any():
        raise ValueError("track must be triangulated before reference selection")
    best_idx = np.zeros(len(tracks), dtype=int)
    order = np.argsort(lengths, kind="stable")
    for n, s in size_runs(lengths[order]):
        rows = order[s]
        T, nodes = len(rows), tracks.offsets[rows, None] + np.arange(n)
        R_n, t_n = R[tracks.views[nodes]], t[tracks.views[nodes]]  # (T, n, 3, 3), (T, n, 3)
        centers = -(t_n[:, :, None, :] @ R_n)[:, :, 0]  # -R^T t per view
        d = tracks.points[rows, None, :] - centers
        rays = d / np.linalg.norm(d, axis=2, keepdims=True)
        cos = np.clip((R_n[:, :, None, 2, :] * rays[:, None]).sum(axis=3), -1.0, 1.0)  # (axis, ray)
        others = np.arccos(cos)[:, ~np.eye(n, dtype=bool)].reshape(T, n, n - 1)
        mean_angle = others.mean(axis=2)
        best_angle = np.full(T, np.inf)
        for idx in range(n):
            wins = mean_angle[:, idx] < best_angle - 1e-12
            best_idx[rows[wins]] = idx
            best_angle[wins] = mean_angle[wins, idx]
    return best_idx


def refine_track_nodes(
    tracks: Tracks,
    reference_idx,
    matcher: OracleMatcher,
    min_confidence: float = 0.2,
    stats: RefineStats | None = None,
) -> RefinedTracks:
    """Sub-pixel refinement of every node of every track, in one batched matcher call.

    The reference node is refined with a self-view query so the reference
    ray passes through the true sub-pixel feature location rather than the
    grid-cell center; without this the depth-only optimization would keep a
    lateral quantization offset that no amount of source accuracy removes.
    Source nodes below min_confidence are dropped; a track is dropped when
    no source survives or the reference cannot be grounded, in which case
    its sources are queried but dropped too. Returns the surviving tracks,
    in order.
    """
    stats = stats if stats is not None else RefineStats()
    views, cells, offsets = tracks.views, tracks.cells, tracks.offsets
    owner = np.repeat(np.arange(len(tracks)), np.diff(offsets))
    ref_node = offsets[:-1] + np.asarray(reference_idx, dtype=int)
    # a node that is its own track's reference makes the self-view query
    pixels, conf = matcher.fine_refine(views[ref_node][owner], cells[ref_node][owner], views, cells)
    grounded = ~(conf[ref_node] < min_confidence)
    stats.dropped_tracks += int(np.count_nonzero(~grounded))

    is_ref = np.arange(len(views)) == ref_node[owner]
    src = grounded[owner] & ~is_ref
    low = src & (conf < min_confidence)
    stats.dropped_low_confidence_nodes += int(np.count_nonzero(low))
    src &= ~low
    n_src = np.bincount(owner[src], minlength=len(tracks))
    stats.dropped_tracks += int(np.count_nonzero(grounded & (n_src == 0)))

    kept = np.flatnonzero(n_src > 0)
    # the nodes of the kept tracks, by track, each track's reference first
    nodes = np.flatnonzero((src | is_ref) & (n_src > 0)[owner])
    nodes = nodes[np.argsort(2 * owner[nodes] + src[nodes], kind="stable")]
    return RefinedTracks(
        track_ids=tracks.track_ids[kept],
        point_init=tracks.points[kept],
        views=views[nodes],
        cells=cells[nodes],
        pixels=pixels[nodes],
        confidences=conf[nodes],
        offsets=np.concatenate([[0], np.cumsum(1 + n_src[kept])]),
        depths=np.full(len(kept), np.nan),
        points=np.full((len(kept), 3), np.nan),
        initial_costs=np.full(len(kept), np.nan),
        final_costs=np.full(len(kept), np.nan),
        converged=np.zeros(len(kept), dtype=bool),
    )


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
    def from_nodes(cls, views: np.ndarray, pixels: np.ndarray, table: ViewTable) -> DepthProblem:
        """The problem of B tracks of n nodes each: views (B, n), pixels (B, n, 2).

        A track's nodes are its reference, then its sources.
        """
        ref, src = views[:, 0], views[:, 1:]
        R_r, t_r, R_s = table.R[ref], table.t[ref], table.R[src]
        ray = pinhole_inverse(pixels[:, 0], 1.0, *table.k(ref))
        R_rt = np.swapaxes(R_r, 1, 2)
        return cls(
            Rray=((R_s @ R_rt[:, None]) @ ray[:, None, :, None])[..., 0],
            t=(R_s @ ((-R_rt) @ t_r[:, :, None])[:, None])[..., 0] + table.t[src],
            fx=table.fx[src],
            fy=table.fy[src],
            cx=table.cx[src],
            cy=table.cy[src],
            targets=pixels[:, 1:],
        )

    def rows(self, idx: np.ndarray) -> DepthProblem:
        """The sub-problem of the rows idx."""
        return DepthProblem(
            self.Rray[idx], self.t[idx], self.fx[idx], self.fy[idx], self.cx[idx], self.cy[idx],
            self.targets[idx],
        )

    def _points(self, d) -> np.ndarray:
        return np.asarray(d, dtype=float)[..., None, None] * self.Rray + self.t

    def residuals(self, d) -> tuple[np.ndarray, np.ndarray]:
        """Residuals (B, S, 2) at depths d, and a mask (B,) of the rows all sources see in front.

        A source at depth 0 divides by zero: callers that reach one enter np.errstate.
        """
        p = self._points(d)
        front = ~np.any(p[..., 2] <= 1e-12, axis=1)
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
        with np.errstate(divide="ignore", invalid="ignore"):
            r, front = self.residuals(d)
        return np.where(front, _sum_squares(r), np.inf)


def _sum_squares(r: np.ndarray) -> np.ndarray:
    """Per-row sum of squares of (B, S, 2) residuals, summed as one track's np.sum."""
    flat = r.reshape(len(r), 2 * r.shape[1])
    return np.sum(flat * flat, axis=1)


def optimize_depth(
    rts: RefinedTracks,
    table: ViewTable,
    *,
    max_iters: int = LM_MAX_ITERS,
    rel_tol: float = LM_RELATIVE_TOL,
) -> RefinedTracks:
    """The depth LM of every track, as one lock-step loop over all of them.

    Levenberg-Marquardt on the reference depth, initialized from the coarse
    point's z coordinate in the reference frame. Each row keeps its own
    lambda: accepted steps must not raise the cost (lambda /10, floored at
    1e-12), rejected steps raise lambda x10 and stop the row above 1e12. A
    row stops on flat geometry (near-zero curvature, e.g. pure rotation) or
    once the cost falls by at most rel_tol. Flat and clamped rows are
    flagged non-converged.

    Every active row steps in one loop over one problem, its sources padded
    to the largest count with ViewTable's padding camera, a row's k-th step
    at iteration k. The active rows are kept sorted by source count, so the
    sums over a row's 2 S residuals (g, H and the cost) run per count on
    exactly those entries, and every row equals its solve in a table of its
    own bit for bit. Returns the table, in its order, with the LM's columns filled in.
    """
    S = np.diff(rts.offsets) - 1
    width = int(S.max(initial=0)) + 1  # from_nodes reads a reference column
    problem = DepthProblem.from_nodes(
        rts.padded("views", width, fill=-1), rts.padded("pixels", width), table
    )
    ref = rts.views[rts.offsets[:-1]]
    R_r, t_r = table.R[ref], table.t[ref]
    R_rt = np.swapaxes(R_r, 1, 2)

    d0 = (rts.point_init[:, None, :] @ R_rt)[:, 0, 2] + t_r[:, 2]
    d = np.where(d0 > 0, d0, MIN_DEPTH_CLAMP)
    hit_clamp = d0 <= 0
    active = np.argsort(S, kind="stable")
    with np.errstate(all="ignore"):  # rows that fail are masked out
        r, front = problem.residuals(d)
        cost = np.full(len(d), np.inf)
        sums = _segment_sums(r[active], size_runs(S[active]))
        cost[active] = np.where(front[active], sums, np.inf)
        # RMS per-source pixel error: monotone whenever the summed cost is
        initial_cost = np.where(d0 > 0, np.sqrt(cost / S), np.inf)
        lam = np.full(len(d), LM_INITIAL_LAMBDA)
        converged = np.zeros(len(d), dtype=bool)

        active = active[np.isfinite(cost[active])]
        for _ in range(max_iters):
            if not active.size:
                break
            segments = size_runs(S[active])
            sub, d_a, r_a = problem.rows(active), d[active], r[active]
            J = sub.jacobian(d_a)
            g, H = np.empty(len(active)), np.empty(len(active))
            for m, rows in segments:
                J_m = J[rows, :m].reshape(-1, 2 * m)
                g[rows] = np.vecdot(J_m, r_a[rows, :m].reshape(-1, 2 * m))
                H[rows] = np.vecdot(J_m, J_m)
            curved = ~(H < 1e-18)  # a flat cost leaves the depth unobservable
            d_new = np.where(curved, d_a - g / (H * (1.0 + lam[active])), d_a)
            d_new[d_new <= 0] = MIN_DEPTH_CLAMP
            r_new, front = sub.residuals(d_new)
            cost_new = np.where(front, _segment_sums(r_new, segments), np.inf)

            accept = curved & (cost_new <= cost[active])
            up = active[accept]
            hit_clamp[up] = d_new[accept] == MIN_DEPTH_CLAMP
            decrease = cost[up] - cost_new[accept]
            d[up], cost[up], r[up] = d_new[accept], cost_new[accept], r_new[accept]
            lam[up] = np.maximum(lam[up] / 10.0, 1e-12)
            done = decrease <= rel_tol * cost[up] + 1e-24
            converged[up[done]] = True

            reject = curved & ~accept
            down = active[reject]
            lam[down] *= 10.0
            keep = np.zeros(len(active), dtype=bool)
            keep[accept], keep[reject] = ~done, ~(lam[down] > 1e12)
            active = active[keep]
    converged &= ~hit_clamp

    p_ref = pinhole_inverse(rts.pixels[rts.offsets[:-1]], d, *table.k(ref))
    # pose_r.inverse().transform(p_ref): p_ref @ (R_r^T)^T - R_r^T t_r, one row at a time
    t_inv = ((-R_rt) @ t_r[:, :, None])[..., 0]
    points = (p_ref[:, None, :] @ R_r)[:, 0] + t_inv
    return replace(
        rts, depths=d, points=points, initial_costs=initial_cost, final_costs=np.sqrt(cost / S),
        converged=converged,
    )


def _segment_sums(r: np.ndarray, segments) -> np.ndarray:
    """_sum_squares of every row of padded (B, S_max, 2) residuals over its own m sources.

    segments are size_runs' (m, rows) covering every row.
    """
    out = np.empty(len(r))
    for m, rows in segments:
        out[rows] = _sum_squares(r[rows, :m])
    return out


def aggregate_features(
    refined: RefinedTracks,
    observations: dict[int, ViewObservations],
    stats: RefineStats | None = None,
) -> PointCloudModel:
    """Per-point descriptors: renormalized means over the track's observations.

    Coarse and fine descriptors are averaged and stored separately, the
    reference node first. Tracks without a point (a NaN row) are skipped;
    nodes whose cell has no grounded observation are skipped; points whose
    mean descriptor degenerates to (near) zero norm are dropped.
    """
    stats = stats if stats is not None else RefineStats()
    tracks = refined.take(np.flatnonzero(~np.isnan(refined.points).any(axis=1)))

    # the cell-winner row of every node of every track
    rows = np.full(len(tracks.views), -1)
    for v in sorted(set(tracks.views.tolist())):
        at = np.flatnonzero(tracks.views == v)
        rows[at] = observations[v].winner_rows(tracks.cells[at])
    found = rows >= 0
    owner = np.repeat(np.arange(len(tracks)), np.diff(tracks.offsets))
    n_found = np.bincount(owner[found], minlength=len(tracks))

    views, rows = tracks.views[found], rows[found]
    mean_c, norm_c = _mean_descriptors(observations, "desc_coarse", views, rows, n_found)
    mean_f, norm_f = _mean_descriptors(observations, "desc_fine", views, rows, n_found)
    keep = (n_found > 0) & ~((norm_c < 1e-8) | (norm_f < 1e-8))
    stats.dropped_degenerate_features += int(np.count_nonzero(~keep))

    keep = np.flatnonzero(keep)
    return PointCloudModel(
        points=tracks.points[keep],
        coarse_features=mean_c[keep] / norm_c[keep, None],
        fine_features=mean_f[keep] / norm_f[keep, None],
        track_ids=tracks.track_ids[keep],
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
    mean = np.zeros((len(counts), dim))
    starts = np.cumsum(counts) - counts
    order = np.argsort(counts, kind="stable")
    for n, s in size_runs(counts[order]):
        if n:
            rows = order[s]
            mean[rows] = np.mean(desc[starts[rows, None] + np.arange(n)], axis=1)
    return mean, np.sqrt((mean[:, None, :] @ mean[:, :, None])[:, 0, 0])


def refine_reconstruction(
    recon: CoarseReconstruction,
    poses,
    intrinsics,
    matcher: OracleMatcher,
    observations: dict[int, ViewObservations],
    min_confidence: float = 0.2,
) -> tuple[PointCloudModel, RefinedTracks, RefineStats]:
    """Full refinement pass over a coarse reconstruction (deterministic order).

    Reference selection runs batched by track length, node refinement as one
    matcher batch call, and the depth LM as one lock-step loop over all tracks.
    """
    stats = RefineStats()
    table = ViewTable.stack(poses, intrinsics)
    ref_idx = select_reference_node(recon.tracks, table.R, table.t)
    nodes = refine_track_nodes(recon.tracks, ref_idx, matcher, min_confidence, stats)
    refined = optimize_depth(nodes, table)
    stats.non_converged += int(np.count_nonzero(~refined.converged))
    model = aggregate_features(refined, observations, stats)
    return model, refined, stats
