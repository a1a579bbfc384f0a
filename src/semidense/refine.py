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

from dataclasses import dataclass

import numpy as np

from .geometry import backproject, pinhole, pinhole_jacobian
from .matching import Cell, FineMatchQuery, MatchingFrontend
from .scene import ViewObservations
from .tracks import CoarseReconstruction, FeatureTrack

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
    Ties fall to the lowest view id, i.e. the earliest node.
    """
    if len(track.nodes) < 2:
        raise ValueError("reference selection needs a track with at least 2 nodes")
    if track.point_coarse is None:
        raise ValueError("track must be triangulated before reference selection")

    R = np.array([poses[view_id].rotation for view_id, _ in track.nodes])
    t = np.array([poses[view_id].translation for view_id, _ in track.nodes])
    centers = -(t[:, None, :] @ R)[:, 0]  # -R^T t per view
    d = track.point_coarse - centers
    rays = d / np.linalg.norm(d, axis=1, keepdims=True)
    cos = np.clip((R[:, None, 2, :] * rays[None]).sum(axis=2), -1.0, 1.0)  # (axis, ray)
    n = len(rays)
    others = np.arccos(cos)[~np.eye(n, dtype=bool)].reshape(n, n - 1)
    best_idx = 0
    best_angle = np.inf
    for idx, mean_angle in enumerate(others.mean(axis=1).tolist()):
        if mean_angle < best_angle - 1e-12:
            best_angle = mean_angle
            best_idx = idx
    return best_idx


def refine_track_nodes(
    track: FeatureTrack,
    reference_idx: int,
    matcher: MatchingFrontend,
    min_confidence: float = 0.2,
    stats: RefineStats | None = None,
) -> RefinedTrack | None:
    """Resolve every track node to sub-pixel accuracy through the fine matcher.

    The reference node is refined with a self-view query so the reference
    ray passes through the true sub-pixel feature location rather than the
    grid-cell center; without this the depth-only optimization would keep a
    lateral quantization offset that no amount of source accuracy removes.
    Source nodes below min_confidence are dropped; the whole track is
    dropped when no source survives or the reference cannot be grounded.
    """
    stats = stats if stats is not None else RefineStats()
    ref_view, ref_cell = track.nodes[reference_idx]
    ref_cell_arr = np.asarray(ref_cell, dtype=float)

    ref_result = matcher.fine_refine(
        FineMatchQuery(view_ref=ref_view, u_ref=ref_cell_arr, view_src=ref_view, cell_src=ref_cell_arr)
    )
    if ref_result.confidence < min_confidence:
        stats.dropped_tracks += 1
        return None

    sources = []
    for idx, (view_id, cell) in enumerate(track.nodes):
        if idx == reference_idx:
            continue
        res = matcher.fine_refine(
            FineMatchQuery(
                view_ref=ref_view,
                u_ref=ref_cell_arr,
                view_src=view_id,
                cell_src=np.asarray(cell, dtype=float),
            )
        )
        if res.confidence < min_confidence:
            stats.dropped_low_confidence_nodes += 1
            continue
        sources.append(
            SourceNode(view_id=view_id, cell=cell, pixel=res.pixel, confidence=res.confidence)
        )
    if not sources:
        stats.dropped_tracks += 1
        return None

    return RefinedTrack(
        track_id=track.track_id,
        ref_view=ref_view,
        ref_cell=ref_cell,
        u_ref=ref_result.pixel,
        sources=sources,
        point_init=track.point_coarse.copy(),
    )


@dataclass(frozen=True)
class DepthProblem:
    """The depth residual of one refined track, stacked once over its sources.

    A source's residual at reference depth d is its pinhole projection of
    p = d * Rray + t minus its refined pixel, where Rray is the relative
    rotation applied to the reference ray and t the relative translation.
    """

    Rray: np.ndarray     # (S, 3)
    t: np.ndarray        # (S, 3)
    fx: np.ndarray       # (S,)
    fy: np.ndarray
    cx: np.ndarray
    cy: np.ndarray
    targets: np.ndarray  # (S, 2)

    @classmethod
    def from_track(cls, rt: RefinedTrack, poses, intrinsics) -> DepthProblem:
        R_r, t_r = poses[rt.ref_view].rotation, poses[rt.ref_view].translation
        R_s = np.array([poses[s.view_id].rotation for s in rt.sources])
        t_s = np.array([poses[s.view_id].translation for s in rt.sources])
        ray = backproject(np.asarray(rt.u_ref, dtype=float), 1.0, intrinsics[rt.ref_view])
        K = [intrinsics[s.view_id] for s in rt.sources]
        return cls(
            Rray=(R_s @ R_r.T) @ ray,
            t=R_s @ (-R_r.T @ t_r) + t_s,
            fx=np.array([k.fx for k in K]),
            fy=np.array([k.fy for k in K]),
            cx=np.array([k.cx for k in K]),
            cy=np.array([k.cy for k in K]),
            targets=np.stack([s.pixel for s in rt.sources]),
        )

    def residuals(self, d: float) -> np.ndarray | None:
        """Residuals (S, 2) at depth d; None if a source sees the point behind it."""
        p = d * self.Rray + self.t
        if np.any(p[:, 2] <= 1e-12):
            return None
        return pinhole(p, self.fx, self.fy, self.cx, self.cy) - self.targets

    def jacobian(self, d: float) -> np.ndarray:
        """Analytic d(residual)/d(depth), shape (S, 2).

        Chain rule through backprojection (constant ray direction), the
        relative rigid transform, and the pinhole projection.
        """
        p = d * self.Rray + self.t
        return (pinhole_jacobian(p, self.fx, self.fy) @ self.Rray[:, :, None])[:, :, 0]

    def cost(self, d: float) -> float:
        """Sum of squared source reprojection errors at depth d (inf past cheirality)."""
        r = self.residuals(d)
        return np.inf if r is None else float(np.sum(r * r))


def optimize_depth(
    rt: RefinedTrack,
    poses,
    intrinsics,
    *,
    max_iters: int = LM_MAX_ITERS,
    rel_tol: float = LM_RELATIVE_TOL,
) -> RefinedTrack:
    """Scalar Levenberg-Marquardt on the reference depth; returns a new track.

    Initialized from the coarse point's z coordinate in the reference frame.
    Accepted steps must decrease the cost (lambda /10), rejected steps raise
    lambda x10. Flat geometry (near-zero curvature, e.g. pure rotation) and
    clamped depths are flagged non-converged.
    """
    pose_r = poses[rt.ref_view]
    problem = DepthProblem.from_track(rt, poses, intrinsics)

    d0 = float(pose_r.transform(rt.point_init)[2])
    d = d0 if d0 > 0 else MIN_DEPTH_CLAMP
    hit_clamp = d0 <= 0

    r = problem.residuals(d)
    cost = np.inf if r is None else float(np.sum(r * r))
    lam = LM_INITIAL_LAMBDA
    converged = False

    if np.isfinite(cost):
        for _ in range(max_iters):
            J = problem.jacobian(d).ravel()
            g = float(J @ r.ravel())
            H = float(J @ J)
            if H < 1e-18:
                break  # flat cost: depth unobservable from these sources
            step = -g / (H * (1.0 + lam))
            d_new = d + step
            if d_new <= 0:
                d_new = MIN_DEPTH_CLAMP
            r_new = problem.residuals(d_new)
            cost_new = np.inf if r_new is None else float(np.sum(r_new * r_new))
            if cost_new <= cost:
                hit_clamp = d_new == MIN_DEPTH_CLAMP
                decrease = cost - cost_new
                d, cost, r = d_new, cost_new, r_new
                lam = max(lam / 10.0, 1e-12)
                if decrease <= rel_tol * cost + 1e-24:
                    converged = True
                    break
            else:
                lam *= 10.0
                if lam > 1e12:
                    break

    if hit_clamp:
        converged = False

    # RMS per-source pixel error: monotone whenever the summed cost is
    n_src = len(rt.sources)
    final_cost = float(np.sqrt(cost / n_src)) if np.isfinite(cost) else np.inf
    init_r = problem.residuals(d0) if d0 > 0 else None
    initial_mean = (
        float(np.sqrt(np.sum(init_r * init_r) / n_src)) if init_r is not None else np.inf
    )

    point = pose_r.inverse().transform(backproject(rt.u_ref, d, intrinsics[rt.ref_view]))
    return RefinedTrack(
        track_id=rt.track_id,
        ref_view=rt.ref_view,
        ref_cell=rt.ref_cell,
        u_ref=rt.u_ref,
        sources=rt.sources,
        point_init=rt.point_init,
        depth=d,
        point=point,
        initial_cost=initial_mean,
        final_cost=final_cost,
        converged=converged,
    )


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
    points, coarse, fine, ids = [], [], [], []
    for rt in tracks:
        if rt.point is None:
            continue
        rows_c, rows_f = [], []
        nodes = [(rt.ref_view, rt.ref_cell)] + [(s.view_id, s.cell) for s in rt.sources]
        for view_id, cell in nodes:
            obs = observations[view_id]
            row = obs.winner_row_for_cell(cell)
            if row is None:
                continue
            rows_c.append(obs.desc_coarse[row])
            rows_f.append(obs.desc_fine[row])
        if not rows_c:
            stats.dropped_degenerate_features += 1
            continue
        mean_c = np.mean(rows_c, axis=0)
        mean_f = np.mean(rows_f, axis=0)
        nc, nf = np.linalg.norm(mean_c), np.linalg.norm(mean_f)
        if nc < 1e-8 or nf < 1e-8:
            stats.dropped_degenerate_features += 1
            continue
        points.append(rt.point)
        coarse.append(mean_c / nc)
        fine.append(mean_f / nf)
        ids.append(rt.track_id)

    if not points:
        dim_c = next(iter(observations.values())).desc_coarse.shape[1] if observations else 0
        dim_f = next(iter(observations.values())).desc_fine.shape[1] if observations else 0
        return PointCloudModel(
            points=np.zeros((0, 3)),
            coarse_features=np.zeros((0, dim_c)),
            fine_features=np.zeros((0, dim_f)),
            track_ids=np.zeros(0, dtype=int),
        )
    return PointCloudModel(
        points=np.array(points),
        coarse_features=np.array(coarse),
        fine_features=np.array(fine),
        track_ids=np.array(ids, dtype=int),
    )


def refine_reconstruction(
    recon: CoarseReconstruction,
    poses,
    intrinsics,
    matcher: MatchingFrontend,
    observations: dict[int, ViewObservations],
    min_confidence: float = 0.2,
) -> tuple[PointCloudModel, list[RefinedTrack], RefineStats]:
    """Full refinement pass over a coarse reconstruction (deterministic order)."""
    stats = RefineStats()
    refined = []
    for track in recon.tracks:
        ref_idx = select_reference_node(track, poses)
        rt = refine_track_nodes(track, ref_idx, matcher, min_confidence, stats)
        if rt is None:
            continue
        rt = optimize_depth(rt, poses, intrinsics)
        stats.non_converged += not rt.converged
        refined.append(rt)
    model = aggregate_features(refined, observations, stats)
    return model, refined, stats
