"""Sparse-to-dense 2D-3D matching between a point-cloud model and a query image.

Coarse stage: positional encoding, interleaved self/cross linear attention,
dual-softmax matching probabilities, and mutual-nearest-neighbor selection
above a confidence threshold. Fine stage: a w x w window cropped from the
half-resolution feature map around each coarse match is correlated with the
point's fine descriptor; the sub-pixel location is the probability-weighted
expectation over the window.

Query feature maps are synthesized from the scene oracle by splatting
observed point descriptors over a random noise floor; the map container is
the seam where a learned image backbone would plug in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attention import AttentionStack, positional_encode
from .geometry import CameraIntrinsics, project_with_depth
from .refine import PointCloudModel
from .scene import GRID_STRIDE, SyntheticScene, render_observations

FINE_STRIDE = 2

_STREAM_QUERY_MAPS = 40

DEFAULT_TAU = 0.08
DEFAULT_THETA = 0.4
DEFAULT_FINE_WINDOW = 5


@dataclass(frozen=True, eq=False)
class QueryFeatureMaps:
    """Coarse (1/8) and fine (1/2) descriptor grids of one query image."""

    coarse: np.ndarray  # (H/8, W/8, C_c) unit rows
    fine: np.ndarray    # (H/2, W/2, C_f) unit rows
    intrinsics: CameraIntrinsics

    def coarse_cell_pixels(self) -> np.ndarray:
        """Pixel centers of the flattened (row-major) coarse grid."""
        h, w, _ = self.coarse.shape
        cols, rows = np.meshgrid(np.arange(w), np.arange(h))
        u = cols * GRID_STRIDE + GRID_STRIDE / 2.0
        v = rows * GRID_STRIDE + GRID_STRIDE / 2.0
        return np.stack([u.ravel(), v.ravel()], axis=1)


@dataclass
class CorrespondenceSet:
    """Coarse and fine 2D-3D matches with confidences."""

    coarse_points: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    coarse_pixels: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))
    coarse_conf: np.ndarray = field(default_factory=lambda: np.zeros(0))
    fine_points: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    fine_pixels: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))
    fine_conf: np.ndarray = field(default_factory=lambda: np.zeros(0))
    fine_clamped: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))

    @property
    def n_coarse(self) -> int:
        return len(self.coarse_points)

    @property
    def n_fine(self) -> int:
        return len(self.fine_points)


# Spatial footprint of a point's fine descriptor in the synthesized map (px).
FINE_SPLAT_SIGMA_PX = 1.0
_FINE_SPLAT_RADIUS_CELLS = 3


def _splat_fine(fine: np.ndarray, pixels: np.ndarray, desc: np.ndarray) -> np.ndarray:
    """Blend each row's Gaussian descriptor peak into `fine` in place, in row order.

    A peak updates every cell x of its clipped 7x7 stencil to
    g*desc + (1-g)*x. The updates are applied in rounds: round k holds the
    k-th update of every cell, so no cell repeats within a round and each
    cell receives its updates in row order, with the same arithmetic as
    blending one row at a time. Returns the flat (row-major) indices of the
    cells that were touched, each once.
    """
    hf, wf, cf = fine.shape
    offsets = np.arange(-_FINE_SPLAT_RADIUS_CELLS, _FINE_SPLAT_RADIUS_CELLS + 1)
    cs = np.rint(pixels[:, :1] / FINE_STRIDE).astype(int) + offsets  # (n, 7)
    rs = np.rint(pixels[:, 1:] / FINE_STRIDE).astype(int) + offsets
    du = cs * FINE_STRIDE - pixels[:, :1]
    dv = rs * FINE_STRIDE - pixels[:, 1:]
    d2 = dv[:, :, None] ** 2 + du[:, None, :] ** 2
    g = np.exp(-d2 / (2.0 * FINE_SPLAT_SIGMA_PX**2))
    inside = ((rs >= 0) & (rs < hf))[:, :, None] & ((cs >= 0) & (cs < wf))[:, None, :]
    cell = (rs[:, :, None] * wf + cs[:, None, :])[inside]  # row-major: in row order
    src = np.broadcast_to(np.arange(len(pixels))[:, None, None], inside.shape)[inside]
    g = g[inside]

    # Stable sorts on the narrowest unsigned keys: numpy radix-sorts keys of
    # 16 bits or fewer, and a 512-px image has 65,536 fine cells.
    by_cell = np.argsort(cell.astype(np.min_scalar_type(hf * wf - 1)), kind="stable")
    sorted_cells = cell[by_cell]
    pos = np.arange(len(cell))
    run_start = np.where(np.diff(sorted_cells, prepend=-1) != 0, pos, 0)
    k = pos - np.maximum.accumulate(run_start)  # k-th update of its cell
    perm = by_cell[np.argsort(k.astype(np.min_scalar_type(k.max(initial=0))), kind="stable")]
    cell, src, g = cell[perm], src[perm], g[perm][:, None]

    flat = fine.reshape(-1, cf)  # a view: `fine` is C-contiguous
    lo = 0
    for hi in np.cumsum(np.bincount(k)):
        idx = cell[lo:hi]
        gk = g[lo:hi]
        blend = np.take(desc, src[lo:hi], axis=0)
        blend *= gk
        kept = np.take(flat, idx, axis=0)
        kept *= 1.0 - gk
        blend += kept  # g*desc + (1-g)*x, products in place: same bits, one temporary fewer
        flat[idx] = blend
        lo = hi
    return cell[: np.count_nonzero(k == 0)]  # round 0 holds every touched cell once


# Rows of the unit-vector table that the fine noise floor is gathered from.
_FINE_FLOOR_TABLE_ROWS = 4096


def query_noise_floors(scene: SyntheticScene, view_id: int) -> tuple[np.ndarray, np.ndarray]:
    """The random unit-vector floors of one query view's coarse and fine maps.

    Every coarse cell gets its own normalized Gaussian vector. Every fine
    cell gets a row of a table of _FINE_FLOOR_TABLE_ROWS such vectors, picked
    by a random index per cell. Both come from one generator keyed on
    (seed, view), coarse first.
    """
    _, intr = scene.views[view_id]
    hc, wc = intr.height // GRID_STRIDE, intr.width // GRID_STRIDE
    hf, wf = intr.height // FINE_STRIDE, intr.width // FINE_STRIDE
    rng = np.random.default_rng([scene.seed, _STREAM_QUERY_MAPS, view_id])
    coarse = rng.standard_normal((hc, wc, scene.desc_coarse.shape[1]))
    coarse /= np.linalg.norm(coarse, axis=2, keepdims=True)
    table = rng.standard_normal((_FINE_FLOOR_TABLE_ROWS, scene.desc_fine.shape[1]))
    table /= np.linalg.norm(table, axis=1, keepdims=True)
    return coarse, np.take(table, rng.integers(0, _FINE_FLOOR_TABLE_ROWS, size=(hf, wf)), axis=0)


def synthesize_query_maps(scene: SyntheticScene, view_id: int) -> QueryFeatureMaps:
    """Splat observed descriptors onto coarse/fine grids over a noise floor.

    Coarse cells take their winning point's observed descriptor. On the fine
    map each point spreads a Gaussian-shaped descriptor peak (a real feature
    map is smooth, so correlation decays with distance from the feature);
    nearer points are blended over farther ones. Unoccupied cells keep
    their noise-floor unit vectors, and every fine cell a peak touched is
    renormalized.
    """
    pose, intr = scene.views[view_id]
    obs = render_observations(scene, view_id)
    coarse, fine = query_noise_floors(scene, view_id)

    win = np.flatnonzero(obs.cell_winner)
    cells = (obs.cells[win] // GRID_STRIDE).astype(int)
    coarse[cells[:, 1], cells[:, 0]] = obs.desc_coarse[win]

    depths = pose.transform(scene.points[obs.point_ids])[:, 2]
    order = np.argsort(-depths)  # far first; nearer points blend over them
    touched = _splat_fine(fine, obs.pixels[order], obs.desc_fine[order])
    flat = fine.reshape(-1, fine.shape[2])
    flat[touched] /= np.linalg.norm(flat[touched], axis=1, keepdims=True)

    return QueryFeatureMaps(coarse=coarse, fine=fine, intrinsics=intr)


# Largest span max(S) - min(S) of a score matrix that `dual_softmax` accepts.
# The one-pass form squares exp(S - max S), which stays a normal float only
# while 2 * span < -ln(smallest normal): ~354 for doubles, ~43.7 for float32.
# Unit-norm features give |S| <= 1/tau, so float64 scores admit every
# tau >= 2 / DUAL_SOFTMAX_MAX_SPAN.
DUAL_SOFTMAX_MAX_SPAN = 300.0
DUAL_SOFTMAX_MAX_SPAN_F32 = 43.0

# Smallest tau at which the coarse block runs in float32: its span bound of
# 2 / tau <= 40 leaves headroom under DUAL_SOFTMAX_MAX_SPAN_F32 for the
# rounding of float32 unit rows. Smaller taus run in float64.
COARSE_FLOAT32_MIN_TAU = 0.05


def softmax_factors(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """E = exp(S - max S) with its row sums R and column sums C, in the dtype of S.

    E/R is the row-wise and E/C the column-wise softmax of S. Raises
    ValueError when the span of S exceeds DUAL_SOFTMAX_MAX_SPAN (or
    DUAL_SOFTMAX_MAX_SPAN_F32 for float32 S), or S is not finite, where
    E**2 would leave the range of normal floats.
    """
    bound = DUAL_SOFTMAX_MAX_SPAN_F32 if scores.dtype == np.float32 else DUAL_SOFTMAX_MAX_SPAN
    top = scores.max()
    span = top - scores.min()
    if not span <= bound:
        raise ValueError(
            f"score span {span:.6g} exceeds {bound:g}: "
            "features must be unit-norm and tau >= 2 / that bound"
        )
    e = scores - top
    np.exp(e, out=e)
    return e, e.sum(axis=1, keepdims=True), e.sum(axis=0, keepdims=True)


def dual_softmax(scores: np.ndarray) -> np.ndarray:
    """Entrywise product of row-wise and column-wise softmax: E**2 / (R C) in one buffer."""
    prob, rows, cols = softmax_factors(scores)
    prob *= prob
    prob /= rows
    prob /= cols
    return prob


def mutual_nearest_neighbors(prob: np.ndarray, threshold: float) -> np.ndarray:
    """(j, q) index pairs that are each other's argmax with prob >= threshold.

    Only columns that are some row's argmax can be mutual, so the column
    argmax runs over those columns alone (whole columns: ties break as in a
    full `argmax(axis=0)`).
    """
    if prob.size == 0:
        return np.zeros((0, 2), dtype=int)
    row_best = prob.argmax(axis=1)
    cand, slot = np.unique(row_best, return_inverse=True)
    col_best = np.take(prob, cand, axis=1).argmax(axis=0)
    j = np.arange(prob.shape[0])
    keep = (col_best[slot] == j) & (prob[j, row_best] >= threshold)
    return np.stack([j[keep], row_best[keep]], axis=1)


def coarse_match_2d3d(
    model: PointCloudModel,
    query: QueryFeatureMaps,
    stack: AttentionStack,
    tau: float = DEFAULT_TAU,
    theta: float = DEFAULT_THETA,
) -> tuple[np.ndarray, np.ndarray, CorrespondenceSet]:
    """Dual-softmax coarse matching; returns (scores, probabilities, matches).

    With a zero-layer stack the raw descriptors are compared directly
    (attention bypass; positional encoding is skipped too so the purely
    geometric pipeline works without trained weights). An empty model gives
    empty correspondences, not an error. The block computes in float32 when
    the model's and the query's coarse features and the stack are float32.
    """
    n = model.n_points
    n_cells = query.coarse.shape[0] * query.coarse.shape[1]
    if n == 0:
        return (
            np.zeros((0, n_cells)),
            np.zeros((0, n_cells)),
            CorrespondenceSet(),
        )

    cell_pixels = query.coarse_cell_pixels()
    f3 = model.coarse_features
    f2 = query.coarse.reshape(-1, query.coarse.shape[2])
    if not (np.all(np.isfinite(f3)) and np.all(np.isfinite(f2))):
        raise ValueError("non-finite features")

    if stack.n_layers > 0:
        box_min, box_max = model.bbox
        f3 = positional_encode(f3, model.points, box_min=box_min, box_extent=box_max - box_min)
        f2 = positional_encode(f2, cell_pixels)
        f3, f2 = stack.transform(f3, f2)
        f3 = f3 / np.maximum(np.linalg.norm(f3, axis=1, keepdims=True), 1e-12)
        f2 = f2 / np.maximum(np.linalg.norm(f2, axis=1, keepdims=True), 1e-12)

    scores = f3 @ f2.T
    scores /= tau
    prob = dual_softmax(scores)
    pairs = mutual_nearest_neighbors(prob, theta)
    corr = CorrespondenceSet(
        coarse_points=pairs[:, 0].copy(),
        coarse_pixels=cell_pixels[pairs[:, 1]],
        coarse_conf=prob[pairs[:, 0], pairs[:, 1]],
    )
    return scores, prob, corr


def window_expectation(probabilities: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Probability-weighted mean position over a cropped window (or a stack of them)."""
    p = np.asarray(probabilities, dtype=float)
    return p @ np.asarray(positions, dtype=float)


def fine_match_2d3d(
    model: PointCloudModel,
    query: QueryFeatureMaps,
    corr: CorrespondenceSet,
    stack: AttentionStack,
    window: int = DEFAULT_FINE_WINDOW,
    fine_tau: float = DEFAULT_TAU,
) -> CorrespondenceSet:
    """Refine each coarse match to sub-pixel by windowed softmax expectation.

    The w x w crop is centered on the coarse cell in the half-resolution
    map (shifted and flagged at borders); all crops go through the fine
    stack together as one (M, w*w, C) stack. Correlations are scaled by
    1/fine_tau: the surrogate descriptors are unit-norm, so an unscaled
    softmax would flatten the expectation toward the window center. A
    window wider than the fine map raises ValueError.
    """
    if window % 2 != 1:
        raise ValueError(f"window must be odd, got {window}")
    half = window // 2
    hf, wf, _ = query.fine.shape
    if window > min(hf, wf):
        raise ValueError(f"window {window} is wider than the {hf} x {wf} fine map")
    out = CorrespondenceSet(
        coarse_points=corr.coarse_points.copy(),
        coarse_pixels=corr.coarse_pixels.copy(),
        coarse_conf=corr.coarse_conf.copy(),
    )
    if corr.n_coarse == 0:
        return out

    offsets = np.arange(window)
    cf = (corr.coarse_pixels[:, 0] // FINE_STRIDE).astype(int)
    rf = (corr.coarse_pixels[:, 1] // FINE_STRIDE).astype(int)
    c0 = np.clip(cf - half, 0, wf - window)
    r0 = np.clip(rf - half, 0, hf - window)
    cols = c0[:, None] + offsets  # (M, w)
    rows = r0[:, None] + offsets

    # (M, w*w, C) windows in row-major order, and (M, w*w, 2) their (u, v) pixels
    f2 = query.fine[rows[:, :, None], cols[:, None, :]].reshape(len(cf), window * window, -1)
    positions = np.stack(
        [np.tile(cols * FINE_STRIDE, window), np.repeat(rows * FINE_STRIDE, window, axis=1)],
        axis=2,
    ).astype(float)
    f3 = model.fine_features[corr.coarse_points][:, None, :]  # (M, 1, C)
    if stack.n_layers > 0:
        f3, f2 = stack.transform(f3, f2)
        f3 = f3 / np.maximum(np.linalg.norm(f3, axis=-1, keepdims=True), 1e-12)
        f2 = f2 / np.maximum(np.linalg.norm(f2, axis=-1, keepdims=True), 1e-12)

    logits = (f2 @ np.swapaxes(f3, -1, -2))[:, :, 0] / fine_tau
    logits -= logits.max(axis=1, keepdims=True)
    p = np.exp(logits)
    p /= p.sum(axis=1, keepdims=True)

    out.fine_points = corr.coarse_points.astype(int)
    out.fine_pixels = window_expectation(p[:, None, :], positions)[:, 0]
    out.fine_conf = p.max(axis=1)
    out.fine_clamped = (c0 != cf - half) | (r0 != rf - half)
    return out


def ground_truth_matches(
    model: PointCloudModel,
    pose,
    intrinsics: CameraIntrinsics,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project model points; return (observable mask, cell indices, pixels).

    Cell indices address the flattened row-major coarse grid; observability
    means positive depth and in-bounds projection. Used for supervision.
    """
    pix, _, ok = project_with_depth(pose, intrinsics, model.points)
    wc = intrinsics.width // GRID_STRIDE
    cols = np.clip((pix[:, 0] // GRID_STRIDE).astype(int), 0, wc - 1)
    rows = np.clip(
        (pix[:, 1] // GRID_STRIDE).astype(int), 0, intrinsics.height // GRID_STRIDE - 1
    )
    cells = rows * wc + cols
    cells[~ok] = -1
    return ok, cells, pix
