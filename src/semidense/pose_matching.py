"""Sparse-to-dense 2D-3D matching between a point-cloud model and a query image.

Coarse stage: positional encoding, interleaved self/cross linear attention,
dual-softmax matching probabilities, and mutual-nearest-neighbor selection
above a confidence threshold. Fine stage: a w x w window cropped from the
half-resolution feature map around each coarse match is correlated with the
point's fine descriptor; the sub-pixel location is the probability-weighted
expectation over the window.

Query feature maps cover a crop of the query image around the object's
box, at a bounded resolution: the oracle box (`oracle_object_box`)
stands in for a detector. A crop is a camera (`crop_camera`): it has the
view's pose and its own intrinsics, so the maps, their matches and their
pixels are in the crop's frame, and `crop_frame` takes pixels back to the
image. The maps are synthesized from the scene oracle by splatting observed
point descriptors over a random noise floor; the map container is the seam
where a learned image backbone would plug in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attention import AttentionStack, positional_encode
from .geometry import CameraIntrinsics, project_with_depth
from .refine import PointCloudModel
from .scene import GRID_STRIDE, SyntheticScene, ViewObservations, cell_winners, render_observations

FINE_STRIDE = 2

_STREAM_QUERY_MAPS = 40

DEFAULT_TAU = 0.08
DEFAULT_THETA = 0.4
DEFAULT_FINE_WINDOW = 5

# Longest side (px) of the crop that a query is matched on. The object is
# matched at a fixed resolution, as OnePose and the paper do, so a query's
# cost and its dual-softmax's number of cells do not grow with the image;
# 512 px is the image size that the published operating point is set at.
MAX_CROP_SIDE = 512


@dataclass(frozen=True, eq=False)
class QueryFeatureMaps:
    """Coarse (1/8) and fine (1/2) descriptor grids over the image of one camera.

    The camera is the query view, or a crop of it (`crop_camera`); its
    H x W image has H/8 x W/8 coarse and H/2 x W/2 fine cells, and every
    pixel the maps give is in its frame.
    """

    coarse: np.ndarray  # (H/8, W/8, C_c) unit rows
    fine: np.ndarray    # (H/2, W/2, C_f) unit rows
    intrinsics: CameraIntrinsics

    def __post_init__(self):
        if np.ndim(self.fine) != 3:
            raise ValueError(f"fine must be 3-D, got shape {np.shape(self.fine)}")
        h, w = self.intrinsics.height, self.intrinsics.width
        grids = (np.shape(self.coarse)[:2], np.shape(self.fine)[:2])
        if grids != ((h // GRID_STRIDE, w // GRID_STRIDE), (h // FINE_STRIDE, w // FINE_STRIDE)):
            raise ValueError(f"coarse, fine cover {grids} cells, not the camera's {h} x {w} px")

    def coarse_cell_pixels(self) -> np.ndarray:
        """Pixel centers of the flattened (row-major) coarse grid."""
        h, w, _ = self.coarse.shape
        cols, rows = np.meshgrid(np.arange(w), np.arange(h))
        return np.stack([cols.ravel(), rows.ravel()], axis=1) * GRID_STRIDE + GRID_STRIDE / 2.0


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
# A peak lies within 1 px of its stencil's center cell, so the 3x3 stencil's
# dropped ring would sit >= 3 px = 3 sigma from it, where g <= exp(-4.5).
FINE_SPLAT_SIGMA_PX = 1.0
_FINE_SPLAT_RADIUS_CELLS = 1


def _splat_fine(fine: np.ndarray, pixels: np.ndarray, desc: np.ndarray) -> np.ndarray:
    """Blend each row's Gaussian descriptor peak into the C-contiguous (hf, wf, C)
    fine map, in place and in row order.

    A peak updates every cell x of its 3x3 stencil, clipped to the map, to
    g*desc + (1-g)*x. Only the touched cells' rows are gathered, ranked by
    update count, most first. The updates are applied in rounds: round k
    holds the k-th update of every cell that has one, which is a prefix of
    the ranking, so no cell repeats within a round and each cell receives
    its updates in row order, with the same arithmetic as blending one row
    at a time. Returns the flat (row-major) map indices of the touched
    cells, each once in rank order.
    """
    hf, wf, cf = fine.shape
    offsets = np.arange(-_FINE_SPLAT_RADIUS_CELLS, _FINE_SPLAT_RADIUS_CELLS + 1)
    cs = np.rint(pixels[:, :1] / FINE_STRIDE).astype(int) + offsets  # (n, 3)
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
    # 16 bits or fewer, which hold maps of up to 65,536 fine cells.
    by_cell = np.argsort(cell.astype(np.min_scalar_type(hf * wf - 1)), kind="stable")
    sorted_cells = cell[by_cell]
    is_start = np.diff(sorted_cells, prepend=-1) != 0
    starts = np.flatnonzero(is_start)
    run = np.cumsum(is_start) - 1  # touched cell of each update, in cell order
    k = np.arange(len(cell)) - starts[run]  # k-th update of its cell
    counts = np.diff(starts, append=len(cell))
    top = counts.max(initial=0)
    rank = np.argsort((top - counts).astype(np.min_scalar_type(top)), kind="stable")
    slot = np.empty_like(rank)
    slot[rank] = np.arange(len(rank))
    sizes = np.bincount(k)  # round k updates the slots [0, sizes[k])
    order = np.empty_like(by_cell)
    order[(np.cumsum(sizes) - sizes)[k] + slot[run]] = by_cell
    src, g = src[order], g[order][:, None]

    cells = sorted_cells[starts[rank]]
    flat = fine.reshape(hf * wf, cf)
    x = np.take(flat, cells, axis=0)
    lo = 0
    for m in sizes:
        gk = g[lo : lo + m]
        blend = np.take(desc, src[lo : lo + m], axis=0)
        blend *= gk
        kept = x[:m]
        kept *= 1.0 - gk
        kept += blend  # (1-g)*x + g*desc: IEEE addition commutes, so the same bits
        lo += m
    flat[cells] = x
    return cells


# Rows of the unit-vector table that the fine noise floor indexes. A row's
# correlation with a descriptor does not depend on the table's size; the size
# sets only how often two fine cells share a floor row.
_FINE_FLOOR_TABLE_ROWS = 256

# Margin (px) of the oracle object box around the view's observed pixels.
OBJECT_BOX_PAD_PX = 16


def oracle_object_box(
    scene: SyntheticScene,
    view_id: int,
    fine_window: int = DEFAULT_FINE_WINDOW,
    obs: ViewObservations | None = None,
) -> tuple[int, int, int, int]:
    """The oracle's object detection in one query view: a pixel box (u0, v0, u1, v1).

    The half-open box holds every observed pixel with OBJECT_BOX_PAD_PX to
    spare, is snapped outward to the coarse grid and clipped to the image,
    then grows inside the image until its crop (crop_camera) has at least
    `fine_window` fine cells per side, so that every fine window fits. With
    no observed pixel it is the whole image. `obs` is the view's
    render_observations, when the caller has it.
    """
    _, intr = scene.views[view_id]
    n = np.array([intr.width, intr.height]) // GRID_STRIDE  # the image's coarse cells
    if obs is None:
        obs = render_observations(scene, view_id)
    if len(obs.pixels) == 0:
        lo, hi = np.zeros(2, dtype=int), n
    else:
        lo = np.floor((obs.pixels.min(axis=0) - OBJECT_BOX_PAD_PX) / GRID_STRIDE).astype(int)
        hi = np.ceil((obs.pixels.max(axis=0) + OBJECT_BOX_PAD_PX) / GRID_STRIDE).astype(int)
        lo, hi = np.maximum(lo, 0), np.minimum(hi, n)
    # the crop shrinks a box by MAX_CROP_SIDE / its long side when that is below 1
    span = max(int((hi - lo).max()) * GRID_STRIDE, MAX_CROP_SIDE)
    need = -(-fine_window * FINE_STRIDE * span // (MAX_CROP_SIDE * GRID_STRIDE))  # coarse cells
    need = np.minimum(need, n)
    lo = np.clip(lo - np.maximum(need - (hi - lo), 0) // 2, 0, n - need)
    hi = np.maximum(hi, lo + need)
    return tuple(int(x) * GRID_STRIDE for x in (*lo, *hi))


def crop_camera(intrinsics: CameraIntrinsics, box: tuple[int, int, int, int]) -> CameraIntrinsics:
    """The camera of a crop: the image's box (u0, v0, u1, v1), resized by s.

    s = min(1, MAX_CROP_SIDE / long side). The crop has the view's pose,
    intrinsics (s fx, s fy, s (cx - u0), s (cy - v0)) and the box's size
    times s, rounded up to the coarse grid: a box on the grid that fits is
    its own crop, with s = 1 and only the principal point moved.
    """
    u0, v0, u1, v1 = box
    long_side = max(u1 - u0, v1 - v0)
    s = min(1.0, MAX_CROP_SIDE / long_side)
    width, height = (
        -(-min(long_side, MAX_CROP_SIDE) * side // (GRID_STRIDE * long_side)) * GRID_STRIDE
        for side in (u1 - u0, v1 - v0)
    )
    k = intrinsics
    return CameraIntrinsics(s * k.fx, s * k.fy, s * (k.cx - u0), s * (k.cy - v0), width, height)


def crop_frame(crop: CameraIntrinsics, image: CameraIntrinsics) -> tuple[np.ndarray, np.ndarray]:
    """(s, corner) of a crop of the image: crop pixel p is image pixel p / s + corner."""
    s = np.array([crop.fx / image.fx, crop.fy / image.fy])
    return s, np.array([image.cx, image.cy]) - np.array([crop.cx, crop.cy]) / s


def query_noise_floors(
    scene: SyntheticScene, view_id: int, camera: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The random unit-vector floors of one query view's maps: (coarse, table, index).

    The maps cover the image of `camera`, the view's crop (crop_camera).
    Every coarse cell gets its own normalized Gaussian vector. The fine
    floor is a table of _FINE_FLOOR_TABLE_ROWS such vectors and a random
    index into it, one row per fine cell. All come from one generator keyed
    on (seed, view), coarse first.
    """
    hc, wc = camera.height // GRID_STRIDE, camera.width // GRID_STRIDE
    hf, wf = camera.height // FINE_STRIDE, camera.width // FINE_STRIDE
    rng = np.random.default_rng([scene.seed, _STREAM_QUERY_MAPS, view_id])
    coarse = rng.standard_normal((hc, wc, scene.desc_coarse.shape[1]))
    coarse /= np.linalg.norm(coarse, axis=2, keepdims=True)
    table = rng.standard_normal((_FINE_FLOOR_TABLE_ROWS, scene.desc_fine.shape[1]))
    table /= np.linalg.norm(table, axis=1, keepdims=True)
    return coarse, table, rng.integers(0, _FINE_FLOOR_TABLE_ROWS, size=(hf, wf))


def synthesize_query_maps(
    scene: SyntheticScene,
    view_id: int,
    fine_window: int = DEFAULT_FINE_WINDOW,
    box: tuple[int, int, int, int] | None = None,
) -> QueryFeatureMaps:
    """Splat observed descriptors onto coarse/fine grids over a noise floor, on a crop.

    The crop is crop_camera's of `box`, by default the oracle's object box
    for `fine_window` (oracle_object_box), and the maps are the crop
    camera's. Each coarse cell takes the observed descriptor of its
    front-most point, by render_observations' z-buffer (cell_winners) on the
    crop's grid. On the fine map each point spreads a Gaussian-shaped
    descriptor peak (a real feature map is smooth, so correlation decays
    with distance from the feature); nearer points are blended over farther
    ones. The fine floor is gathered once from its table; unoccupied cells
    keep their floor rows, and every fine cell a peak touched is
    renormalized. What falls outside the crop is dropped.
    """
    intr = scene.views[view_id][1]
    obs = render_observations(scene, view_id)
    if box is None:
        box = oracle_object_box(scene, view_id, fine_window, obs)
    crop = crop_camera(intr, box)
    coarse, table, index = query_noise_floors(scene, view_id, crop)
    fine = np.take(table, index, axis=0)
    s, corner = crop_frame(crop, intr)
    pixels = (obs.pixels - corner) * s

    inside = np.flatnonzero(np.all((pixels >= 0) & (pixels < [crop.width, crop.height]), axis=1))
    win = inside[cell_winners(pixels[inside], obs.depths[inside])]
    cols, rows = (pixels[win] // GRID_STRIDE).astype(int).T
    coarse[rows, cols] = obs.desc_coarse[win]

    order = np.argsort(-obs.depths)  # far first; nearer points blend over them
    touched = _splat_fine(fine, pixels[order], obs.desc_fine[order])
    flat = fine.reshape(-1, fine.shape[2])
    rows = np.take(flat, touched, axis=0)
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    flat[touched] = rows
    return QueryFeatureMaps(coarse=coarse, fine=fine, intrinsics=crop)


def shifted_softmax(x: np.ndarray, axis: int) -> np.ndarray:
    """Softmax of float array `x` along `axis`, in place; returns `x`.

    Each slice is shifted by its own max before the exp, so the largest
    entry of a slice is exp(0) = 1 and the result is exact at any finite
    span; an entry far below its slice's max only underflows to 0.
    """
    x -= x.max(axis=axis, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=axis, keepdims=True)
    return x


def dual_softmax(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax of S times its column-wise softmax, in the dtype of S.

    Raises ValueError when S is not finite.
    """
    if not (np.isfinite(scores.min()) and np.isfinite(scores.max())):
        raise ValueError("dual-softmax scores must be finite")
    prob = shifted_softmax(scores.copy(), axis=1)
    prob *= shifted_softmax(scores.copy(), axis=0)
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


# Most elements of one block of fine windows, (windows, w*w, C): blocks bound
# the crop stack and the fine attention's buffers of the same shape.
_FINE_BLOCK_ELEMENTS = 1 << 21


def fine_match_2d3d(
    model: PointCloudModel,
    query: QueryFeatureMaps,
    corr: CorrespondenceSet,
    stack: AttentionStack,
    window: int = DEFAULT_FINE_WINDOW,
    fine_tau: float = DEFAULT_TAU,
) -> CorrespondenceSet:
    """Refine each coarse match to sub-pixel by windowed softmax expectation.

    The w x w window is centered on the coarse cell in the half-resolution
    map (shifted and flagged at the map's borders); the windows
    go through the fine stack together, in (B, w*w, C) blocks of at most
    _FINE_BLOCK_ELEMENTS elements. Correlations are scaled by 1/fine_tau: the surrogate
    descriptors are unit-norm, so an unscaled softmax would flatten the
    expectation toward the window center. The block computes in float32
    when the model's fine features, the query's fine map and the stack are
    float32; the fine pixels and confidences are float64 either way. A
    window wider than the fine map raises ValueError.
    """
    if window % 2 != 1:
        raise ValueError(f"window must be odd, got {window}")
    half = window // 2
    hf, wf = query.fine.shape[:2]
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
    cf, rf = (corr.coarse_pixels // FINE_STRIDE).astype(int).T  # the matched fine cell
    c0 = np.clip(cf - half, 0, wf - window)
    r0 = np.clip(rf - half, 0, hf - window)
    cols = c0[:, None] + offsets  # (M, w)
    rows = r0[:, None] + offsets

    block = max(1, _FINE_BLOCK_ELEMENTS // (window * window * query.fine.shape[2]))
    pixels, conf = [], []
    for lo in range(0, corr.n_coarse, block):
        at = slice(lo, lo + block)
        pix, p_max = _window_expectations(
            model.fine_features[corr.coarse_points[at]], query, rows[at], cols[at], stack, fine_tau
        )
        pixels.append(pix)
        conf.append(p_max)

    out.fine_points = corr.coarse_points.astype(int)
    out.fine_pixels = np.concatenate(pixels)
    out.fine_conf = np.concatenate(conf, dtype=float)
    out.fine_clamped = (c0 != cf - half) | (r0 != rf - half)
    return out


def _window_expectations(
    features: np.ndarray,
    query: QueryFeatureMaps,
    rows: np.ndarray,
    cols: np.ndarray,
    stack: AttentionStack,
    fine_tau: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Expected pixel and peak probability of each (B, C) point feature over
    the window of fine-map rows x cols (each (B, w)) it is matched in."""
    n, window = rows.shape
    # (B, w*w, C) windows in row-major order, and (B, w*w, 2) their (u, v) pixels
    # (np.take on flat cells gathers faster than indexing the map by rows and cols)
    hf, wf, c = query.fine.shape
    cells = (rows[:, :, None] * wf + cols[:, None, :]).reshape(n, window * window)
    f2 = np.take(query.fine.reshape(hf * wf, c), cells, axis=0)
    positions = np.stack([np.tile(cols, window), np.repeat(rows, window, axis=1)], axis=2)
    positions = positions * float(FINE_STRIDE)
    f3 = features[:, None, :]  # (B, 1, C)
    if stack.n_layers > 0:
        f3, f2 = stack.transform(f3, f2)
        f3 = f3 / np.maximum(np.linalg.norm(f3, axis=-1, keepdims=True), 1e-12)
        f2 = f2 / np.maximum(np.linalg.norm(f2, axis=-1, keepdims=True), 1e-12)

    logits = (f2 @ np.swapaxes(f3, -1, -2))[:, :, 0]
    logits /= fine_tau  # in place: a float32 block stays float32
    p = shifted_softmax(logits, axis=1)
    return window_expectation(p[:, None, :], positions)[:, 0], p.max(axis=1)


def ground_truth_matches(
    model: PointCloudModel, pose, query: QueryFeatureMaps
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project model points into the maps' camera: (observable mask, cell indices, pixels).

    Cell indices address the flattened row-major coarse grid of the query
    maps, the columns of coarse_match_2d3d's scores; -1 marks a point that
    is not observable. Observable means positive depth and a projection on
    the coarse grid. Used for supervision.
    """
    pix, _, ok = project_with_depth(pose, query.intrinsics, model.points)
    h, w, _ = query.coarse.shape
    ok &= np.all(pix < [w * GRID_STRIDE, h * GRID_STRIDE], axis=1)  # sizes off the stride
    cells = np.full(len(pix), -1)
    cols, rows = (pix[ok] // GRID_STRIDE).astype(int).T
    cells[ok] = rows * w + cols
    return ok, cells, pix
