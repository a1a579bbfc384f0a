"""Supervision losses for the 2D-3D matcher, with analytic score gradients.

The coarse module is supervised with a focal loss between the dual-softmax
probability matrix and the binary ground-truth match matrix (built by
projecting observable model points into the query maps' window); the fine
module with a squared-l2 loss between predicted and ground-truth sub-pixel
locations. The total is a weighted sum. Gradients with respect to the
score matrix chain analytically through the dual-softmax.
"""

from __future__ import annotations

import numpy as np

from .pose_matching import dual_softmax, ground_truth_matches, shifted_softmax

FOCAL_ALPHA = 0.25
FOCAL_GAMMA = 2.0
PROB_EPS = 1e-6
NEGATIVE_CAP_RATIO = 10
COARSE_LOSS_WEIGHT = 1.0
FINE_LOSS_WEIGHT = 1.0


def gt_probability_matrix(model, pose, query) -> np.ndarray:
    """Binary (n_points, n_cells) coarse supervision target for one query view.

    The columns are the n_cells coarse cells of the query maps' window, as
    in coarse_match_2d3d's scores. Entry (j, q) is 1 iff model point j is
    observable under the pose and its projection falls into window cell q;
    a point projecting outside the window is unobserved.
    """
    ok, cells, _ = ground_truth_matches(model, pose, query)
    gt = np.zeros((model.n_points, query.coarse.shape[0] * query.coarse.shape[1]))
    idx = np.flatnonzero(ok)
    gt[idx, cells[idx]] = 1.0
    return gt


def select_supervision_entries(gt: np.ndarray, cap_ratio: int = NEGATIVE_CAP_RATIO):
    """Positive entries plus capped negatives from rows/columns holding positives.

    Negatives are taken in row-major order (deterministic, independent of
    the score values) and capped at cap_ratio x the positive count.
    """
    gt = np.asarray(gt)
    pos = np.argwhere(gt == 1)
    if len(pos) == 0:
        return pos, np.zeros((0, 2), dtype=int)
    pos_rows = np.unique(pos[:, 0])
    pos_cols = np.unique(pos[:, 1])
    candidate = np.zeros(gt.shape, dtype=bool)
    candidate[pos_rows, :] = True
    candidate[:, pos_cols] = True
    candidate[gt == 1] = False
    neg = np.argwhere(candidate)
    cap = cap_ratio * len(pos)
    return pos, neg[:cap]


def focal_loss(
    prob: np.ndarray,
    gt: np.ndarray,
    alpha: float = FOCAL_ALPHA,
    gamma: float = FOCAL_GAMMA,
    cap_ratio: int = NEGATIVE_CAP_RATIO,
    eps: float = PROB_EPS,
) -> float:
    """Mean focal term over ground-truth positives and sampled negatives."""
    if prob.shape != gt.shape:
        raise ValueError(f"shape mismatch: prob {prob.shape} vs gt {gt.shape}")
    pos, neg = select_supervision_entries(gt, cap_ratio)
    if len(pos) == 0:
        return 0.0
    p = np.clip(prob, eps, 1.0 - eps)
    pos_terms = -alpha * (1.0 - p[pos[:, 0], pos[:, 1]]) ** gamma * np.log(p[pos[:, 0], pos[:, 1]])
    neg_terms = -alpha * p[neg[:, 0], neg[:, 1]] ** gamma * np.log(1.0 - p[neg[:, 0], neg[:, 1]])
    return float((pos_terms.sum() + neg_terms.sum()) / (len(pos) + len(neg)))


def focal_loss_grad_prob(
    prob: np.ndarray,
    gt: np.ndarray,
    alpha: float = FOCAL_ALPHA,
    gamma: float = FOCAL_GAMMA,
    cap_ratio: int = NEGATIVE_CAP_RATIO,
    eps: float = PROB_EPS,
) -> np.ndarray:
    """d(focal loss)/d(prob); zero outside the selected entries and at clamps."""
    pos, neg = select_supervision_entries(gt, cap_ratio)
    grad = np.zeros_like(prob, dtype=float)
    if len(pos) == 0:
        return grad
    n_sel = len(pos) + len(neg)
    p = np.clip(prob, eps, 1.0 - eps)

    pi, pj = pos[:, 0], pos[:, 1]
    pp = p[pi, pj]
    grad[pi, pj] = alpha * (
        gamma * (1.0 - pp) ** (gamma - 1.0) * np.log(pp) - (1.0 - pp) ** gamma / pp
    )
    ni, nj = neg[:, 0], neg[:, 1]
    pn = p[ni, nj]
    grad[ni, nj] = alpha * (
        -gamma * pn ** (gamma - 1.0) * np.log(1.0 - pn) + pn**gamma / (1.0 - pn)
    )
    grad[(prob < eps) | (prob > 1.0 - eps)] = 0.0
    return grad / n_sel


def dual_softmax_grad(scores: np.ndarray, dloss_dprob: np.ndarray) -> np.ndarray:
    """Vector-Jacobian product of the dual-softmax: dL/dS from dL/dP.

    With r = rowsoftmax(S), c = colsoftmax(S), P = r * c:
      dL/dS = r .(g_r - sum_q g_r r |row)  +  c .(g_c - sum_j g_c c |col)
    where g_r = dL/dP * c and g_c = dL/dP * r.
    """
    r = shifted_softmax(scores.copy(), axis=1)
    c = shifted_softmax(scores.copy(), axis=0)
    g_r = dloss_dprob * c
    g_c = dloss_dprob * r
    row_part = r * (g_r - np.sum(g_r * r, axis=1, keepdims=True))
    col_part = c * (g_c - np.sum(g_c * c, axis=0, keepdims=True))
    return row_part + col_part


def l2_fine_loss(pred: np.ndarray, gt: np.ndarray) -> float:
    """Mean squared pixel distance between predicted and true fine locations."""
    pred = np.atleast_2d(np.asarray(pred, dtype=float))
    gt = np.atleast_2d(np.asarray(gt, dtype=float))
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {gt.shape}")
    if pred.shape[0] == 0:
        return 0.0
    d = pred - gt
    return float(np.mean(np.sum(d * d, axis=1)))


def total_matching_loss(
    scores: np.ndarray,
    gt_prob: np.ndarray,
    fine_pred: np.ndarray,
    fine_gt: np.ndarray,
    w_coarse: float = COARSE_LOSS_WEIGHT,
    w_fine: float = FINE_LOSS_WEIGHT,
) -> float:
    """Weighted sum of the coarse focal loss (through dual-softmax) and fine l2."""
    prob = dual_softmax(scores)
    return w_coarse * focal_loss(prob, gt_prob) + w_fine * l2_fine_loss(fine_pred, fine_gt)


def total_matching_loss_grad_scores(
    scores: np.ndarray,
    gt_prob: np.ndarray,
    w_coarse: float = COARSE_LOSS_WEIGHT,
) -> np.ndarray:
    """Analytic d(total)/d(scores); the fine term does not depend on the scores."""
    prob = dual_softmax(scores)
    return w_coarse * dual_softmax_grad(scores, focal_loss_grad_prob(prob, gt_prob))
