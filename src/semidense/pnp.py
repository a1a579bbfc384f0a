"""Perspective-n-Point pose recovery: EPnP candidates inside adaptive RANSAC.

The minimal solver is a control-point (EPnP-style) solve for n >= 4 with a
homography-decomposition fallback for (near-)coplanar point sets; each set
gets one candidate per beta initialisation (EPnP's cases N = 1, 2, 3), each
refined by Gauss-Newton. RANSAC hypothesizes on random 4-subsets, solved a
chunk at a time as one stacked EPnP, and scores every valid candidate as
solved (there is no per-sample ranking) by reprojection error with a
cheirality gate. It adapts its iteration count from the best inlier ratio,
then polishes the best hypothesis once with Levenberg-Marquardt on Tukey's
biweight of the reprojection error over all points, at scale inlier_px:
a smooth robust cost, so the pose moves continuously with its matches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    MIN_DEPTH,
    CameraIntrinsics,
    SE3Pose,
    pinhole,
    pinhole_jacobian,
    rotation_checks,
    rotation_from_rotvec,
)

DEFAULT_INLIER_PX = 3.0
DEFAULT_MAX_ITERS = 10000
DEFAULT_CONFIDENCE = 0.99
# RANSAC samples solved together in the first chunk; later chunks double.
# Well-matched queries stop after ~2 hypotheses, so a larger first chunk
# mostly solves samples that are never consumed.
_FIRST_CHUNK = 2

# control-point pairs (a, b) for the six pairwise distances
_PAIR_A = np.array([0, 0, 0, 1, 1, 2])
_PAIR_B = np.array([1, 2, 3, 2, 3, 3])


@dataclass
class PnPResult:
    pose: SE3Pose | None
    inliers: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    mean_error: float = np.inf
    iterations: int = 0

    @property
    def ok(self) -> bool:
        return self.pose is not None


def _reprojection_errors(R, t, intr, points, pixels):
    """Pixel errors of (..., 3, 3)/(..., 3) poses on (..., n) correspondences; inf behind."""
    p_cam = points @ np.swapaxes(R, -1, -2) + t[..., None, :]
    ok = p_cam[..., 2] > MIN_DEPTH
    pix = pinhole(np.where(ok[..., None], p_cam, 1.0), intr.fx, intr.fy, intr.cx, intr.cy)
    d = pix - pixels
    return np.where(ok, np.hypot(d[..., 0], d[..., 1]), np.inf)


def _umeyama_rigid(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares rigid transforms mapping (..., n, 3) src onto dst (no scale)."""
    mu_s = src.mean(axis=-2)
    mu_d = dst.mean(axis=-2)
    cov = np.swapaxes(dst - mu_d[..., None, :], -1, -2) @ (src - mu_s[..., None, :])
    U, _, Vt = np.linalg.svd(cov / src.shape[-2])
    U[..., 2] *= np.sign(np.linalg.det(U @ Vt))[..., None]
    R = U @ Vt
    return R, mu_d - (R @ mu_s[..., None])[..., 0]


def _control_points(points: np.ndarray) -> np.ndarray:
    """Centroid plus principal directions scaled by the data spread, per set."""
    c0 = points.mean(axis=1, keepdims=True)
    centered = points - c0
    cov = np.swapaxes(centered, 1, 2) @ centered / points.shape[1]
    eigval, eigvec = np.linalg.eigh(cov)
    axes = np.swapaxes(eigvec[:, :, ::-1], 1, 2)  # rows: principal directions, largest first
    scale = np.sqrt(np.maximum(eigval[:, ::-1], 1e-12))
    return np.concatenate([c0, c0 + scale[:, :, None] * axes], axis=1)


def _barycentric(points: np.ndarray, ctrl: np.ndarray) -> np.ndarray:
    basis = np.swapaxes(ctrl[:, 1:] - ctrl[:, :1], 1, 2)  # (B, 3, 3)
    beta = np.swapaxes(
        np.linalg.solve(basis, np.swapaxes(points - ctrl[:, :1], 1, 2)), 1, 2
    )
    return np.concatenate([1.0 - beta.sum(axis=2, keepdims=True), beta], axis=2)


def _epnp_m_matrix(alpha, pixels, intr):
    B, n = pixels.shape[:2]
    M = np.zeros((B, n, 2, 4, 3))  # (set, point, u/v row, ctrl, xyz)
    M[:, :, 0, :, 0] = alpha * intr.fx
    M[:, :, 0, :, 2] = alpha * (intr.cx - pixels[:, :, :1])
    M[:, :, 1, :, 1] = alpha * intr.fy
    M[:, :, 1, :, 2] = alpha * (intr.cy - pixels[:, :, 1:])
    return M.reshape(B, 2 * n, 12)


def _beta_gauss_newton(betas, G, rho, iters=12):
    """Refine kernel coefficients on control-point distance consistency.

    betas is (B, K, 4), G the (B, 6, 4, 4) quadratic forms with the pairwise
    residuals f_p = beta^T G_p beta - rho_p; the Jacobian is 2 G_p beta.
    Every row takes the same fixed number of steps.
    """
    b = betas.copy()
    ridge = 1e-12 * np.eye(4)
    for _ in range(iters):
        Gb = (G[:, None] @ b[:, :, None, :, None])[..., 0]  # (B, K, 6, 4)
        f = (Gb * b[:, :, None, :]).sum(axis=3) - rho[:, None]
        J = 2.0 * Gb
        Jt = np.swapaxes(J, 2, 3)
        A, rhs = Jt @ J + ridge, -(Jt @ f[..., None])
        try:
            step = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError:  # an exactly singular row takes the least-squares step
            step = np.linalg.pinv(A) @ rhs
        b += step[..., 0]
    return b


def _relinearized_products(G, rho, n_kernel):
    """Least-squares fit of the products beta_a beta_b (a <= b < n_kernel), per set, row-major."""
    combos = [(a, b) for a in range(n_kernel) for b in range(a, n_kernel)]
    L = np.stack([G[:, :, a, b] * (1.0 if a == b else 2.0) for a, b in combos], axis=2)
    # minimum-norm least squares with numpy lstsq's default singular-value cutoff
    sol = np.linalg.pinv(L, rcond=max(L.shape[1:]) * np.finfo(float).eps) @ rho[:, :, None]
    return sol[..., 0]


def _epnp(
    points: np.ndarray, pixels: np.ndarray, intr: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """EPnP on a stack of B non-planar sets: points (B, n, 3), pixels (B, n, 2).

    Returns rotations (B, 3, 3, 3), translations (B, 3, 3) and a validity
    mask (B, 3), one candidate per beta initialisation in a fixed order: a
    scale fit on the first kernel vector, then the relinearized fits over
    two and three kernel vectors.
    """
    B = len(points)
    ctrl_w = _control_points(points)
    alpha = _barycentric(points, ctrl_w)
    M = _epnp_m_matrix(alpha, pixels, intr)
    _, _, vt = np.linalg.svd(np.swapaxes(M, 1, 2) @ M)
    V = vt[:, ::-1][:, :4].reshape(B, 4, 4, 3)  # (set, kernel idx, ctrl idx, xyz), smallest first

    dv = V[:, :, _PAIR_A] - V[:, :, _PAIR_B]  # (B, 4, 6, 3)
    rho = np.sum((ctrl_w[:, _PAIR_A] - ctrl_w[:, _PAIR_B]) ** 2, axis=2)  # (B, 6)
    G = np.einsum("bkpc,blpc->bpkl", dv, dv)  # (B, 6, 4, 4) pairwise quadratic forms

    # case-N approximate betas, each refined by Gauss-Newton on the full 4-vector
    denom = G[:, :, 0, 0].sum(axis=1)
    fits = denom > 1e-18
    beta = np.zeros((B, 4))
    beta[:, 0] = np.sum(np.sqrt(G[:, :, 0, 0]) * np.sqrt(rho), axis=1) / np.where(fits, denom, 1.0)
    inits, usable = [beta], [fits]
    for n_kernel in (2, 3):
        sol = _relinearized_products(G, rho, n_kernel)
        b11 = sol[:, 0]
        beta = np.zeros((B, 4))
        beta[:, 0] = np.sqrt(np.abs(b11))
        lead = beta[:, :1] > 1e-12
        beta[:, 1:n_kernel] = np.where(
            lead, sol[:, 1:n_kernel] / np.where(lead, beta[:, :1], 1.0) * np.sign(b11)[:, None], 0.0
        )
        inits.append(beta)
        usable.append(np.ones(B, dtype=bool))

    beta = _beta_gauss_newton(np.stack(inits, axis=1), G, rho)
    ctrl_c = np.einsum("bkj,bjcx->bkcx", beta, V)
    pts_cam = alpha[:, None] @ ctrl_c  # (B, K, n, 3)
    pts_cam = np.where((pts_cam[..., 2].mean(axis=2) < 0)[..., None, None], -pts_cam, pts_cam)
    ok = (
        np.stack(usable, axis=1)
        & np.all(pts_cam[..., 2] > MIN_DEPTH, axis=2)
        & np.all(np.isfinite(pts_cam), axis=(2, 3))
    )
    R, t = _umeyama_rigid(points[:, None], np.where(ok[..., None, None], pts_cam, 0.0))
    return R, t, ok & np.logical_and(*rotation_checks(R))


def _homography_pose(
    points: np.ndarray, pixels: np.ndarray, intr: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pose for coplanar points via a normalized-DLT homography decomposition.

    Returns the two sign candidates as rotations (2, 3, 3), translations
    (2, 3) and a validity mask (2,).
    """
    c0 = points.mean(axis=0)
    centered = points - c0
    _, _, vt = np.linalg.svd(centered)
    E = vt.T  # columns: in-plane e1, e2, normal e3
    if np.linalg.det(E) < 0:
        E = E.copy()
        E[:, 2] = -E[:, 2]  # keep a right-handed plane frame
    plane_xy = centered @ E[:, :2]

    norm_img = np.array(
        [(pixels[:, 0] - intr.cx) / intr.fx, (pixels[:, 1] - intr.cy) / intr.fy]
    ).T

    def hartley(pts2d):
        mu = pts2d.mean(axis=0)
        rms = np.sqrt(np.mean(np.sum((pts2d - mu) ** 2, axis=1)))
        s = np.sqrt(2.0) / max(rms, 1e-12)
        T = np.array([[s, 0, -s * mu[0]], [0, s, -s * mu[1]], [0, 0, 1.0]])
        return T

    Ts, Td = hartley(plane_xy), hartley(norm_img)
    src = np.column_stack([plane_xy, np.ones(len(points))]) @ Ts.T
    dst = np.column_stack([norm_img, np.ones(len(points))]) @ Td.T

    A = []
    for (x, y, _), (u, v, _) in zip(src, dst):
        A.append([-x, -y, -1, 0, 0, 0, u * x, u * y, u])
        A.append([0, 0, 0, -x, -y, -1, v * x, v * y, v])
    _, _, vt_h = np.linalg.svd(np.array(A))
    H = np.linalg.inv(Td) @ vt_h[-1].reshape(3, 3) @ Ts

    h1, h2, h3 = H[:, 0], H[:, 1], H[:, 2]
    lam = 2.0 / max(np.linalg.norm(h1) + np.linalg.norm(h2), 1e-12)

    rotations, translations = np.zeros((2, 3, 3)), np.zeros((2, 3))
    for i, sign in enumerate((1.0, -1.0)):
        r1, r2 = sign * lam * h1, sign * lam * h2
        R_raw = np.column_stack([r1, r2, np.cross(r1, r2)])
        U, _, Vt = np.linalg.svd(R_raw)
        R_p = U @ np.diag([1.0, 1.0, np.sign(np.linalg.det(U @ Vt))]) @ Vt
        t_p = sign * lam * h3
        rotations[i] = R_p @ E.T
        translations[i] = t_p - rotations[i] @ c0
    z = points @ rotations[:, 2].T + translations[:, 2]  # (n, 2)
    valid = np.logical_and(*rotation_checks(rotations)) & np.all(z > MIN_DEPTH, axis=0)
    return rotations, translations, valid


def _candidates(points, pixels, intr):
    """Raw candidate poses for B correspondence sets: points (B, n, 3), pixels (B, n, 2).

    Collinear and non-finite sets are rejected, (near-)coplanar sets take the
    homography route, and the rest are solved together by EPnP. Returns
    rotations (B, K, 3, 3), translations (B, K, 3) and a validity mask
    (B, K); a rejected set has no valid candidate.
    """
    B = len(points)
    finite = np.isfinite(points).all(axis=(1, 2)) & np.isfinite(pixels).all(axis=(1, 2))
    s = np.zeros((B, 3))  # sets that are not finite keep s = 0 and so count as collinear
    if finite.any():
        centered = points[finite] - points[finite].mean(axis=1, keepdims=True)
        s[finite] = np.linalg.svd(centered, compute_uv=False)
    rejected = s[:, 1] <= 1e-8 * s[:, 0]
    planar = ~rejected & (s[:, 2] <= 1e-3 * s[:, 0])
    general = ~rejected & ~planar

    K = 3  # EPnP beta initialisations; the homography fills two slots
    R, t, ok = np.zeros((B, K, 3, 3)), np.zeros((B, K, 3)), np.zeros((B, K), dtype=bool)
    if general.any():
        R[general], t[general], ok[general] = _epnp(points[general], pixels[general], intr)
    for b in np.flatnonzero(planar):
        R[b, :2], t[b, :2], ok[b, :2] = _homography_pose(points[b], pixels[b], intr)
    return R, t, ok


def lm_pose_polish(
    pose: SE3Pose,
    points: np.ndarray,
    pixels: np.ndarray,
    intr: CameraIntrinsics,
    scale: float,
    max_iters: int = 20,
) -> SE3Pose:
    """Levenberg-Marquardt on Tukey's biweight of the reprojection error.

    Minimises the sum over all points of 1 - (1 - (e/scale)^2)^3 by
    iteratively reweighted least squares, with weights (1 - (e/scale)^2)^2;
    a point at e >= scale, or behind the camera, costs 1 and has weight 0.
    Left-multiplicative rotation update; only cost-decreasing steps are
    accepted, so the polished pose never costs more than the input.
    """
    R, t = pose.rotation.copy(), pose.translation.copy()

    def residuals(Rc, tc):
        """Pixel residuals, camera-frame points (1 behind), IRLS weights and cost."""
        p = points @ Rc.T + tc
        front = p[:, 2] > MIN_DEPTH
        p = np.where(front[:, None], p, 1.0)
        r = pinhole(p, intr.fx, intr.fy, intr.cx, intr.cy) - pixels
        # (e/scale)^2 capped at 1: no scale can overflow it
        x = np.where(front, np.minimum(np.hypot(r[:, 0], r[:, 1]), scale) / scale, 1.0) ** 2
        # 1 - (1 - x)^3, expanded so a small x keeps its digits
        return r, p, (1.0 - x) ** 2, float(np.sum(x * (3.0 + x * (x - 3.0))))

    r, p_cam, w, cost = residuals(R, t)
    lam = 1e-3

    for _ in range(max_iters):
        n = len(points)
        Jproj = pinhole_jacobian(p_cam, intr.fx, intr.fy)

        rp = points @ R.T  # rotated points (camera frame minus t)
        skew = np.zeros((n, 3, 3))
        skew[:, 0, 1] = -rp[:, 2]
        skew[:, 0, 2] = rp[:, 1]
        skew[:, 1, 0] = rp[:, 2]
        skew[:, 1, 2] = -rp[:, 0]
        skew[:, 2, 0] = -rp[:, 1]
        skew[:, 2, 1] = rp[:, 0]

        J = np.zeros((2 * n, 6))
        J[:, :3] = (-Jproj @ skew).reshape(2 * n, 3)   # d/d(rotation vector)
        J[:, 3:] = Jproj.reshape(2 * n, 3)             # d/d(translation)

        wJ = np.repeat(w, 2)[:, None] * J
        g = wJ.T @ r.ravel()
        H = wJ.T @ J
        try:
            step = np.linalg.solve(H + lam * np.diag(np.diag(H)) + 1e-12 * np.eye(6), -g)
        except np.linalg.LinAlgError:
            break
        R_new = rotation_from_rotvec(step[:3]) @ R
        t_new = t + step[3:]
        r_new, p_new, w_new, cost_new = residuals(R_new, t_new)
        if cost_new < cost:
            decrease = cost - cost_new
            R, t, r, p_cam, w, cost = R_new, t_new, r_new, p_new, w_new, cost_new
            lam = max(lam / 10.0, 1e-12)
            if decrease <= 1e-12 * cost + 1e-24:
                break
        else:
            lam *= 10.0
            if lam > 1e10:
                break
    return SE3Pose(R, t)


def ransac_pnp(
    points: np.ndarray,
    pixels: np.ndarray,
    intr: CameraIntrinsics,
    *,
    inlier_px: float = DEFAULT_INLIER_PX,
    max_iters: int = DEFAULT_MAX_ITERS,
    confidence: float = DEFAULT_CONFIDENCE,
    seed: int = 0,
) -> PnPResult:
    """Hypothesize-and-verify EPnP with adaptive termination and one robust polish.

    Deterministic given the seed. Returns a failure result (pose=None)
    when no hypothesis reaches 4 inliers. The best hypothesis is polished
    on all points by lm_pose_polish at scale inlier_px. The returned
    inlier set is recomputed under the final polished pose, so every
    reported inlier reprojects within inlier_px.
    """
    points = np.asarray(points, dtype=float)
    pixels = np.asarray(pixels, dtype=float)
    n = len(points)
    if n < 4:
        return PnPResult(pose=None)

    rng = np.random.default_rng(seed)
    best: tuple[np.ndarray, np.ndarray] | None = None
    best_count = 0
    best_err = np.inf
    needed = max_iters
    i = 0
    chunk = _FIRST_CHUNK
    while i < needed:
        # Samples are drawn one by one in the serial order but solved and
        # scored a chunk at a time; the hypotheses are then consumed in draw
        # order, so the result and `iterations` match a one-by-one loop.
        size = min(chunk, needed - i)
        chunk *= 2
        idx = np.array([rng.choice(n, size=4, replace=False) for _ in range(size)])
        P, X = points[idx], pixels[idx]
        R, t, ok = _candidates(P, X, intr)
        R, t = R[ok], t[ok]  # draw order, each sample's candidates in slot order
        errs = _reprojection_errors(R, t, intr, points, pixels)  # (candidates, n)
        mask = errs <= inlier_px
        counts = mask.sum(axis=1)
        means = np.where(mask, errs, 0.0).sum(axis=1) / np.maximum(counts, 1)
        owner = np.nonzero(ok)[0].tolist()
        c = 0
        for sample in range(size):
            i += 1
            while c < len(owner) and owner[c] == sample:
                count, err = int(counts[c]), float(means[c])
                if count > best_count or (count == best_count and count > 0 and err < best_err):
                    best = R[c], t[c]
                    best_count, best_err = count, err
                    if count == n:
                        needed = i
                    elif count > 4:
                        w = count / n
                        est = np.log(max(1.0 - confidence, 1e-12)) / np.log(1.0 - w**4)
                        needed = min(max_iters, int(np.ceil(est)))
                c += 1
            if i >= needed:
                break

    if best is None or best_count < 4:
        return PnPResult(pose=None, iterations=i)

    hypothesis = SE3Pose(*best)
    pose = lm_pose_polish(hypothesis, points, pixels, intr, inlier_px)
    errs = _reprojection_errors(pose.rotation, pose.translation, intr, points, pixels)
    inliers = np.flatnonzero(errs <= inlier_px)
    if len(inliers) < 4:
        # the polish lost the consensus: report the hypothesis it started from
        pose = hypothesis
        errs = _reprojection_errors(*best, intr, points, pixels)
        inliers = np.flatnonzero(errs <= inlier_px)
    mean_err = float(np.mean(errs[inliers]))
    return PnPResult(pose=pose, inliers=inliers, mean_error=mean_err, iterations=i)
