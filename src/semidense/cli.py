"""Command-line pipeline: synth, reconstruct, estimate, eval, and pipeline.

Each command reads its inputs and calls its stage (`run_synth`, ...), which
writes the stage's files and returns what the next stage needs; `pipeline`
chains the four stages in memory and writes the same files. Every command
is deterministic given its config and seed.

Exit codes, all set in `main`: 0 on success, 2 on usage/validation errors
(ValueError, OSError) and when memory runs out (MemoryError), 3 when a
stage produces an empty result (no tracks, no poses).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import re
import sys
import time
from pathlib import Path

import numpy as np

from .attention import MIN_ENCODED_WIDTH, AttentionStack
from .config import RunConfig
from .formats import (
    _dump_json,
    _load_json,
    atomic_write,
    load_model,
    load_scene,
    read_fmat,
    save_model,
    save_scene,
)
from .geometry import SE3Pose
from .matching import OracleMatcher, dump_matches_csv, select_view_pairs
from .metrics import (
    CM_DEGREE_LEVELS,
    cm_degree_success,
    compute_pose_errors,
    point_cloud_accuracy,
    rotation_error_deg,
    translation_error,
)
from .pnp import PnPResult, ransac_pnp
from .pose_matching import coarse_match_2d3d, crop_frame, fine_match_2d3d, synthesize_query_maps
from .refine import refine_reconstruction
from .scene import generate_scene
from .tracks import build_tracks, tracks_to_json, triangulate_tracks

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_EMPTY = 3

_RANSAC_SEED_STREAM = 50


def _scene_from_config(config: RunConfig):
    return generate_scene(
        config.seed,
        config.n_points,
        config.total_views,
        config.noise,
        coarse_dim=config.coarse_dim,
        fine_dim=config.fine_dim,
        image_size=config.image_size,
        focal=config.focal,
        distance_range=(config.distance_min, config.distance_max),
        jitter_deg=config.jitter_deg,
    )


def _pair_matches(matcher: OracleMatcher, recon_views: list[int]):
    """Coarse matches of every selected pair of reconstruction views, one PairMatches each."""
    pairs = select_view_pairs([matcher.scene.views[v] for v in recon_views])
    return [
        matcher.coarse_match_pair(
            matcher.observations(recon_views[a]), matcher.observations(recon_views[b])
        )
        for a, b in pairs
    ]


def reconstruct_scene(scene, config: RunConfig, recon_views: list[int]):
    """Matching -> tracks -> triangulation -> refinement -> aggregation.

    Returns (model, coarse reconstruction, refined tracks table, stats dict,
    pair matches), the last a list with one PairMatches per matched view pair.
    """
    matcher = OracleMatcher(scene, window=config.refine_window)
    poses = [p for p, _ in scene.views]
    intrs = [k for _, k in scene.views]
    matches = _pair_matches(matcher, recon_views)
    tracks, track_stats = build_tracks(matches, config.min_track_length)
    recon = triangulate_tracks(
        tracks, poses, intrs, max_reproj_px=config.max_reproj_px, stats=track_stats
    )
    observations = {v: matcher.observations(v) for v in recon_views}
    model, refined, refine_stats = refine_reconstruction(
        recon, poses, intrs, matcher, observations, config.min_refine_confidence
    )
    stats = {
        "tracks": track_stats.to_dict(),
        "refine": refine_stats.to_dict(),
        "n_model_points": model.n_points,
    }
    return model, recon, refined, stats, matches


def estimate_views(scene, model, config: RunConfig, query_views, stacks=None):
    """Coarse match -> fine match -> RANSAC PnP per query view.

    Each view's maps cover a crop of the oracle's object box, at most
    MAX_CROP_SIDE px on a side (synthesize_query_maps); the matches go back
    to the image's pixels, so PnP runs on the view's own intrinsics. The
    coarse and fine blocks run in float32 at every tau: each softmax is
    shifted by its own max, and a logit far below it only underflows to
    probability 0. Map synthesis, the fine pixels and PnP run in float64.
    """
    coarse_stack, fine_stack = (s.astype(np.float32) for s in stacks or _default_stacks(config))
    cast_model = dataclasses.replace(
        model,
        coarse_features=model.coarse_features.astype(np.float32, copy=False),
        fine_features=model.fine_features.astype(np.float32, copy=False),
    )
    results = []
    for view in query_views:
        t0 = time.perf_counter()
        qmaps = synthesize_query_maps(scene, view, config.fine_window)
        qmaps = dataclasses.replace(
            qmaps,
            coarse=qmaps.coarse.astype(np.float32, copy=False),
            fine=qmaps.fine.astype(np.float32, copy=False),
        )
        # keep only the matches: the (M, N) score and probability matrices
        # and this view's maps are freed before the next view builds its own
        corr = coarse_match_2d3d(
            cast_model, qmaps, coarse_stack, tau=config.tau, theta=config.theta
        )[2]
        corr = fine_match_2d3d(
            cast_model, qmaps, corr, fine_stack, window=config.fine_window, fine_tau=config.tau
        )
        s, corner = crop_frame(qmaps.intrinsics, scene.views[view][1])  # back to the image
        corr.coarse_pixels = corr.coarse_pixels / s + corner
        corr.fine_pixels = corr.fine_pixels / s + corner
        del qmaps
        if corr.n_fine >= 4:
            res = ransac_pnp(
                model.points[corr.fine_points],
                corr.fine_pixels,
                scene.views[view][1],
                inlier_px=config.scaled_inlier_px,
                max_iters=config.ransac_max_iters,
                confidence=config.ransac_confidence,
                seed=[config.seed, _RANSAC_SEED_STREAM, view],
            )
        else:
            res = PnPResult(pose=None)
        results.append(
            {
                "view": int(view),
                "corr": corr,
                "result": res,
                "time_ms": (time.perf_counter() - t0) * 1e3,
            }
        )
    return results


def _default_stacks(config: RunConfig):
    coarse = AttentionStack.random(config.n_coarse_layers, config.coarse_dim, config.seed)
    fine = AttentionStack.random(config.n_fine_layers, config.fine_dim, config.seed)
    return coarse, fine


def _load_config(args) -> RunConfig:
    config = RunConfig.from_json(args.config) if args.config else RunConfig()
    for f in dataclasses.fields(RunConfig):
        override = getattr(args, f.name, None)
        if override is not None:
            setattr(config, f.name, override)
    config.validate()
    return config


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("config overrides (flags win over --config)")
    for f in dataclasses.fields(RunConfig):
        kind = int if f.type in (int, "int") else float
        group.add_argument(
            f"--{f.name.replace('_', '-')}", dest=f.name, type=kind, default=None
        )


class EmptyResult(Exception):
    """A stage produced nothing to go on with; `main` exits 3, printing the message if any."""


@contextlib.contextmanager
def _writing(out: Path):
    """Re-raise an OSError from writing under `out` as `cannot write <out>: ...`."""
    try:
        yield
    except OSError as e:
        raise OSError(f"cannot write {out}: {e}") from e


def run_synth(config: RunConfig, out: Path):
    """Generate the configured scene and write it to `out`; the scene."""
    scene = _scene_from_config(config)
    with _writing(out):
        out.parent.mkdir(parents=True, exist_ok=True)
        save_scene(scene, out)
    print(f"scene: {scene.n_points} points, {scene.n_views} views -> {out}")
    return scene


def run_reconstruct(scene, config: RunConfig, out: Path, dump_matches: bool):
    """Reconstruct the first n_views views into model directory `out`; (model, their ids)."""
    recon_views = list(range(min(config.n_views, scene.n_views)))
    model, recon, _, stats, matches = reconstruct_scene(scene, config, recon_views)
    if model.n_points == 0:
        raise EmptyResult("no surviving tracks")

    stats["accuracy"] = {
        kind: {repr(t): v for t, v in point_cloud_accuracy(points, scene.points).items()}
        for kind, points in (("coarse", recon.points), ("refined", model.points))
    }
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
        save_model(out, model, recon.points, recon_views)
        tracks_to_json(recon.tracks, out / "tracks.json")
        if dump_matches:
            dump_matches_csv(matches, out / "matches.csv")
        _dump_json(stats, out / "stats.json")
    print(
        f"model: {model.n_points} points from {len(recon.tracks)} tracks "
        f"({stats['tracks']['conflicts']} conflict nodes) -> {out}"
    )
    return model, recon_views


def _query_views(spec: str | None, scene_views: int, recon_views) -> list[int]:
    """The views `spec` names (e.g. 12-17 or 12,13); by default every view not reconstructed.

    A bad part or a view named twice raises ValueError naming --views.
    """
    if not spec:
        return [v for v in range(scene_views) if v not in recon_views]
    views = []
    for part in spec.split(","):
        m = re.fullmatch(r"\s*(\d+)(?:-(\d+))?\s*", part)
        lo, hi = (int(m[1]), int(m[2] or m[1])) if m else (1, 0)
        if not lo <= hi < scene_views:
            raise ValueError(f"--views: {part!r} is not a view or range a-b in [0, {scene_views})")
        views.extend(range(lo, hi + 1))
    if len(set(views)) < len(views):
        raise ValueError(f"--views: {spec!r} names a view twice")
    return views


def run_estimate(scene, model, config: RunConfig, query_views, stacks, out: Path) -> list[dict]:
    """Pose each query view into `out` (poses.json, corr_q###.csv); the poses-file entries.

    Raises EmptyResult, after writing, when no pose is solved.
    """
    _check_inputs(scene, model, stacks)
    if model.n_points == 0:
        raise EmptyResult("empty model")
    if not query_views or any(not 0 <= v < scene.n_views for v in query_views):
        raise ValueError(f"invalid query views {query_views}")

    results = estimate_views(scene, model, config, query_views, stacks)
    queries = []
    for r in results:
        res = r["result"]
        queries.append(
            {
                "view": r["view"],
                "ok": res.ok,
                "pose": [[float(x) for x in row] for row in res.pose.matrix] if res.ok else None,
                "n_coarse": r["corr"].n_coarse,
                "n_fine": r["corr"].n_fine,
                "n_inliers": int(len(res.inliers)),
                "mean_inlier_error_px": float(res.mean_error) if res.ok else None,
                "ransac_iterations": res.iterations,
                "time_ms": r["time_ms"],
            }
        )
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
        for r in results:
            with atomic_write(out / f"corr_q{r['view']:03d}.csv", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["j", "u", "v", "conf"])
                c = r["corr"]
                for j, pix, conf in zip(c.fine_points, c.fine_pixels, c.fine_conf):
                    writer.writerow(
                        [int(j), repr(float(pix[0])), repr(float(pix[1])), repr(float(conf))]
                    )
        _dump_json({"queries": queries}, out / "poses.json")

    n_ok = sum(q["ok"] for q in queries)
    print(f"poses: {n_ok}/{len(queries)} solved -> {out}")
    if not n_ok:
        raise EmptyResult
    return queries


def _load_stack(flag: str, path, min_width: int = 0) -> AttentionStack:
    """The attention stack of an FMAT file; its errors name the flag and the file."""
    sections = read_fmat(path)  # whose errors name the file already
    try:
        stack = AttentionStack.from_sections(sections)
        if stack.n_layers and stack.width < min_width:
            raise ValueError(
                f"coarse attention weights take {stack.width}-wide input, "
                f"narrower than the {min_width} that encode 3D positions"
            )
    except ValueError as exc:
        raise ValueError(f"{flag} {path}: {exc}") from None
    return stack


def _stacks_from_args(args, config: RunConfig):
    coarse, fine = _default_stacks(config)
    if args.coarse_weights:
        coarse = _load_stack("--coarse-weights", args.coarse_weights, MIN_ENCODED_WIDTH)
    if args.fine_weights:
        fine = _load_stack("--fine-weights", args.fine_weights)
    return coarse, fine


# Largest deviation of a model feature's norm from 1 that `estimate` accepts;
# float32 unit rows of up to a few hundred elements round well within it.
_UNIT_NORM_TOL = 1e-5


def _check_stack_widths(stacks, widths) -> None:
    """The coarse and fine attention stacks must take the descriptors' widths as input."""
    for kind, stack, width in zip(("coarse", "fine"), stacks, widths):
        if stack.width not in (None, width):
            raise ValueError(
                f"{kind} attention weights take {stack.width}-wide input, "
                f"scene descriptors are {width} wide"
            )


def _check_inputs(scene, model, stacks) -> None:
    """Model features must be unit-norm rows, and they and the attention
    stacks as wide as the scene's descriptors."""
    widths = (scene.desc_coarse.shape[1], scene.desc_fine.shape[1])
    for kind, width, features in zip(
        ("coarse", "fine"), widths, (model.coarse_features, model.fine_features)
    ):
        if features.shape[1] != width:
            raise ValueError(
                f"model {kind} features are {features.shape[1]} wide, scene descriptors {width}"
            )
        if not np.all(np.abs(np.linalg.norm(features, axis=1) - 1.0) <= _UNIT_NORM_TOL):
            raise ValueError(f"model {kind} features are not unit-norm")
    _check_stack_widths(stacks, widths)


def run_eval(scene, queries: list, config: RunConfig, out: Path) -> None:
    """Score the poses-file entries against the scene's ground truth and write metrics CSV `out`."""
    rows, agg = evaluate_queries(scene, queries, config)
    with _writing(out):
        out.parent.mkdir(parents=True, exist_ok=True)
        write_metrics_csv(out, rows, agg)
    print(
        "success rates: "
        + " ".join(f"{k}={agg[k]!r}" for k in ("ok_1cm_1deg", "ok_3cm_3deg", "ok_5cm_5deg"))
    )


def _check_queries(queries: list, n_views: int) -> None:
    """Raise ValueError naming the first poses-file entry that evaluate_queries cannot score.

    An entry is an object with an int `view` in [0, n_views) and a bool
    `ok`; when `ok` is true, `pose` is a finite 3x4 or 4x4 matrix holding a
    rigid transform.
    """
    for i, q in enumerate(queries):
        where = f"queries[{i}]"
        if not isinstance(q, dict):
            raise ValueError(f"{where} is not an object")
        view = q.get("view")
        if not isinstance(view, int) or isinstance(view, bool):
            raise ValueError(f"{where}: view must be an int, got {view!r}")
        if not 0 <= view < n_views:
            raise ValueError(f"{where}: view {view} outside [0, {n_views})")
        if not isinstance(q.get("ok"), bool):
            raise ValueError(f"{where}: ok must be true or false, got {q.get('ok')!r}")
        if not q["ok"]:
            continue
        try:
            m = np.array(q.get("pose"), dtype=float)
        except (TypeError, ValueError):
            m = None
        if m is None or m.shape not in ((3, 4), (4, 4)) or not np.all(np.isfinite(m)):
            raise ValueError(f"{where}: pose must be a finite 3x4 or 4x4 matrix")
        try:
            SE3Pose.from_matrix(m)
        except ValueError as e:
            raise ValueError(f"{where}: pose {e}") from None


_METRIC_COLUMNS = [
    "view",
    "t_err_cm",
    "rot_err_deg",
    "ok_1cm_1deg",
    "ok_3cm_3deg",
    "ok_5cm_5deg",
    "ok_1pct_1deg",
    "add",
    "add_ok",
    "add_s",
    "add_s_ok",
    "proj2d_px",
    "proj2d_ok",
]


def evaluate_queries(scene, queries, config: RunConfig):
    """Per-query metric rows plus the aggregate success-rate row."""
    rows = []
    for q in queries:
        view = q["view"]
        gt_pose, intr = scene.views[view]
        row = {c: 0 for c in _METRIC_COLUMNS}
        row["view"] = view
        if not q["ok"]:
            row.update(
                t_err_cm=np.inf, rot_err_deg=np.inf, add=np.inf, add_s=np.inf, proj2d_px=np.inf
            )
            rows.append(row)
            continue
        est = SE3Pose.from_matrix(np.array(q["pose"], dtype=float))
        errs = compute_pose_errors(
            est, gt_pose, scene.points, intr, scene.diameter, config.units_to_cm
        )
        dist = float(np.linalg.norm(gt_pose.camera_center))
        row.update(
            t_err_cm=errs.translation_cm,
            rot_err_deg=errs.rotation_deg,
            add=errs.add,
            add_ok=int(errs.add_ok),
            add_s=errs.add_s,
            add_s_ok=int(errs.add_s_ok),
            proj2d_px=errs.proj2d_px,
            proj2d_ok=int(errs.proj2d_ok),
        )
        for t_cm, t_deg in CM_DEGREE_LEVELS:
            row[f"ok_{int(t_cm)}cm_{int(t_deg)}deg"] = int(
                cm_degree_success(est, gt_pose, t_cm, t_deg, config.units_to_cm)
            )
        row["ok_1pct_1deg"] = int(
            translation_error(est, gt_pose) <= 0.01 * dist
            and rotation_error_deg(est, gt_pose) <= 1.0
        )
        rows.append(row)

    n = max(len(rows), 1)
    agg = {"view": "aggregate"}
    for col in _METRIC_COLUMNS[1:]:
        vals = [r[col] for r in rows]
        if col.startswith("ok_") or col.endswith("_ok"):
            agg[col] = sum(vals) / n
        else:
            finite = [v for v in vals if np.isfinite(v)]
            agg[col] = float(np.mean(finite)) if finite else np.inf
    return rows, agg


def write_metrics_csv(path, rows, agg) -> None:
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_METRIC_COLUMNS)
        for row in rows + [agg]:
            writer.writerow(
                [row["view"]]
                + [
                    repr(float(row[c])) if not isinstance(row[c], int) else row[c]
                    for c in _METRIC_COLUMNS[1:]
                ]
            )


def cmd_synth(args) -> None:
    run_synth(_load_config(args), Path(args.out))


def cmd_reconstruct(args) -> None:
    config = _load_config(args)
    run_reconstruct(load_scene(args.scene), config, Path(args.out), args.dump_matches)


def cmd_estimate(args) -> None:
    config = _load_config(args)
    scene = load_scene(args.scene)
    model, manifest = load_model(args.model)
    stacks = _stacks_from_args(args, config)
    views = _query_views(args.views, scene.n_views, manifest["recon_views"])
    run_estimate(scene, model, config, views, stacks, Path(args.out))


def cmd_eval(args) -> None:
    config = _load_config(args)
    scene = load_scene(args.scene)
    payload = _load_json(args.poses)
    if not isinstance(payload, dict) or not isinstance(payload.get("queries"), list):
        raise ValueError(f"{args.poses} has no 'queries' list")
    _check_queries(payload["queries"], scene.n_views)
    run_eval(scene, payload["queries"], config, Path(args.out))


def cmd_pipeline(args) -> None:
    """The four stages in one process, each on the one before's in-memory result."""
    config = _load_config(args)
    if config.n_query_views < 1:
        raise ValueError("n_query_views must be at least 1 for pipeline")
    stacks = _stacks_from_args(args, config)
    _check_stack_widths(stacks, (config.coarse_dim, config.fine_dim))
    out = Path(args.out)
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
        config.to_json(out / "config.json")
    scene = run_synth(config, out / "scene.json")
    model, recon_views = run_reconstruct(scene, config, out / "model", args.dump_matches)
    views = _query_views(None, scene.n_views, recon_views)
    queries = run_estimate(scene, model, config, views, stacks, out / "estimate")
    run_eval(scene, queries, config, out / "metrics.csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semidense",
        description="Keypoint-free semi-dense reconstruction and 6DoF pose estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True, help="scene JSON path (FMAT sidecar alongside)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("reconstruct", help="coarse-to-fine reconstruction")
    p.add_argument("--config", default=None)
    p.add_argument("--scene", required=True)
    p.add_argument("--out", required=True, help="model output directory")
    p.add_argument("--dump-matches", action="store_true")
    _add_config_flags(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("estimate", help="2D-3D matching and PnP per query view")
    p.add_argument("--config", default=None)
    p.add_argument("--scene", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--views", default=None, help="e.g. 12-17 or 12,13; default: held-out views")
    p.add_argument("--coarse-weights", default=None, help="FMAT attention weights")
    p.add_argument("--fine-weights", default=None)
    _add_config_flags(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("eval", help="pose metrics against ground truth")
    p.add_argument("--config", default=None)
    p.add_argument("--scene", required=True)
    p.add_argument("--poses", required=True)
    p.add_argument("--out", required=True, help="metrics CSV path")
    _add_config_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("pipeline", help="synth -> reconstruct -> estimate -> eval")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--dump-matches", action="store_true")
    p.add_argument("--coarse-weights", default=None)
    p.add_argument("--fine-weights", default=None)
    _add_config_flags(p)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    """Run one command; the one place where an exception becomes an exit code."""
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except EmptyResult as e:
        if str(e):
            print(f"error: {e}", file=sys.stderr)
        return EXIT_EMPTY
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as e:
        print(f"error: out of memory: {str(e) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
