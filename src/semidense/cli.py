"""Command-line pipeline: synth, reconstruct, estimate, eval, and pipeline.

Exit codes: 0 on success, 2 on usage/validation errors, 3 when a stage
produces an empty result (no tracks, no poses). Every command is
deterministic given its config and seed; `pipeline` runs the four stages
into one output directory and reproduces byte-identical metrics.csv.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from .attention import AttentionStack
from .config import RunConfig
from .formats import load_model, load_scene, read_fmat, save_model, save_scene
from .matching import OracleMatcher, dump_matches_csv, select_view_pairs
from .metrics import (
    CM_DEGREE_LEVELS,
    cm_degree_success,
    compute_pose_errors,
    point_cloud_accuracy,
    rotation_error_deg,
    translation_error,
)
from .pnp import ransac_pnp
from .pose_matching import coarse_match_2d3d, fine_match_2d3d, synthesize_query_maps
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
    """Coarse matches of every selected pair of reconstruction views, lazily."""
    pairs = select_view_pairs([matcher.scene.views[v] for v in recon_views])
    for a, b in pairs:
        yield from matcher.coarse_match_pair(
            matcher.observations(recon_views[a]), matcher.observations(recon_views[b])
        )


def reconstruct_scene(scene, config: RunConfig, recon_views: list[int]):
    """Matching -> tracks -> triangulation -> refinement -> aggregation.

    Returns (model, coarse reconstruction, refined tracks, stats dict).
    """
    matcher = OracleMatcher(scene, window=config.refine_window)
    poses = [p for p, _ in scene.views]
    intrs = [k for _, k in scene.views]
    tracks, track_stats = build_tracks(
        _pair_matches(matcher, recon_views), config.min_track_length
    )
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
    return model, recon, refined, stats


def estimate_views(scene, model, config: RunConfig, query_views, stacks=None):
    """Coarse match -> fine match -> RANSAC PnP per query view."""
    coarse_stack, fine_stack = stacks if stacks else _default_stacks(config)
    results = []
    for view in query_views:
        t0 = time.perf_counter()
        qmaps = synthesize_query_maps(scene, view)
        _, _, corr = coarse_match_2d3d(
            model, qmaps, coarse_stack, tau=config.tau, theta=config.theta
        )
        corr = fine_match_2d3d(
            model, qmaps, corr, fine_stack, window=config.fine_window, fine_tau=config.tau
        )
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
            from .pnp import PnPResult

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


def cmd_synth(args) -> int:
    try:
        config = _load_config(args)
        scene = _scene_from_config(config)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    out = Path(args.out)
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        save_scene(scene, out)
    except OSError as e:
        print(f"error: cannot write {out}: {e}", file=sys.stderr)
        return EXIT_USAGE
    print(f"scene: {scene.n_points} points, {scene.n_views} views -> {out}")
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    try:
        config = _load_config(args)
        scene = load_scene(args.scene)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    recon_views = list(range(min(config.n_views, scene.n_views)))
    model, recon, refined, stats = reconstruct_scene(scene, config, recon_views)
    if model.n_points == 0:
        print("error: no surviving tracks", file=sys.stderr)
        return EXIT_EMPTY

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_model(out, model, recon.points, recon_views)
    tracks_to_json(recon.tracks, out / "tracks.json")
    if args.dump_matches:
        matcher = OracleMatcher(scene, window=config.refine_window)
        dump_matches_csv(_pair_matches(matcher, recon_views), out / "matches.csv")

    stats["accuracy"] = {
        "coarse": point_cloud_accuracy(recon.points, scene.points),
        "refined": point_cloud_accuracy(model.points, scene.points),
    }
    stats["accuracy"] = {
        kind: {repr(t): v for t, v in acc.items()}
        for kind, acc in stats["accuracy"].items()
    }
    with open(out / "stats.json", "w") as fh:
        json.dump(stats, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(
        f"model: {model.n_points} points from {len(recon.tracks)} tracks "
        f"({stats['tracks']['conflicts']} conflict nodes) -> {out}"
    )
    return EXIT_OK


def _parse_views(spec: str | None, scene_views: int, manifest) -> list[int]:
    if spec:
        views = []
        for part in spec.split(","):
            if "-" in part:
                a, b = part.split("-")
                views.extend(range(int(a), int(b) + 1))
            else:
                views.append(int(part))
        return views
    used = set(manifest["recon_views"])
    return [v for v in range(scene_views) if v not in used]


def cmd_estimate(args) -> int:
    try:
        config = _load_config(args)
        scene = load_scene(args.scene)
        model, manifest = load_model(args.model)
        stacks = _stacks_from_args(args, config)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    if model.n_points == 0:
        print("error: empty model", file=sys.stderr)
        return EXIT_EMPTY
    query_views = _parse_views(args.views, scene.n_views, manifest)
    if not query_views or any(not 0 <= v < scene.n_views for v in query_views):
        print(f"error: invalid query views {query_views}", file=sys.stderr)
        return EXIT_USAGE

    results = estimate_views(scene, model, config, query_views, stacks)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payload = []
    for r in results:
        res = r["result"]
        payload.append(
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
        with open(out / f"corr_q{r['view']:03d}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["j", "u", "v", "conf"])
            c = r["corr"]
            for j, pix, conf in zip(c.fine_points, c.fine_pixels, c.fine_conf):
                writer.writerow([int(j), repr(float(pix[0])), repr(float(pix[1])), repr(float(conf))])
    with open(out / "poses.json", "w") as fh:
        json.dump({"queries": payload}, fh, sort_keys=True, indent=1)
        fh.write("\n")

    n_ok = sum(p["ok"] for p in payload)
    print(f"poses: {n_ok}/{len(payload)} solved -> {out}")
    return EXIT_OK if n_ok else EXIT_EMPTY


def _stacks_from_args(args, config: RunConfig):
    coarse, fine = _default_stacks(config)
    if getattr(args, "coarse_weights", None):
        coarse = AttentionStack.from_sections(read_fmat(args.coarse_weights))
    if getattr(args, "fine_weights", None):
        fine = AttentionStack.from_sections(read_fmat(args.fine_weights))
    return coarse, fine


def cmd_eval(args) -> int:
    try:
        config = _load_config(args)
        scene = load_scene(args.scene)
        with open(args.poses) as fh:
            payload = json.load(fh)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE

    rows, agg = evaluate_queries(scene, payload["queries"], config)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(out, rows, agg)
    print(
        "success rates: "
        + " ".join(f"{k}={agg[k]!r}" for k in ("ok_1cm_1deg", "ok_3cm_3deg", "ok_5cm_5deg"))
    )
    return EXIT_OK


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
    from .geometry import SE3Pose

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
            add_s=errs.add_s,
            proj2d_px=errs.proj2d_px,
        )
        for t_cm, t_deg in CM_DEGREE_LEVELS:
            row[f"ok_{int(t_cm)}cm_{int(t_deg)}deg"] = int(
                cm_degree_success(est, gt_pose, t_cm, t_deg, config.units_to_cm)
            )
        row["ok_1pct_1deg"] = int(
            translation_error(est, gt_pose) <= 0.01 * dist
            and rotation_error_deg(est, gt_pose) <= 1.0
        )
        row["add_ok"] = int(errs.add <= 0.1 * scene.diameter)
        row["add_s_ok"] = int(errs.add_s <= 0.1 * scene.diameter)
        row["proj2d_ok"] = int(errs.proj2d_px <= 5.0)
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
    with open(path, "w", newline="") as fh:
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


def cmd_pipeline(args) -> int:
    out = Path(args.out)
    try:
        config = _load_config(args)
        out.mkdir(parents=True, exist_ok=True)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    config.to_json(out / "config.json")

    ns = argparse.Namespace(**vars(args))
    ns.out = out / "scene.json"
    rc = cmd_synth(ns)
    if rc != EXIT_OK:
        return rc

    ns = argparse.Namespace(**vars(args))
    ns.scene = out / "scene.json"
    ns.out = out / "model"
    ns.dump_matches = getattr(args, "dump_matches", False)
    rc = cmd_reconstruct(ns)
    if rc != EXIT_OK:
        return rc

    ns = argparse.Namespace(**vars(args))
    ns.scene = out / "scene.json"
    ns.model = out / "model"
    ns.out = out / "estimate"
    ns.views = None
    rc = cmd_estimate(ns)
    if rc != EXIT_OK:
        return rc

    ns = argparse.Namespace(**vars(args))
    ns.scene = out / "scene.json"
    ns.poses = out / "estimate" / "poses.json"
    ns.out = out / "metrics.csv"
    return cmd_eval(ns)


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
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
