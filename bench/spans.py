"""Span tracing for the traced benchmark run.

Each public function a layer exposes is wrapped where its caller looks it
up (a module attribute or a class attribute), so the program runs unchanged
and only the lookups see the wrapper. A span records its name, start, end
and the index of its parent span; spans stay in memory and are written out
once, when the run ends. A span's self time is its duration minus the time
covered by its child spans. Counts come from what the wrapped calls return.

Tracing is installed only for the traced run; the end-to-end metrics are
always taken from untraced runs.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path


def _count_coarse_pair(c, args, out):
    c["matching.coarse_matches"] += len(out)


def _count_build(c, args, out):
    stats = out[1]
    c["tracks.components"] += stats.n_components
    c["tracks.conflict_nodes"] += stats.conflicts


def _count_triangulate(c, args, out):
    c["tracks.attempted"] += len(args[0])
    c["tracks.kept"] += len(out.tracks)


def _count_refine(c, args, out):
    model, _, stats = out
    c["refine.input_tracks"] += len(args[0].tracks)
    c["refine.kept"] += model.n_points
    c["refine.non_converged"] += stats.non_converged


def _count_coarse_2d3d(c, args, out):
    c["pose_matching.coarse_matches"] += out[2].n_coarse


def _count_fine_2d3d(c, args, out):
    c["pose_matching.fine_matches"] += out.n_fine


def _count_ransac(c, args, out):
    c["pnp.hypotheses"] += out.iterations
    c["pnp.inliers"] += len(out.inliers)
    c["pnp.points"] += len(args[0])


# (object path, attribute, span name, counter). The span name's first part
# is the layer. `geometry` is a kernel library: its time falls into the span
# of whichever layer calls it.
WRAPS = [
    ("semidense.scene", "generate_scene", "scene.generate", None),
    ("semidense.cli", "generate_scene", "scene.generate", None),
    ("semidense.matching", "render_observations", "scene.render", None),
    ("semidense.pose_matching", "render_observations", "scene.render", None),
    ("semidense.matching:OracleMatcher", "coarse_match_pair", "matching.coarse_pair", _count_coarse_pair),
    ("semidense.matching:OracleMatcher", "fine_refine", "matching.fine_refine", None),
    ("semidense.cli", "select_view_pairs", "matching.select_pairs", None),
    ("semidense.cli", "build_tracks", "tracks.build", _count_build),
    ("semidense.cli", "triangulate_tracks", "tracks.triangulate", _count_triangulate),
    ("semidense.cli", "refine_reconstruction", "refine.total", _count_refine),
    ("semidense.refine", "select_reference_node", "refine.select_ref", None),
    ("semidense.refine", "refine_track_nodes", "refine.nodes", None),
    ("semidense.refine", "optimize_depth", "refine.depth_lm", None),
    ("semidense.refine", "aggregate_features", "refine.aggregate", None),
    ("semidense.attention:AttentionStack", "transform", "attention.transform", None),
    ("semidense.cli", "synthesize_query_maps", "pose_matching.synth", None),
    ("semidense.cli", "coarse_match_2d3d", "pose_matching.coarse", _count_coarse_2d3d),
    ("semidense.cli", "fine_match_2d3d", "pose_matching.fine", _count_fine_2d3d),
    ("semidense.cli", "ransac_pnp", "pnp.ransac", _count_ransac),
    ("semidense.cli", "save_scene", "formats.save", None),
    ("semidense.cli", "save_model", "formats.save", None),
    ("semidense.cli", "tracks_to_json", "formats.save", None),
    ("semidense.cli", "load_scene", "formats.load", None),
    ("semidense.cli", "load_model", "formats.load", None),
    ("semidense.cli", "read_fmat", "formats.load", None),
    ("semidense.cli", "cmd_synth", "cli.synth", None),
    ("semidense.cli", "cmd_reconstruct", "cli.reconstruct", None),
    ("semidense.cli", "reconstruct_scene", "cli.reconstruct", None),
    ("semidense.cli", "cmd_estimate", "cli.estimate", None),
    ("semidense.cli", "estimate_views", "cli.estimate", None),
    ("semidense.cli", "cmd_eval", "cli.eval", None),
    ("semidense.cli", "evaluate_queries", "cli.eval", None),
    ("semidense.cli", "write_metrics_csv", "cli.eval", None),
    ("semidense.cli", "point_cloud_accuracy", "metrics.eval", None),
    ("semidense.cli", "compute_pose_errors", "metrics.eval", None),
    ("semidense.cli", "cm_degree_success", "metrics.eval", None),
    ("semidense.cli", "translation_error", "metrics.eval", None),
    ("semidense.cli", "rotation_error_deg", "metrics.eval", None),
]

LAYERS = (
    "scene", "matching", "tracks", "refine", "attention",
    "pose_matching", "pnp", "formats", "cli", "metrics",
)


def _resolve(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """In-memory span recorder with per-phase counters."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, phase]
        self.counts: dict[str, defaultdict] = defaultdict(lambda: defaultdict(float))
        self.phase = "setup"
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def install(self) -> None:
        for path, attr, name, counter in WRAPS:
            owner = _resolve(path)
            original = vars(owner)[attr]
            setattr(owner, attr, self._wrap(original, name, counter))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if counter is not None:
                counter(self.counts[self.phase], args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span named `name`."""
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.phase]
        self.spans.append(span)
        self.counts[self.phase][name + ".calls"] += 1
        self._stack.append(idx)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [(s[2] - s[1]) - c for s, c in zip(self.spans, child)]

    def summary(self, phase: str, root: str) -> dict:
        """Per-name self and total seconds plus counts, over one phase.

        `root` names the benchmark's own span around each operation; the
        sum of the layers' self times over the sum of the root spans is the
        share of the operation time the named layers account for.
        """
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        for span, st in zip(self.spans, self.self_times()):
            if span[4] == phase:
                self_s[span[0]] += st
                total_s[span[0]] += span[2] - span[1]
        return {
            "self_s": dict(self_s),
            "total_s": dict(total_s),
            "counts": dict(self.counts[phase]),
            "root_s": total_s.get(root, 0.0),
        }

    def span_cost_us(self, n: int = 20_000) -> float:
        """Time one span adds to a call, from wrapping a no-op in a scratch tracer."""
        scratch = Tracer()
        noop = lambda: None  # noqa: E731
        traced = scratch._wrap(noop, "noop", None)
        t0 = time.perf_counter()
        for _ in range(n):
            traced()
        t1 = time.perf_counter()
        for _ in range(n):
            noop()
        t2 = time.perf_counter()
        return 1e6 * ((t1 - t0) - (t2 - t1)) / n

    def write(self, path: Path) -> None:
        """All spans as gzip JSON lines: name, start, end, parent index, phase."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(s: dict, n_ops: int) -> dict[str, float]:
    """Every per-layer metric, per operation, from one phase summary."""
    self_s, total_s, c = s["self_s"], s["total_s"], s["counts"]
    n = max(n_ops, 1)

    def ms(*names):
        return 1e3 * sum(self_s.get(x, 0.0) for x in names) / n

    def per_op(key):
        return c.get(key, 0.0) / n

    def ratio(num, den):
        d = c.get(den, 0.0)
        return c.get(num, 0.0) / d if d else 0.0

    fine_calls = c.get("matching.fine_refine.calls", 0.0)
    m = {
        "scene.generate_ms": ms("scene.generate"),
        "scene.render_ms": ms("scene.render"),
        "scene.render_calls": per_op("scene.render.calls"),
        "matching.pairs": per_op("matching.coarse_pair.calls"),
        "matching.coarse_matches": per_op("matching.coarse_matches"),
        "matching.coarse_pair_ms": ms("matching.coarse_pair"),
        "matching.fine_refine_calls": fine_calls / n,
        "matching.fine_refine_us": (
            1e6 * self_s.get("matching.fine_refine", 0.0) / fine_calls if fine_calls else 0.0
        ),
        "tracks.build_ms": ms("tracks.build"),
        "tracks.components": per_op("tracks.components"),
        "tracks.conflict_nodes": per_op("tracks.conflict_nodes"),
        "tracks.triangulate_ms": ms("tracks.triangulate"),
        "tracks.attempted": per_op("tracks.attempted"),
        "tracks.kept_ratio": ratio("tracks.kept", "tracks.attempted"),
        "refine.total_ms": 1e3 * total_s.get("refine.total", 0.0) / n,
        "refine.select_ref_ms": ms("refine.select_ref"),
        "refine.nodes_ms": ms("refine.nodes"),
        "refine.depth_lm_ms": ms("refine.depth_lm"),
        "refine.aggregate_ms": ms("refine.aggregate"),
        "refine.kept_ratio": ratio("refine.kept", "refine.input_tracks"),
        "refine.non_converged": per_op("refine.non_converged"),
        "attention.transform_calls": per_op("attention.transform.calls"),
        "attention.transform_ms": ms("attention.transform"),
        "pose_matching.synth_ms": ms("pose_matching.synth"),
        "pose_matching.coarse_ms": ms("pose_matching.coarse"),
        "pose_matching.fine_ms": ms("pose_matching.fine"),
        "pose_matching.coarse_matches": per_op("pose_matching.coarse_matches"),
        "pose_matching.fine_matches": per_op("pose_matching.fine_matches"),
        "pnp.ransac_ms": ms("pnp.ransac"),
        "pnp.hypotheses": per_op("pnp.hypotheses"),
        "pnp.inlier_ratio": ratio("pnp.inliers", "pnp.points"),
        "formats.save_ms": ms("formats.save"),
        "formats.load_ms": ms("formats.load"),
        "formats.bytes_written": per_op("formats.bytes_written"),
        "cli.startup_ms": 0.0,  # measured apart, by the cli workload
        "cli.synth_ms": ms("cli.synth"),
        "cli.reconstruct_ms": ms("cli.reconstruct"),
        "cli.estimate_ms": ms("cli.estimate"),
        "cli.eval_ms": ms("cli.eval"),
        "metrics.eval_ms": ms("metrics.eval"),
    }
    root = s["root_s"]
    for layer in LAYERS:
        layer_self = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
        m[f"{layer}.time_share"] = layer_self / root if root else 0.0
    return m
