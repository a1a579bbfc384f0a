"""Run configuration: one flat record covering every pipeline stage.

Matching defaults are the published operating point: similarity scale 0.08,
confidence threshold 0.4, fine window 5, three coarse and one fine
attention layer, and a 9x9 sub-pixel refinement window.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .attention import MIN_ENCODED_WIDTH
from .formats import _dump_json, _load_json
from .pose_matching import FINE_STRIDE, MAX_CROP_SIDE
from .scene import NoiseModel

# The reciprocal of MAX_TAU. Unit-norm features score within +-1/tau, so
# float32 scores stay within +-1e6; every softmax is shifted by its own max,
# so no span of such scores is too wide for it.
MIN_TAU = 1e-6
# At tau = 1e6 every score lies within +-1e-6, so the dual-softmax is uniform
# to 2e-6 and a larger tau matches nothing better; the float32 coarse block
# would turn a tau past ~3.4e38 into inf.
MAX_TAU = 1e6
# Farthest camera (object diameters) and longest focal length (px): there the
# object spans about a pixel, and the squares of camera coordinates that
# triangulation's gates sum stay far inside float64's range (1e300 overflowed).
MAX_DISTANCE = MAX_FOCAL = 1e6


@dataclass
class RunConfig:
    seed: int = 1

    # scene synthesis
    n_points: int = 200
    n_views: int = 12            # reconstruction views
    n_query_views: int = 6       # held-out views appended after the recon views
    fine_noise_sigma: float = 0.0
    descriptor_noise_sigma: float = 0.0
    dropout_rate: float = 0.0
    outlier_rate: float = 0.0
    image_size: int = 512
    focal: float = 640.0
    distance_min: float = 3.0
    distance_max: float = 5.0
    jitter_deg: float = 10.0
    coarse_dim: int = 32
    fine_dim: int = 32

    # reconstruction
    min_track_length: int = 3
    max_reproj_px: float = 12.0
    min_refine_confidence: float = 0.2
    refine_window: int = 9

    # 2D-3D matching
    tau: float = 0.08
    theta: float = 0.4
    fine_window: int = 5
    n_coarse_layers: int = 3
    n_fine_layers: int = 1

    # pose solving (inlier_px is specified at 512-px image width and scaled)
    inlier_px: float = 3.0
    ransac_max_iters: int = 10000
    ransac_confidence: float = 0.99

    # evaluation
    units_to_cm: float = 10.0

    def validate(self) -> None:
        """Raise ValueError naming the first field outside its range."""
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        for ok, message in (
            (self.seed >= 0, "seed must be non-negative"),
            (self.n_points >= 8, "n_points must be at least 8"),
            (self.n_views >= 2, "n_views must be at least 2"),
            (self.n_query_views >= 0, "n_query_views must be non-negative"),
            (
                self.image_size > 0 and self.image_size % 8 == 0,
                "image_size must be a positive multiple of the grid stride (8)",
            ),
            (self.jitter_deg >= 0, "jitter_deg must be non-negative"),
            (self.coarse_dim >= 1, "coarse_dim must be at least 1"),
            (
                self.n_coarse_layers == 0 or self.coarse_dim >= MIN_ENCODED_WIDTH,
                f"coarse_dim must be at least {MIN_ENCODED_WIDTH} when n_coarse_layers > 0, "
                "to encode 3D positions",
            ),
            (self.fine_dim >= 1, "fine_dim must be at least 1"),
            (self.min_track_length >= 2, "min_track_length must be at least 2"),
            (self.max_reproj_px > 0, "max_reproj_px must be positive"),
            (0 <= self.min_refine_confidence <= 1, "min_refine_confidence must be in [0, 1]"),
            (_positive_odd(self.refine_window), "refine_window must be a positive odd integer"),
            (self.tau >= MIN_TAU, f"tau must be at least {MIN_TAU:g}"),
            (self.tau <= MAX_TAU, f"tau must be at most {MAX_TAU:g}"),
            (0 <= self.theta <= 1, "theta must be in [0, 1]"),
            (_positive_odd(self.fine_window), "fine_window must be a positive odd integer"),
            (
                self.fine_window <= min(self.image_size, MAX_CROP_SIDE) // FINE_STRIDE,
                f"fine_window must be at most the fine map's side, "
                f"min(image_size, {MAX_CROP_SIDE}) // {FINE_STRIDE}",
            ),
            (self.n_coarse_layers >= 0, "n_coarse_layers must be non-negative"),
            (self.n_fine_layers >= 0, "n_fine_layers must be non-negative"),
            (self.inlier_px > 0, "inlier_px must be positive"),
            (self.ransac_max_iters >= 1, "ransac_max_iters must be at least 1"),
            (0 < self.ransac_confidence < 1, "ransac_confidence must be in (0, 1)"),
            (self.units_to_cm > 0, "units_to_cm must be positive"),
            (
                0 < self.distance_min <= self.distance_max,
                "distance_min must be in (0, distance_max]",
            ),
            (self.distance_max <= MAX_DISTANCE, f"distance_max must be at most {MAX_DISTANCE:g}"),
            (0 < self.focal <= MAX_FOCAL, f"focal must be in (0, {MAX_FOCAL:g}]"),
        ):
            if not ok:
                raise ValueError(message)
        self.noise  # building the NoiseModel checks the noise fields

    @property
    def noise(self) -> NoiseModel:
        return NoiseModel(
            fine_noise_sigma=self.fine_noise_sigma,
            descriptor_noise_sigma=self.descriptor_noise_sigma,
            dropout_rate=self.dropout_rate,
            outlier_rate=self.outlier_rate,
        )

    @property
    def total_views(self) -> int:
        return self.n_views + self.n_query_views

    @property
    def scaled_inlier_px(self) -> float:
        return self.inlier_px * self.image_size / 512.0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """A config from a JSON object; an int field takes an int, a float field an int or float."""
        if not isinstance(d, dict):
            raise ValueError(f"config must be a JSON object, got {type(d).__name__}")
        kinds = {f.name: f.type for f in dataclasses.fields(cls)}
        unknown = set(d) - set(kinds)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        values = {}
        for name, value in d.items():
            accepted = (int,) if kinds[name] == "int" else (int, float)
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise ValueError(f"{name} must be {kinds[name]}, got {type(value).__name__}")
            try:
                values[name] = value if kinds[name] == "int" else float(value)
            except OverflowError:
                raise ValueError(f"{name} is out of range") from None
        return cls(**values)

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        return cls.from_dict(_load_json(path))

    def to_json(self, path) -> None:
        _dump_json(self.to_dict(), path)


def _positive_odd(window: int) -> bool:
    return window > 0 and window % 2 == 1
