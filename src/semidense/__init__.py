"""Keypoint-free semi-dense object reconstruction and 6DoF pose estimation.

Two-stage pipeline: coarse track building with depth-only refinement, then
sparse-to-dense 2D-3D matching and PnP/RANSAC, verified end to end against
a deterministic synthetic-scene oracle in place of a learned matcher.
"""

__version__ = "0.1.0"

from .config import RunConfig
from .errors import CheiralityError, VisibilityError
from .geometry import CameraIntrinsics, SE3Pose, project
from .scene import NoiseModel, SyntheticScene, generate_scene, render_observations

__all__ = [
    "CameraIntrinsics",
    "SE3Pose",
    "NoiseModel",
    "SyntheticScene",
    "RunConfig",
    "CheiralityError",
    "VisibilityError",
    "project",
    "generate_scene",
    "render_observations",
    "__version__",
]
