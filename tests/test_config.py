"""Run configuration: published defaults, validation, JSON round trip."""

import numpy as np
import pytest

from semidense.config import MAX_DISTANCE, MAX_FOCAL, MAX_TAU, MIN_TAU, RunConfig
from semidense.scene import MAX_NOISE_SIGMA
from semidense.pose_matching import DEFAULT_FINE_WINDOW, DEFAULT_TAU, DEFAULT_THETA


class TestDefaults:
    def test_matching_operating_point(self):
        config = RunConfig()
        assert config.tau == 0.08
        assert config.theta == 0.4
        assert config.fine_window == 5
        assert config.n_coarse_layers == 3
        assert config.n_fine_layers == 1
        assert config.refine_window == 9
        assert DEFAULT_TAU == 0.08
        assert DEFAULT_THETA == 0.4
        assert DEFAULT_FINE_WINDOW == 5

    def test_scaled_inlier_threshold(self):
        config = RunConfig(image_size=1024)
        assert config.scaled_inlier_px == pytest.approx(6.0)


class TestValidation:
    def test_rejects_bad_values(self):
        for bad in (
            {"n_points": 4},
            {"n_views": 1},
            {"min_track_length": 1},
            {"refine_window": 8},
            {"fine_window": 4},
            {"tau": 0.0},
            {"tau": 1e-7},
            {"tau": MIN_TAU * (1 - 1e-12)},
            {"tau": float(np.finfo(np.float32).max)},  # inf in the float32 coarse block
            {"theta": 1.5},
            {"dropout_rate": 1.0},
            {"distance_min": 5.0, "distance_max": 3.0},
            {"image_size": 500},
            {"fine_noise_sigma": float("nan")},
            {"tau": float("inf")},
            {"focal": float("nan")},
            {"inlier_px": float("-inf")},
            {"units_to_cm": 0.0},
            {"units_to_cm": -10.0},
            {"seed": -1},
            {"image_size": 0},
            {"jitter_deg": -5.0},
            {"coarse_dim": 0},
            {"coarse_dim": 5},  # too narrow for the 3-D positional encoding of 3 coarse layers
            {"fine_dim": 0},
            {"max_reproj_px": 0.0},
            {"min_refine_confidence": 1.5},
            {"refine_window": -1},
            {"fine_window": -1},
            {"fine_window": 257},  # wider than the 256 x 256 fine map of a 512-px image
            {"fine_window": 257, "image_size": 8192},  # or of any query's crop
            {"distance_max": 1e300},
            {"distance_max": MAX_DISTANCE * (1 + 1e-12)},
            {"focal": 0.0},
            {"focal": MAX_FOCAL * (1 + 1e-12)},
            {"n_coarse_layers": -1},
            {"n_fine_layers": -1},
            {"inlier_px": 0.0},
            {"ransac_max_iters": 0},
            {"ransac_confidence": 1.0},
            {"fine_noise_sigma": -1.0},
            {"descriptor_noise_sigma": -1.0},
            {"descriptor_noise_sigma": 1e160},  # overflowed normalizing the noisy descriptors
            {"descriptor_noise_sigma": MAX_NOISE_SIGMA * (1 + 1e-12)},
            {"fine_noise_sigma": MAX_NOISE_SIGMA * (1 + 1e-12)},
        ):
            with pytest.raises(ValueError, match=next(iter(bad))):  # the message names the field
                RunConfig(**bad).validate()

    def test_default_is_valid(self):
        RunConfig().validate()

    def test_bounds_are_valid(self):
        RunConfig(distance_min=MAX_DISTANCE, distance_max=MAX_DISTANCE, focal=MAX_FOCAL).validate()
        RunConfig(fine_window=255, image_size=8192).validate()
        RunConfig(coarse_dim=6).validate()
        RunConfig(coarse_dim=1, n_coarse_layers=0).validate()  # no encoding without attention
        RunConfig(fine_noise_sigma=MAX_NOISE_SIGMA, descriptor_noise_sigma=MAX_NOISE_SIGMA).validate()

    def test_smallest_tau_is_valid(self):
        RunConfig(tau=MIN_TAU).validate()

    def test_largest_tau_is_valid(self):
        RunConfig(tau=1.0).validate()
        RunConfig(tau=MAX_TAU).validate()
        with pytest.raises(ValueError, match="tau must be at most"):
            RunConfig(tau=MAX_TAU * (1 + 1e-12)).validate()


class TestRoundTrip:
    def test_json(self, tmp_path):
        config = RunConfig(seed=9, n_points=123, tau=0.1, outlier_rate=0.2)
        path = tmp_path / "c.json"
        config.to_json(path)
        back = RunConfig.from_json(path)
        assert back == config

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            RunConfig.from_dict({"seed": 1, "bogus": 2})

    def test_non_object_rejected(self):
        for bad in (5, [1], "seed", None):
            with pytest.raises(ValueError, match="JSON object"):
                RunConfig.from_dict(bad)

    def test_mistyped_values_rejected(self):
        for bad in (
            {"seed": [1]},
            {"seed": True},
            {"seed": 1.0},
            {"n_points": "200"},
            {"tau": False},
            {"tau": "0.08"},
            {"tau": None},
            {"tau": 10**400},
        ):
            with pytest.raises(ValueError, match=next(iter(bad))):
                RunConfig.from_dict(bad)

    def test_int_taken_for_float_field(self):
        config = RunConfig.from_dict({"tau": 1, "seed": 3})
        assert config.tau == 1.0 and type(config.tau) is float and config.seed == 3

    def test_deep_nesting_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(ValueError, match="nested too deeply"):
            RunConfig.from_json(path)
