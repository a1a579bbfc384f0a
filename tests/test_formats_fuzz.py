"""Fuzzed loaders: every input to read_fmat, load_scene and load_model loads or raises ValueError."""

import copy
import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from semidense.formats import load_model, load_scene, read_fmat, save_model, save_scene, write_fmat
from semidense.refine import PointCloudModel
from semidense.scene import NoiseModel, generate_scene

# derandomized and without an example database, so every run draws the same examples
FUZZ = settings(
    max_examples=120, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def _loads_or_value_error(load, path):
    try:
        load(path)
    except ValueError:
        pass


@st.composite
def fmat_files(draw):
    """FMAT bytes whose header fields, names, dtype codes and sizes are drawn, then maybe cut."""
    count = draw(st.integers(0, 3))
    out = b"FMAT" + struct.pack("<II", draw(st.sampled_from([1, 1, 1, 0, 2])), count)
    for _ in range(draw(st.integers(0, count + 1))):
        name = draw(st.binary(max_size=8))
        name_len = draw(st.sampled_from([len(name)] * 3 + [0, 2**32 - 1]))
        code = draw(st.sampled_from([0, 1, 1, 2, 255]))
        rows = draw(st.integers(0, 4) | st.sampled_from([2**63, 2**64 - 1]))
        cols = draw(st.integers(0, 4) | st.sampled_from([2**63, 2**64 - 1]))
        itemsize = 4 if code == 0 else 8
        payload = draw(st.binary(min_size=0, max_size=min(rows * cols * itemsize, 128) + 4))
        out += struct.pack("<I", name_len) + name + struct.pack("<BQQ", code, rows, cols) + payload
    cut = draw(st.integers(0, len(out)))
    return out[:cut] if draw(st.booleans()) else out


@st.composite
def mutated(draw, payload):
    """payload with one value somewhere in it replaced by any JSON value, or deleted."""
    payload = copy.deepcopy(payload)
    parent, key = None, None
    node = payload
    while isinstance(node, (dict, list)) and len(node) and draw(st.integers(0, 3)):
        parent = node
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        node = node[key]
    if parent is None:
        return draw(json_values)
    if draw(st.integers(0, 4)) == 0:
        del parent[key]
    else:
        parent[key] = draw(json_values)
    return payload


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("scene")
    save_scene(generate_scene(5, 20, 2, NoiseModel()), path / "scene.json")
    return path


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("model")
    rng = np.random.default_rng(5)
    model = PointCloudModel(
        points=rng.standard_normal((4, 3)),
        coarse_features=rng.standard_normal((4, 8)),
        fine_features=rng.standard_normal((4, 4)),
        track_ids=np.arange(4),
    )
    save_model(path, model, model.points, [0, 1])
    return path


class TestReadFmatFuzz:
    @FUZZ
    @given(data=st.binary(max_size=160))
    def test_any_bytes(self, tmp_path, data):
        path = tmp_path / "x.fmat"
        path.write_bytes(data)
        _loads_or_value_error(read_fmat, path)

    @FUZZ
    @given(data=fmat_files())
    def test_drawn_headers(self, tmp_path, data):
        path = tmp_path / "x.fmat"
        path.write_bytes(data)
        _loads_or_value_error(read_fmat, path)

    def test_written_file_loads(self, tmp_path):
        write_fmat(tmp_path / "x.fmat", {"a": np.ones((2, 3))})
        assert np.array_equal(read_fmat(tmp_path / "x.fmat")["a"], np.ones((2, 3)))


def test_deep_nesting_is_a_value_error(tmp_path):
    deep = "[" * 100_000 + "]" * 100_000
    (tmp_path / "scene.json").write_text(deep)
    (tmp_path / "model.json").write_text(deep)
    with pytest.raises(ValueError, match="nested"):
        load_scene(tmp_path / "scene.json")
    with pytest.raises(ValueError, match="nested"):
        load_model(tmp_path)


class TestLoadSceneFuzz:
    @FUZZ
    @given(data=st.data())
    def test_mutated_scene_json(self, scene_dir, tmp_path, data):
        (tmp_path / "scene.fmat").write_bytes((scene_dir / "scene.fmat").read_bytes())
        payload = json.loads((scene_dir / "scene.json").read_text())
        (tmp_path / "scene.json").write_text(json.dumps(data.draw(mutated(payload))))
        _loads_or_value_error(load_scene, tmp_path / "scene.json")

    @FUZZ
    @given(text=st.text(max_size=80))
    def test_any_text(self, tmp_path, text):
        (tmp_path / "scene.json").write_text(text)
        _loads_or_value_error(load_scene, tmp_path / "scene.json")

    @FUZZ
    @given(sidecar=fmat_files())
    def test_any_sidecar(self, scene_dir, tmp_path, sidecar):
        (tmp_path / "scene.json").write_bytes((scene_dir / "scene.json").read_bytes())
        (tmp_path / "scene.fmat").write_bytes(sidecar)
        _loads_or_value_error(load_scene, tmp_path / "scene.json")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda p: p.update(sidecar=3),
            lambda p: p.update(sidecar="missing.fmat"),
            lambda p: p.update(seed=float("inf")),
            lambda p: p["views"][0]["intrinsics"].update(width=float("inf")),
        ],
        ids=["sidecar-not-a-string", "sidecar-missing", "infinite-seed", "infinite-width"],
    )
    def test_found_cases(self, scene_dir, tmp_path, edit):
        (tmp_path / "scene.fmat").write_bytes((scene_dir / "scene.fmat").read_bytes())
        payload = json.loads((scene_dir / "scene.json").read_text())
        edit(payload)
        (tmp_path / "scene.json").write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="scene.json"):
            load_scene(tmp_path / "scene.json")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda s: s.update(points=s["points"][:, :2]),
            lambda s: s.update(desc_coarse=s["desc_coarse"][:10]),
            lambda s: s["desc_fine"].__setitem__((3, 0), np.nan),
        ],
        ids=["points-2d", "descriptor-rows", "nan-descriptor"],
    )
    def test_sidecar_shapes_checked(self, scene_dir, tmp_path, edit):
        (tmp_path / "scene.json").write_bytes((scene_dir / "scene.json").read_bytes())
        sections = read_fmat(scene_dir / "scene.fmat")
        edit(sections)
        write_fmat(tmp_path / "scene.fmat", sections)
        with pytest.raises(ValueError, match="scene.fmat"):
            load_scene(tmp_path / "scene.json")

    def test_unmutated_scene_loads(self, scene_dir):
        assert load_scene(scene_dir / "scene.json").n_points == 20


class TestLoadModelFuzz:
    @FUZZ
    @given(data=st.data())
    def test_mutated_manifest(self, model_dir, tmp_path, data):
        (tmp_path / "features.fmat").write_bytes((model_dir / "features.fmat").read_bytes())
        payload = json.loads((model_dir / "model.json").read_text())
        (tmp_path / "model.json").write_text(json.dumps(data.draw(mutated(payload))))
        _loads_or_value_error(load_model, tmp_path)

    @FUZZ
    @given(features=fmat_files())
    def test_any_features_file(self, model_dir, tmp_path, features):
        (tmp_path / "model.json").write_bytes((model_dir / "model.json").read_bytes())
        (tmp_path / "features.fmat").write_bytes(features)
        _loads_or_value_error(load_model, tmp_path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda p: p["files"].update(features=["features.fmat"]),
            lambda p: p.update(track_ids=[[0], 1]),
            lambda p: p.update(track_ids=[2**70]),
            lambda p: p.update(recon_views=[{}]),
            lambda p: p.update(track_ids=[0, 1]),
        ],
        ids=[
            "features-not-a-string", "nested-track-ids", "huge-track-id", "recon-views-not-ints",
            "track-ids-per-point",
        ],
    )
    def test_found_cases(self, model_dir, tmp_path, edit):
        (tmp_path / "features.fmat").write_bytes((model_dir / "features.fmat").read_bytes())
        payload = json.loads((model_dir / "model.json").read_text())
        edit(payload)
        (tmp_path / "model.json").write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="model.json"):
            load_model(tmp_path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda s: s.update(coarse_features=s["coarse_features"][:3]),
            lambda s: s["points"].__setitem__((0, 0), np.inf),
        ],
        ids=["feature-rows", "infinite-point"],
    )
    def test_features_shapes_checked(self, model_dir, tmp_path, edit):
        (tmp_path / "model.json").write_bytes((model_dir / "model.json").read_bytes())
        sections = read_fmat(model_dir / "features.fmat")
        edit(sections)
        write_fmat(tmp_path / "features.fmat", sections)
        with pytest.raises(ValueError, match="features.fmat"):
            load_model(tmp_path)

    def test_unmutated_model_loads(self, model_dir):
        model, manifest = load_model(model_dir)
        assert model.n_points == 4 and manifest["recon_views"] == [0, 1]
