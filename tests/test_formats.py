"""FMAT, PLY, and scene/model serialization round trips."""

import numpy as np
import pytest

from semidense.attention import AttentionStack
from semidense.formats import (
    atomic_write,
    load_model,
    load_scene,
    read_fmat,
    read_ply,
    save_model,
    save_scene,
    write_fmat,
    write_ply,
)
from semidense.refine import PointCloudModel
from semidense.scene import NoiseModel, generate_scene


class TestFmat:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(141)
        sections = {
            "alpha": rng.standard_normal((5, 3)),
            "beta.layer0.q": rng.standard_normal((8, 8)).astype(np.float32),
            "gamma": rng.standard_normal((1, 7)),
        }
        path = tmp_path / "t.fmat"
        write_fmat(path, sections)
        back = read_fmat(path)
        assert list(back) == list(sections)
        for k in sections:
            assert back[k].dtype == np.asarray(sections[k]).dtype
            assert np.array_equal(back[k], sections[k])

    def test_rewrite_byte_identical(self, tmp_path):
        sections = {"a": np.arange(12.0).reshape(3, 4)}
        p1, p2 = tmp_path / "a.fmat", tmp_path / "b.fmat"
        write_fmat(p1, sections)
        write_fmat(p2, sections)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.fmat"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError):
            read_fmat(path)

    def test_every_truncation_rejected(self, tmp_path):
        path = tmp_path / "t.fmat"
        write_fmat(path, {"a": np.ones((2, 3)), "bb": np.ones((1, 2), dtype=np.float32)})
        data = path.read_bytes()
        for n in range(len(data)):
            path.write_bytes(data[:n])
            with pytest.raises(ValueError, match="t.fmat"):
                read_fmat(path)

    def test_huge_section_size_rejected_without_reading(self, tmp_path):
        path = tmp_path / "t.fmat"
        write_fmat(path, {"a": np.ones((2, 3))})
        data = bytearray(path.read_bytes())
        data[18:26] = (2**62).to_bytes(8, "little")  # rows of section "a"
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="truncated"):
            read_fmat(path)

    def test_non_2d_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_fmat(tmp_path / "x.fmat", {"v": np.zeros(3)})

    def test_attention_weights_roundtrip(self, tmp_path):
        stack = AttentionStack.random(2, 16, seed=7)
        path = tmp_path / "w.fmat"
        write_fmat(path, stack.to_sections())
        back = AttentionStack.from_sections(read_fmat(path))
        assert back.n_layers == 2
        for (s1, c1), (s2, c2) in zip(stack.layers, back.layers):
            assert np.array_equal(s1.wq, s2.wq)
            assert np.array_equal(c1.ff1, c2.ff1)


class TestAtomicWrite:
    def test_write_that_raises_leaves_earlier_file(self, tmp_path):
        path = tmp_path / "x.fmat"
        write_fmat(path, {"a": np.ones((2, 3))})
        before = path.read_bytes()
        with pytest.raises(ValueError, match="2D"):  # raised after section "a" is written
            write_fmat(path, {"a": np.zeros((4, 4)), "b": np.zeros(3)})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["x.fmat"]

    def test_text_block_that_raises(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("old\n")
        with pytest.raises(RuntimeError):
            with atomic_write(path, newline="") as fh:
                fh.write("new,partial")
                raise RuntimeError("interrupted")
        assert path.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]

    def test_same_bytes_as_open(self, tmp_path):
        cases = (("w", "", "a\r\nb\n"), ("w", None, "a\nb\n"), ("wb", None, b"\x00\n"))
        for mode, newline, data in cases:
            with open(tmp_path / "direct", mode, newline=newline) as fh:
                fh.write(data)
            with atomic_write(tmp_path / "atomic", mode, newline=newline) as fh:
                fh.write(data)
            assert (tmp_path / "atomic").read_bytes() == (tmp_path / "direct").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["atomic", "direct"]


class TestPly:
    def test_ascii_roundtrip(self, tmp_path):
        pts = np.random.default_rng(142).standard_normal((50, 3))
        path = tmp_path / "a.ply"
        write_ply(path, pts)
        assert np.array_equal(read_ply(path), pts)  # repr() floats round-trip

    def test_not_ply_rejected(self, tmp_path):
        path = tmp_path / "x.ply"
        path.write_bytes(b"hello\n")
        with pytest.raises(ValueError):
            read_ply(path)

    @pytest.mark.parametrize(
        "header, payload, message",
        [
            (
                "format binary_big_endian 1.0\nelement vertex 1\n",
                np.array([1.0, 2.0, 3.0], dtype=">f8").tobytes(),
                "binary_big_endian",
            ),
            ("format ascii 1.0\n", b"1.0 2.0 3.0\n", "element vertex"),
        ],
        ids=["binary", "no-vertex-element"],
    )
    def test_unsupported_header_rejected(self, tmp_path, header, payload, message):
        properties = "property double x\nproperty double y\nproperty double z\n"
        path = tmp_path / "x.ply"
        path.write_bytes(f"ply\n{header}{properties}end_header\n".encode("ascii") + payload)
        with pytest.raises(ValueError, match=message):
            read_ply(path)


class TestSceneIO:
    def test_roundtrip(self, tmp_path):
        scene = generate_scene(
            144, 60, 5, NoiseModel(fine_noise_sigma=0.5, dropout_rate=0.1)
        )
        path = tmp_path / "scene.json"
        save_scene(scene, path)
        back = load_scene(path)
        assert back.seed == scene.seed
        assert back.noise == scene.noise
        assert np.array_equal(back.points, scene.points)
        assert np.array_equal(back.desc_coarse, scene.desc_coarse)
        for (pa, ka), (pb, kb) in zip(scene.views, back.views):
            assert np.array_equal(pa.matrix, pb.matrix)
            assert ka == kb

    def test_rewrite_byte_identical(self, tmp_path):
        # same target filename (it is embedded as the sidecar reference)
        scene = generate_scene(145, 40, 4, NoiseModel())
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        d1.mkdir(), d2.mkdir()
        save_scene(scene, d1 / "scene.json")
        save_scene(scene, d2 / "scene.json")
        assert (d1 / "scene.json").read_bytes() == (d2 / "scene.json").read_bytes()
        assert (d1 / "scene.fmat").read_bytes() == (d2 / "scene.fmat").read_bytes()

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text('{"format": "other"}\n')
        with pytest.raises(ValueError):
            load_scene(path)


class TestModelIO:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(146)
        model = PointCloudModel(
            points=rng.standard_normal((20, 3)),
            coarse_features=rng.standard_normal((20, 8)),
            fine_features=rng.standard_normal((20, 4)),
            track_ids=np.arange(20) * 2,
        )
        save_model(tmp_path / "m", model, rng.standard_normal((25, 3)), [0, 1, 2])
        back, manifest = load_model(tmp_path / "m")
        assert np.array_equal(back.points, model.points)
        assert np.array_equal(back.coarse_features, model.coarse_features)
        assert np.array_equal(back.track_ids, model.track_ids)
        assert manifest["recon_views"] == [0, 1, 2]
        assert (tmp_path / "m" / "coarse.ply").exists()
        assert (tmp_path / "m" / "refined.ply").exists()
