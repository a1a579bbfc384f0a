"""Positional encoding and linear attention against the quadratic oracle."""

import numpy as np
import pytest

from semidense.attention import (
    _quadratic_order,
    POSITION_ENCODING_GAIN,
    POSITION_GRID_SCALE,
    AttentionStack,
    elu_plus_one,
    linear_attention,
    positional_encode,
    sinusoidal_encoding,
)


def quadratic_attention(queries, keys, values, eps=1e-6):
    """Explicit O(N^2) kernel-attention sum; oracle for the linear form."""
    Q = elu_plus_one(np.asarray(queries, dtype=float))
    K = elu_plus_one(np.asarray(keys, dtype=float))
    V = np.asarray(values, dtype=float)
    out = np.zeros((Q.shape[0], V.shape[1]))
    for i in range(Q.shape[0]):
        weights = K @ Q[i]
        denom = max(weights.sum(), eps)
        out[i] = (weights[:, None] * V).sum(axis=0) / denom
    return out


def allocating_transform(stack, a, b, eps=1e-6):
    """`AttentionStack.transform` with every sum in a new array, as `x + message`
    and `h + relu(h ff1) ff2`: the reference for the in-place layers. The
    message takes the association order with fewer multiply-adds."""

    def apply(layer, x, source):
        Q = elu_plus_one(x @ layer.wq)
        K = elu_plus_one(source @ layer.wk)
        V = source @ layer.wv
        n, m, c, cv = Q.shape[-2], K.shape[-2], Q.shape[-1], V.shape[-1]
        if n * m * (c + cv) < c * cv * (n + m):
            weights = Q @ np.swapaxes(K, -1, -2)
            message = (weights @ V) / np.maximum(weights.sum(axis=-1), eps)[..., None]
        else:
            kv = np.swapaxes(K, -1, -2) @ V
            z = (Q @ K.sum(axis=-2)[..., None])[..., 0]
            message = (Q @ kv) / np.maximum(z, eps)[..., None]
        h = x + message
        return h + np.maximum(h @ layer.ff1, 0.0) @ layer.ff2

    for self_layer, cross_layer in stack.layers:
        a, b = apply(self_layer, a, a), apply(self_layer, b, b)
        a, b = apply(cross_layer, a, b), apply(cross_layer, b, a)
    return a, b


class TestSinusoidalEncoding:
    def test_norm_bounded_by_sqrt_channels(self):
        grid = np.stack(
            np.meshgrid(np.arange(64) * 8.0 + 4.0, np.arange(64) * 8.0 + 4.0),
            axis=-1,
        ).reshape(-1, 2)
        pe = sinusoidal_encoding(grid, 32)
        assert np.linalg.norm(pe, axis=1).max() <= np.sqrt(32.0) + 1e-9

    def test_padded_channels_constant(self):
        pos = np.random.default_rng(1).uniform(0, 512, size=(50, 3))
        pe = sinusoidal_encoding(pos, 32)
        # 3 axes * 2 * (32 // 6) = 30 live channels, 2 zero-padded
        assert np.all(pe[:, 30:] == 0.0)

    def test_distinct_positions_distinct_encodings(self):
        feats = np.tile(np.eye(1, 32), (2, 1))
        pos = np.array([[4.0, 4.0], [12.0, 4.0]])
        enc = positional_encode(feats, pos)
        assert not np.allclose(enc[0], enc[1])

    def test_encoded_rows_unit_norm(self):
        rng = np.random.default_rng(2)
        feats = rng.standard_normal((20, 32))
        feats /= np.linalg.norm(feats, axis=1, keepdims=True)
        enc = positional_encode(feats, rng.uniform(0, 512, (20, 2)))
        np.testing.assert_allclose(np.linalg.norm(enc, axis=1), 1.0, atol=1e-12)

    def test_3d_needs_bounding_box(self):
        feats = np.ones((4, 30))
        pos = np.zeros((4, 3))
        with pytest.raises(ValueError):
            positional_encode(feats, pos)
        out = positional_encode(feats, pos, box_min=np.zeros(3), box_extent=np.ones(3))
        assert out.shape == (4, 30)

    def test_nonfinite_positions_rejected(self):
        with pytest.raises(ValueError):
            positional_encode(np.ones((1, 32)), np.array([[np.nan, 0.0]]))


class TestEluPlusOne:
    def test_equals_where_formula_bit_for_bit(self):
        rng = np.random.default_rng(81)
        x = np.concatenate([
            [0.0, -0.0, 1e-300, -1e-300, -800.0, -745.2, 1e300, 1e15, 3.5, np.inf, -np.inf],
            rng.standard_normal(4096) * 3.0,
        ])
        before = x.copy()
        want = np.where(x > 0, x + 1.0, np.exp(np.minimum(x, 0.0)))
        got = elu_plus_one(x.reshape(-1, 1))[:, 0]
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))  # signed zeros too
        assert np.array_equal(x.view(np.uint64), before.view(np.uint64))  # the input is untouched

    def test_keeps_shape_and_float32(self):
        x = np.random.default_rng(82).standard_normal((2, 5, 3)).astype(np.float32)
        want = np.where(x > 0, x + np.float32(1.0), np.exp(np.minimum(x, np.float32(0.0))))
        got = elu_plus_one(x)
        assert got.dtype == np.float32 and got.shape == x.shape
        assert np.array_equal(got, want)


class TestLinearAttention:
    def test_single_key_returns_value(self):
        rng = np.random.default_rng(3)
        q = rng.standard_normal((5, 8))
        k = rng.standard_normal((1, 8))
        v = rng.standard_normal((1, 8))
        out = linear_attention(q, k, v)
        for i in range(5):
            np.testing.assert_allclose(out[i], v[0], atol=1e-12)

    def test_uniform_values_fixed_point(self):
        rng = np.random.default_rng(4)
        q = rng.standard_normal((6, 8))
        k = rng.standard_normal((10, 8))
        v = np.tile(rng.standard_normal(8), (10, 1))
        out = linear_attention(q, k, v)
        np.testing.assert_allclose(out, np.tile(v[0], (6, 1)), atol=1e-12)

    def test_matches_quadratic_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 65))
            m = int(rng.integers(2, 65))
            c = int(rng.integers(4, 17))
            q = rng.standard_normal((n, c))
            k = rng.standard_normal((m, c))
            v = rng.standard_normal((m, c))
            fast = linear_attention(q, k, v)
            slow = quadratic_attention(q, k, v)
            assert np.abs(fast - slow).max() < 1e-10

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            linear_attention(np.ones((2, 4)), np.ones((3, 5)), np.ones((3, 4)))

    def test_batched_mismatch_rejected(self):
        with pytest.raises(ValueError):
            linear_attention(np.ones((6, 2, 4)), np.ones((6, 3, 5)), np.ones((6, 3, 4)))
        with pytest.raises(ValueError):
            linear_attention(np.ones((6, 2, 4)), np.ones((6, 3, 4)), np.ones((6, 2, 4)))

    def test_batched_equals_per_slice(self):
        rng = np.random.default_rng(16)
        for n in (1, 7, 25):
            q = rng.standard_normal((9, n, 8))
            k = rng.standard_normal((9, 25, 8))
            v = rng.standard_normal((9, 25, 8))
            out = linear_attention(q, k, v)
            for i in range(9):
                np.testing.assert_array_equal(out[i], linear_attention(q[i], k[i], v[i]))
                slow = quadratic_attention(q[i], k[i], v[i])
                assert np.abs(out[i] - slow).max() < 1e-12


class TestAttentionStack:
    def test_zero_layers_identity(self):
        stack = AttentionStack(layers=[])
        a = np.random.default_rng(6).standard_normal((4, 16))
        b = np.random.default_rng(7).standard_normal((5, 16))
        out_a, out_b = stack.transform(a, b)
        np.testing.assert_array_equal(out_a, a)
        np.testing.assert_array_equal(out_b, b)

    def test_random_stack_deterministic(self):
        s1 = AttentionStack.random(3, 16, seed=9)
        s2 = AttentionStack.random(3, 16, seed=9)
        for (a1, c1), (a2, c2) in zip(s1.layers, s2.layers):
            assert np.array_equal(a1.wq, a2.wq)
            assert np.array_equal(c1.ff2, c2.ff2)

    def test_transform_finite_and_shaped(self):
        stack = AttentionStack.random(3, 16, seed=10)
        rng = np.random.default_rng(11)
        a = rng.standard_normal((40, 16))
        b = rng.standard_normal((25, 16))
        out_a, out_b = stack.transform(a, b)
        assert out_a.shape == a.shape and out_b.shape == b.shape
        assert np.all(np.isfinite(out_a)) and np.all(np.isfinite(out_b))

    def test_sections_roundtrip(self):
        stack = AttentionStack.random(2, 8, seed=12)
        sections = stack.to_sections()
        assert set(sections) == {
            f"layer{i}.{kind}.{role}"
            for i in range(2)
            for kind in ("self", "cross")
            for role in ("q", "k", "v", "ff1", "ff2")
        }
        back = AttentionStack.from_sections(sections)
        rng = np.random.default_rng(13)
        a, b = rng.standard_normal((6, 8)), rng.standard_normal((7, 8))
        np.testing.assert_array_equal(stack.transform(a, b)[0], back.transform(a, b)[0])

    @pytest.mark.parametrize(
        "name, shape, mention",
        [
            ("layer0.self.k", (8, 5), "layer0.self.k is 8 x 5, expected 8 x 8"),
            ("layer1.cross.q", (6, 8), "layer1.cross.q is 6 x 8, expected 8 x 8"),
            ("layer0.cross.v", (8, 4), "layer0.cross.v is 8 x 4, expected 8 x 8"),
            ("layer0.self.ff1", (7, 8), "layer0.self.ff1 is 7 x 8, expected 8 x 8"),
            ("layer1.self.ff2", (8, 9), "layer1.self.ff2 is 8 x 9, expected 8 x 8"),
            ("layer0.self.ff2", None, "no section layer0.self.ff2"),
        ],
    )
    def test_sections_with_a_misshapen_matrix_rejected(self, name, shape, mention):
        sections = AttentionStack.random(2, 8, seed=12).to_sections()
        if shape is None:
            del sections[name]
        else:
            sections[name] = np.zeros(shape)
        with pytest.raises(ValueError, match=mention):
            AttentionStack.from_sections(sections)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e300, -1e39])
    def test_sections_with_an_entry_past_float32_rejected(self, value):
        # the coarse block runs in float32, where these are not finite
        sections = AttentionStack.random(2, 8, seed=12).to_sections()
        sections["layer1.cross.ff1"][3, 2] = value
        with pytest.raises(ValueError, match="layer1.cross.ff1 holds an entry that is not finite"):
            AttentionStack.from_sections(sections)

    def test_sections_at_the_float32_maximum_accepted(self):
        sections = AttentionStack.random(1, 8, seed=12).to_sections()
        sections["layer0.self.v"][0, 0] = -np.finfo(np.float32).max
        sections["layer0.self.q"] = sections["layer0.self.q"].astype(np.float32)
        sections["layer0.self.q"][1, 1] = np.finfo(np.float32).max
        assert AttentionStack.from_sections(sections).width == 8

    def test_sections_with_a_wider_hidden_layer_accepted(self):
        # q/k and ff1 may be narrower or wider than C when their partners agree
        rng = np.random.default_rng(16)
        sections = AttentionStack.random(1, 8, seed=12).to_sections()
        for kind in ("self", "cross"):
            for role, shape in (("q", (8, 4)), ("k", (8, 4)), ("ff1", (8, 12)), ("ff2", (12, 8))):
                sections[f"layer0.{kind}.{role}"] = rng.standard_normal(shape)
        stack = AttentionStack.from_sections(sections)
        assert stack.width == 8
        out_a, _ = stack.transform(rng.standard_normal((5, 8)), rng.standard_normal((6, 8)))
        assert out_a.shape == (5, 8)

    def test_batched_transform_equals_per_slice(self):
        stack = AttentionStack.random(2, 16, seed=17)
        rng = np.random.default_rng(18)
        a = rng.standard_normal((11, 1, 16))
        b = rng.standard_normal((11, 25, 16))
        out_a, out_b = stack.transform(a, b)
        for i in range(11):
            slice_a, slice_b = stack.transform(a[i], b[i])
            np.testing.assert_array_equal(out_a[i], slice_a)
            np.testing.assert_array_equal(out_b[i], slice_b)

    def test_in_place_layers_equal_allocating_reference(self):
        stack = AttentionStack.random(3, 16, seed=19)
        rng = np.random.default_rng(20)
        for shape_a, shape_b in (((40, 16), (25, 16)), ((11, 1, 16), (11, 25, 16))):
            a, b = rng.standard_normal(shape_a), rng.standard_normal(shape_b)
            out_a, out_b = stack.transform(a, b)
            ref_a, ref_b = allocating_transform(stack, a, b)
            assert np.array_equal(out_a, ref_a) and np.array_equal(out_b, ref_b)

    def test_permutation_equivariance(self):
        stack = AttentionStack.random(2, 16, seed=14)
        rng = np.random.default_rng(15)
        a = rng.standard_normal((30, 16))
        b = rng.standard_normal((20, 16))
        perm = rng.permutation(30)
        out_a, out_b = stack.transform(a, b)
        pa, pb = stack.transform(a[perm], b)
        np.testing.assert_allclose(pa, out_a[perm], atol=1e-9)
        np.testing.assert_allclose(pb, out_b, atol=1e-9)


class TestPrecision:
    """Float32 input is computed in float32; float64 input keeps its float64 bits."""

    def test_positional_encode(self):
        rng = np.random.default_rng(21)
        feats = rng.standard_normal((20, 32))
        box_min, box_extent = -np.ones(3), 2.0 * np.ones(3)
        pos3 = rng.uniform(-1.0, 1.0, (20, 3))
        for pos, box, grid in (
            (rng.uniform(0, 512, (20, 2)), {}, None),
            (pos3, {"box_min": box_min, "box_extent": box_extent},
             (pos3 - box_min) / box_extent * POSITION_GRID_SCALE),
        ):
            enc64 = positional_encode(feats, pos, **box)
            ref = feats + sinusoidal_encoding(pos if grid is None else grid, 32) * (
                POSITION_ENCODING_GAIN / np.sqrt(32)
            )
            ref /= np.linalg.norm(ref, axis=1, keepdims=True)
            assert enc64.dtype == np.float64 and np.array_equal(enc64, ref)
            enc32 = positional_encode(feats.astype(np.float32), pos, **box)
            assert enc32.dtype == np.float32
            assert np.abs(enc32 - enc64).max() <= 1e-5

    def test_linear_attention(self):
        def orders(q, k, v):
            Q, K = elu_plus_one(q), elu_plus_one(k)
            weights = Q @ np.swapaxes(K, -1, -2)
            quad = (weights @ v) / np.maximum(weights.sum(axis=-1), 1e-6)[..., None]
            z = (Q @ K.sum(axis=-2)[..., None])[..., 0]
            lin = (Q @ (np.swapaxes(K, -1, -2) @ v)) / np.maximum(z, 1e-6)[..., None]
            return quad, lin

        # the fine windows' sets take the quadratic order, the localize coarse block the linear
        for n, m in ((1, 1), (1, 25), (25, 1), (25, 25)):
            assert _quadratic_order((7, n, 32), (7, m, 32), (7, m, 32))
        for n, m in ((649, 342), (342, 649), (649, 649), (342, 342)):
            assert not _quadratic_order((n, 32), (m, 32), (m, 32))
        rng = np.random.default_rng(22)
        for n, m, c, quadratic in ((40, 25, 16, False), (1, 25, 32, True), (25, 25, 32, True)):
            q, k, v = (rng.standard_normal(shape) for shape in ((9, n, c), (9, m, c), (9, m, c)))
            assert _quadratic_order(q.shape, k.shape, v.shape) == quadratic
            # each order equals its own formula bit for bit, and the two agree
            out64 = linear_attention(q, k, v)
            quad, lin = orders(q, k, v)
            assert out64.dtype == np.float64 and np.array_equal(out64, quad if quadratic else lin)
            assert np.abs(quad - lin).max() <= 1e-12
            q32, k32, v32 = (x.astype(np.float32) for x in (q, k, v))
            out32 = linear_attention(q32, k32, v32)
            quad32, lin32 = orders(q32, k32, v32)
            assert out32.dtype == np.float32
            assert np.array_equal(out32, quad32 if quadratic else lin32)
            assert np.abs(quad32 - lin32).max() <= 1e-5
            assert np.abs(out32 - out64).max() <= 1e-5

    def test_transform(self):
        stack = AttentionStack.random(3, 32, seed=23)
        rng = np.random.default_rng(24)
        for shape_a, shape_b in (((60, 32), (100, 32)), ((11, 1, 32), (11, 25, 32))):
            a, b = rng.standard_normal(shape_a), rng.standard_normal(shape_b)
            a /= np.linalg.norm(a, axis=-1, keepdims=True)
            b /= np.linalg.norm(b, axis=-1, keepdims=True)
            out64 = stack.transform(a, b)
            ref = allocating_transform(stack, a, b)
            assert all(x.dtype == np.float64 and np.array_equal(x, r) for x, r in zip(out64, ref))
            out32 = stack.astype(np.float32).transform(a.astype(np.float32), b.astype(np.float32))
            for x32, x64 in zip(out32, out64):
                assert x32.dtype == np.float32
                assert np.abs(x32 - x64).max() <= 1e-5

    def test_astype_keeps_every_weight_shape(self):
        # q/k narrower and the hidden layer wider than C, as a loaded weight file may have them
        rng = np.random.default_rng(25)
        sections = AttentionStack.random(2, 8, seed=26).to_sections()
        shapes = {"q": (8, 4), "k": (8, 4), "ff1": (8, 12), "ff2": (12, 8)}
        for i in range(2):
            for kind in ("self", "cross"):
                for role, shape in shapes.items():
                    sections[f"layer{i}.{kind}.{role}"] = rng.standard_normal(shape)
        stack = AttentionStack.from_sections(sections)
        cast = stack.astype(np.float32).to_sections()
        assert cast.keys() == sections.keys()
        for name, w in sections.items():
            assert cast[name].dtype == np.float32 and cast[name].shape == w.shape, name
            assert np.array_equal(cast[name], w.astype(np.float32)), name
        same = stack.astype(np.float64).to_sections()
        assert all(same[name] is w for name, w in sections.items())  # no copy where already float64
