"""Positional encoding and linear self-/cross-attention for 2D-3D matching.

Single-head linear attention with the elu(x)+1 positive feature map:
the O(N) kernel-sum formulation equals the explicit quadratic
kernel-attention computation exactly (up to float rounding), and each
call takes whichever of the two is cheaper for its shapes.
Attention weights are either loaded from a weight file or seeded-random;
a zero-layer stack is the identity (attention bypass).

Precision follows the input: float32 features (and a float32 stack, see
`AttentionStack.astype`) are computed in float32, anything else in float64.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

# 3D positions are remapped to this grid-like scale so one frequency ladder
# serves both pixel coordinates and normalized object coordinates.
POSITION_GRID_SCALE = 512.0

# Encoding amplitude relative to 1/sqrt(C). The 3D and 2D encodings of a
# matching pair are uncorrelated until attention layers are trained to use
# them, so the untrained default must keep descriptor content dominant.
POSITION_ENCODING_GAIN = 0.1

# Narrowest coarse features that coarse attention can encode 3D points in:
# a sin and a cos per axis.
MIN_ENCODED_WIDTH = 2 * 3

_ATTENTION_WEIGHT_STREAM = 30
_WEIGHT_ROLES = ("q", "k", "v", "ff1", "ff2")


def _as_float(x) -> np.ndarray:
    """`x` as an array in its working precision: float32 if it is float32, else float64."""
    x = np.asarray(x)
    return x.astype(np.result_type(x, np.float32), copy=False)


def sinusoidal_encoding(positions: np.ndarray, channels: int) -> np.ndarray:
    """Log-spaced sin/cos features per axis, zero-padded to `channels`.

    For D position axes each axis gets channels // (2 D) frequencies
    (geometric ladder 1 .. 1/10000), contributing a sin and a cos each.
    The encoding norm is bounded by sqrt(channels).
    """
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    n, dims = pos.shape
    n_freq = channels // (2 * dims)
    if n_freq == 0:
        raise ValueError(f"{channels} channels cannot encode {dims} axes")
    freqs = np.power(10000.0, -np.arange(n_freq) / n_freq)
    args = pos[:, :, None] * freqs[None, None, :]  # (n, dims, n_freq)
    blocks = np.concatenate([np.sin(args), np.cos(args)], axis=2)
    out = np.zeros((n, channels))
    out[:, : dims * 2 * n_freq] = blocks.reshape(n, -1)
    return out


def positional_encode(
    features: np.ndarray,
    positions: np.ndarray,
    *,
    box_min: np.ndarray | None = None,
    box_extent: np.ndarray | None = None,
) -> np.ndarray:
    """Add positional information to descriptors and renormalize rows.

    2D positions are pixel coordinates used as-is; 3D positions must come
    with their bounding box and are remapped to a POSITION_GRID_SCALE cube
    so the shared frequency ladder resolves them. The encoding is scaled
    by POSITION_ENCODING_GAIN / sqrt(C) to keep descriptor content dominant.
    """
    feats = _as_float(features)
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    if not np.all(np.isfinite(pos)):
        raise ValueError("positions must be finite")
    if pos.shape[1] == 3:
        if box_min is None or box_extent is None:
            raise ValueError("3D positions need box_min/box_extent for normalization")
        extent = np.where(np.asarray(box_extent) > 0, box_extent, 1.0)
        pos = (pos - box_min) / extent * POSITION_GRID_SCALE
    channels = feats.shape[1]
    pe = sinusoidal_encoding(pos, channels) * (POSITION_ENCODING_GAIN / np.sqrt(channels))
    out = feats + pe.astype(feats.dtype, copy=False)
    return out / np.linalg.norm(out, axis=1, keepdims=True)


def elu_plus_one(x: np.ndarray) -> np.ndarray:
    """Positive feature map elu(x) + 1 used by linear attention.

    exp(min(x, 0)) + max(x, 0): exp(0) is exactly 1 and exp(x) + 0 is exp(x),
    so every entry equals np.where(x > 0, x + 1, exp(x)) bit for bit.
    """
    out = np.minimum(x, 0.0)
    np.exp(out, out=out)
    out += np.maximum(x, 0.0)
    return out


def _quadratic_order(q_shape, k_shape, v_shape) -> bool:
    """Whether linear_attention associates (phi(Q) phi(K)^T) V for these shapes.

    True when its N M (C + Cv) multiply-adds are fewer than the linear
    order's C Cv (N + M).
    """
    n, m, c, cv = q_shape[-2], k_shape[-2], q_shape[-1], v_shape[-1]
    return n * m * (c + cv) < c * cv * (n + m)


def linear_attention(
    queries: np.ndarray, keys: np.ndarray, values: np.ndarray, eps: float = 1e-6
) -> np.ndarray:
    """Kernel attention out_i = sum_j phi(q_i).phi(k_j) v_j / sum_j phi(q_i).phi(k_j).

    Inputs are (..., N, C) queries, (..., M, C) keys and (..., M, Cv)
    values; leading axes broadcast, one independent attention per slice.
    Float32 inputs give a float32 result. The product is associated in
    whichever order takes fewer multiply-adds for the shapes: the linear
    order phi(Q) (phi(K)^T V) / (phi(Q) sum phi(K)) costs C Cv (N + M), the
    quadratic order (phi(Q) phi(K)^T) V over its row sums N M (C + Cv).
    So large sets (the coarse grid) take the linear order and short ones
    (the fine windows) the quadratic; both compute the same function.
    """
    queries, keys, values = _as_float(queries), _as_float(keys), _as_float(values)
    if queries.shape[-1] != keys.shape[-1] or keys.shape[-2] != values.shape[-2]:
        raise ValueError(
            f"shape mismatch: Q{queries.shape} K{keys.shape} V{values.shape}"
        )
    Q = elu_plus_one(queries)
    K = elu_plus_one(keys)
    if _quadratic_order(queries.shape, keys.shape, values.shape):
        weights = Q @ np.swapaxes(K, -1, -2)          # (..., N, M)
        z = weights.sum(axis=-1)                      # (..., N)
        out = weights @ values
    else:
        kv = np.swapaxes(K, -1, -2) @ values          # (..., C, Cv)
        z = (Q @ K.sum(axis=-2)[..., None])[..., 0]   # (..., N)
        out = Q @ kv
    out /= np.maximum(z, eps)[..., None]
    return out


@dataclass
class AttentionLayer:
    """One encoder layer: projected linear attention, residual, feed-forward."""

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    ff1: np.ndarray
    ff2: np.ndarray

    def apply(self, x: np.ndarray, source: np.ndarray) -> np.ndarray:
        """x attends to source; (..., N, C) stacks with matching leading axes.

        Computes h = x + message and h + relu(h ff1) ff2 in reused buffers;
        IEEE addition commutes, so the in-place sums are the same bits.
        """
        h = linear_attention(x @ self.wq, source @ self.wk, source @ self.wv)
        h += x
        hidden = h @ self.ff1
        np.maximum(hidden, 0.0, out=hidden)
        out = hidden @ self.ff2
        out += h
        return out


@dataclass
class AttentionStack:
    """Interleaved self/cross layers applied symmetrically to two feature sets."""

    layers: list[tuple[AttentionLayer, AttentionLayer]]  # (self, cross) per depth

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @classmethod
    def random(cls, n_layers: int, dim: int, seed: int) -> "AttentionStack":
        """Seeded-random weights; output projections damped so layers start near identity.

        Untrained layers must not erase the descriptor signal carried by the
        residual stream, otherwise matching with the default layer counts
        would need trained weights to function at all.
        """
        rng = np.random.default_rng([seed, _ATTENTION_WEIGHT_STREAM, n_layers, dim])
        scale = 1.0 / np.sqrt(dim)
        damped = {"v", "ff2"}
        layers = []
        for _ in range(n_layers):
            pair = []
            for _ in range(2):
                w = [
                    rng.normal(0.0, (0.1 if role in damped else 1.0) * scale, (dim, dim))
                    for role in _WEIGHT_ROLES
                ]
                pair.append(AttentionLayer(*w))
            layers.append(tuple(pair))
        return cls(layers=layers)

    def transform(self, feats_a: np.ndarray, feats_b: np.ndarray):
        """Self-attend each set, then cross-attend both directions, per layer.

        Sets are (N, C) or (..., N, C) stacks of independent problems.
        Float32 sets through a float32 stack stay float32.
        """
        a, b = _as_float(feats_a), _as_float(feats_b)
        for self_layer, cross_layer in self.layers:
            a = self_layer.apply(a, a)
            b = self_layer.apply(b, b)
            a2 = cross_layer.apply(a, b)
            b2 = cross_layer.apply(b, a)
            a, b = a2, b2
        return a, b

    def astype(self, dtype) -> "AttentionStack":
        """The same stack with every weight cast to `dtype` (no copy where it already is)."""
        def cast(layer: AttentionLayer) -> AttentionLayer:
            return AttentionLayer(
                *(getattr(layer, f.name).astype(dtype, copy=False) for f in fields(layer))
            )

        return AttentionStack(layers=[tuple(cast(layer) for layer in pair) for pair in self.layers])

    def to_sections(self) -> dict[str, np.ndarray]:
        """FMAT sections keyed layer{i}.{self|cross}.{q|k|v|ff1|ff2}."""
        sections = {}
        for i, (self_layer, cross_layer) in enumerate(self.layers):
            for kind, layer in (("self", self_layer), ("cross", cross_layer)):
                for role in _WEIGHT_ROLES:
                    key = {"q": "wq", "k": "wk", "v": "wv"}.get(role, role)
                    sections[f"layer{i}.{kind}.{role}"] = getattr(layer, key)
        return sections

    @property
    def width(self) -> int | None:
        """Width C of the features the stack takes and returns (None with no layers)."""
        return self.layers[0][0].wq.shape[0] if self.layers else None

    @classmethod
    def from_sections(cls, sections: dict[str, np.ndarray]) -> "AttentionStack":
        """A stack from FMAT sections; ValueError names a missing, misshapen or non-finite matrix.

        Every layer maps C-wide features to C-wide features: q, k and v are
        (C, .) with q and k equally wide, v is (C, C), ff1 is (C, F) and ff2
        (F, C), with C taken from layer0.self.q.
        """
        n_layers = 0
        while f"layer{n_layers}.self.q" in sections:
            n_layers += 1
        width = None
        layers = []
        for i in range(n_layers):
            pair = []
            for kind in ("self", "cross"):
                names = [f"layer{i}.{kind}.{role}" for role in _WEIGHT_ROLES]
                for name in names:
                    if name not in sections:
                        raise ValueError(f"attention weights have no section {name}")
                    if sections[name].ndim != 2:
                        raise ValueError(f"{name} has {sections[name].ndim} axes, expected 2")
                    if not np.all(np.abs(sections[name]) <= np.finfo(np.float32).max):  # or NaN
                        raise ValueError(f"{name} holds an entry that is not finite in float32")
                w = [sections[name] for name in names]
                q, _, _, ff1, _ = w
                width = q.shape[0] if width is None else width
                expected = [
                    (width, q.shape[1]),
                    (width, q.shape[1]),
                    (width, width),
                    (width, ff1.shape[1]),
                    (ff1.shape[1], width),
                ]
                for name, m, shape in zip(names, w, expected):
                    if m.shape != shape:
                        raise ValueError(
                            f"{name} is {m.shape[0]} x {m.shape[1]}, expected {shape[0]} x {shape[1]}"
                        )
                pair.append(AttentionLayer(*w))
            layers.append(tuple(pair))
        return cls(layers=layers)
