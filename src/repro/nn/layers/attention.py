"""Attention layers for the TransLOB architecture."""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.nn.initializers import glorot_uniform, zeros
from repro.nn.layers.base import Layer
from repro.nn.layers.activations import softmax
from repro.nn.layers.norm import LayerNorm


class PositionalEncoding(Layer):
    """Adds sinusoidal position information to a ``(T, D)`` sequence."""

    def _build(
        self, input_shape: tuple[int, ...], rng: np.random.Generator
    ) -> tuple[int, ...]:
        if len(input_shape) != 2:
            raise ModelError(f"{self.name}: expects (T, D), got {input_shape}")
        timesteps, dim = input_shape
        position = np.arange(timesteps, dtype=np.float32)[:, None]
        half = (dim + 1) // 2
        div = np.exp(np.arange(half, dtype=np.float32) * (-np.log(10_000.0) / max(half, 1)))
        encoding = np.zeros((timesteps, dim), dtype=np.float32)
        encoding[:, 0::2] = np.sin(position * div)[:, : encoding[:, 0::2].shape[1]]
        encoding[:, 1::2] = np.cos(position * div)[:, : encoding[:, 1::2].shape[1]]
        self._encoding = encoding
        return input_shape

    def _forward(self, x: np.ndarray) -> np.ndarray:
        return x + self._encoding

    def _aux_ops(self) -> int:
        return int(np.prod(self.output_shape))


class MultiHeadSelfAttention(Layer):
    """Standard scaled-dot-product multi-head self-attention over (T, D)."""

    def __init__(self, heads: int, name: str | None = None) -> None:
        super().__init__(name)
        if heads <= 0:
            raise ModelError(f"heads must be positive, got {heads}")
        self.heads = heads

    def _build(
        self, input_shape: tuple[int, ...], rng: np.random.Generator
    ) -> tuple[int, ...]:
        if len(input_shape) != 2:
            raise ModelError(f"{self.name}: expects (T, D), got {input_shape}")
        __, dim = input_shape
        if dim % self.heads != 0:
            raise ModelError(f"{self.name}: dim {dim} not divisible by {self.heads} heads")
        for proj in ("wq", "wk", "wv", "wo"):
            self.params[proj] = glorot_uniform(rng, (dim, dim), fan_in=dim, fan_out=dim)
        self.params["bo"] = zeros((dim,))
        return input_shape

    def _forward(self, x: np.ndarray) -> np.ndarray:
        n, timesteps, dim = x.shape
        head_dim = dim // self.heads

        def project(name: str) -> np.ndarray:
            out = x @ self.params[name]  # (N, T, D)
            return out.reshape(n, timesteps, self.heads, head_dim).transpose(0, 2, 1, 3)

        q, k, v = project("wq"), project("wk"), project("wv")
        scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(head_dim)
        weights = softmax(scores, axis=-1)
        context = weights @ v  # (N, heads, T, head_dim)
        merged = context.transpose(0, 2, 1, 3).reshape(n, timesteps, dim)
        return merged @ self.params["wo"] + self.params["bo"]

    def _macs(self) -> int:
        timesteps, dim = self.input_shape
        projections = 4 * timesteps * dim * dim
        attention = 2 * self.heads * timesteps * timesteps * (dim // self.heads)
        return projections + attention

    def _aux_ops(self) -> int:
        timesteps, __ = self.input_shape
        return 3 * self.heads * timesteps * timesteps  # softmax work


class TransformerBlock(Layer):
    """Pre-norm transformer encoder block: MHSA + position-wise MLP."""

    def __init__(self, heads: int, mlp_ratio: int = 4, name: str | None = None) -> None:
        super().__init__(name)
        self.heads = heads
        self.mlp_ratio = mlp_ratio
        self._attention = MultiHeadSelfAttention(heads, name=f"{self.name}.attn")
        self._norm1 = LayerNorm(name=f"{self.name}.norm1")
        self._norm2 = LayerNorm(name=f"{self.name}.norm2")

    def _build(
        self, input_shape: tuple[int, ...], rng: np.random.Generator
    ) -> tuple[int, ...]:
        if len(input_shape) != 2:
            raise ModelError(f"{self.name}: expects (T, D), got {input_shape}")
        __, dim = input_shape
        hidden = dim * self.mlp_ratio
        self._norm1.build(input_shape, rng)
        self._attention.build(input_shape, rng)
        self._norm2.build(input_shape, rng)
        self.params["w1"] = glorot_uniform(rng, (dim, hidden), fan_in=dim, fan_out=hidden)
        self.params["b1"] = zeros((hidden,))
        self.params["w2"] = glorot_uniform(rng, (hidden, dim), fan_in=hidden, fan_out=dim)
        self.params["b2"] = zeros((dim,))
        return input_shape

    def _forward(self, x: np.ndarray) -> np.ndarray:
        attended = x + self._attention.forward(self._norm1.forward(x))
        hidden = self._norm2.forward(attended) @ self.params["w1"] + self.params["b1"]
        hidden = np.maximum(hidden, 0.0)
        return attended + hidden @ self.params["w2"] + self.params["b2"]

    def _macs(self) -> int:
        timesteps, dim = self.input_shape
        mlp = 2 * timesteps * dim * dim * self.mlp_ratio
        return self._attention.macs() + mlp

    def _aux_ops(self) -> int:
        return (
            self._attention.aux_ops()
            + self._norm1.aux_ops()
            + self._norm2.aux_ops()
            + 3 * int(np.prod(self.output_shape))
        )

    def param_count(self) -> int:
        own = sum(int(np.prod(p.shape)) for p in self.params.values())
        return (
            own
            + self._attention.param_count()
            + self._norm1.param_count()
            + self._norm2.param_count()
        )
