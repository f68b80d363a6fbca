"""Pooling and shape-manipulation layers."""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.nn.layers.base import Layer


class MaxPool2D(Layer):
    """Max pooling over ``(C, H, W)`` inputs, non-overlapping by default.

    The forward pass is a running ``np.maximum`` over the ``ph × pw``
    strided slices ``x[:, :, i::sh, j::sw]`` (one per window offset, cut
    at build to the output extent), which covers overlapping and gapped
    strides alike.
    """

    def __init__(
        self,
        pool_size: tuple[int, int],
        stride: tuple[int, int] | None = None,
        name: str | None = None,
    ) -> None:
        super().__init__(name)
        self.pool_size = pool_size
        self.stride = stride or pool_size
        if min(self.pool_size) <= 0 or min(self.stride) <= 0:
            raise ModelError(
                f"MaxPool2D pool_size and stride must be positive, got "
                f"{self.pool_size}, {self.stride}"
            )
        self._offsets: list[tuple[slice, slice]] = []

    def _build(
        self, input_shape: tuple[int, ...], rng: np.random.Generator
    ) -> tuple[int, ...]:
        if len(input_shape) != 3:
            raise ModelError(f"{self.name}: MaxPool2D expects (C, H, W), got {input_shape}")
        c, h, w = input_shape
        ph, pw = self.pool_size
        sh, sw = self.stride
        if h < ph or w < pw:
            raise ModelError(f"{self.name}: pool {self.pool_size} larger than input {input_shape}")
        out_h, out_w = (h - ph) // sh + 1, (w - pw) // sw + 1
        self._offsets = [
            (slice(i, i + (out_h - 1) * sh + 1, sh), slice(j, j + (out_w - 1) * sw + 1, sw))
            for i in range(ph)
            for j in range(pw)
        ]
        return (c, out_h, out_w)

    def _forward(self, x: np.ndarray) -> np.ndarray:
        (rows, cols), *rest = self._offsets
        out = x[:, :, rows, cols].copy()
        for rows, cols in rest:
            np.maximum(out, x[:, :, rows, cols], out=out)
        return out

    def _aux_ops(self) -> int:
        ph, pw = self.pool_size
        return int(np.prod(self.output_shape)) * (ph * pw - 1)  # comparisons


class GlobalAveragePool(Layer):
    """Mean over all spatial axes of ``(C, H, W)`` → ``(C,)``."""

    def _build(
        self, input_shape: tuple[int, ...], rng: np.random.Generator
    ) -> tuple[int, ...]:
        if len(input_shape) != 3:
            raise ModelError(f"{self.name}: expects (C, H, W), got {input_shape}")
        return (input_shape[0],)

    def _forward(self, x: np.ndarray) -> np.ndarray:
        return x.mean(axis=(2, 3))

    def _aux_ops(self) -> int:
        return int(np.prod(self.input_shape))


class Flatten(Layer):
    """Collapse all per-sample axes into one feature vector."""

    def _build(
        self, input_shape: tuple[int, ...], rng: np.random.Generator
    ) -> tuple[int, ...]:
        return (int(np.prod(input_shape)),)

    def _forward(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(x.shape[0], -1)


class ToSequence(Layer):
    """Reinterpret ``(C, T, 1)`` conv output as an LSTM sequence ``(T, C)``.

    DeepLOB feeds its inception output (channels over time, width reduced
    to 1) into an LSTM; this layer performs that axis permutation.
    """

    def _build(
        self, input_shape: tuple[int, ...], rng: np.random.Generator
    ) -> tuple[int, ...]:
        if len(input_shape) != 3 or input_shape[2] != 1:
            raise ModelError(
                f"{self.name}: expects (C, T, 1) conv output, got {input_shape}"
            )
        return (input_shape[1], input_shape[0])

    def _forward(self, x: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(x[:, :, :, 0].transpose(0, 2, 1))


class TakeLast(Layer):
    """Keep only the final timestep of a ``(T, F)`` sequence → ``(F,)``."""

    def _build(
        self, input_shape: tuple[int, ...], rng: np.random.Generator
    ) -> tuple[int, ...]:
        if len(input_shape) != 2:
            raise ModelError(f"{self.name}: expects (T, F), got {input_shape}")
        return (input_shape[1],)

    def _forward(self, x: np.ndarray) -> np.ndarray:
        return x[:, -1, :]
