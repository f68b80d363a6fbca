"""DeepLOB's inception module: parallel temporal convolutions, concatenated."""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.nn.layers.activations import LeakyReLU
from repro.nn.layers.base import Layer
from repro.nn.layers.conv import Conv2D


class InceptionModule(Layer):
    """Three parallel branches over ``(C, T, 1)`` feature maps.

    Branch 1: 1×1 conv → 3×1 conv; branch 2: 1×1 conv → 5×1 conv;
    branch 3: 3×1 max-pool → 1×1 conv.  Outputs concatenate along the
    channel axis, giving ``3 * filters`` channels (DeepLOB Fig. 5).
    """

    def __init__(self, filters: int = 32, name: str | None = None) -> None:
        super().__init__(name)
        if filters <= 0:
            raise ModelError(f"filters must be positive, got {filters}")
        self.filters = filters
        f = filters
        self._branch1 = [
            Conv2D(f, (1, 1), name=f"{self.name}.b1.reduce"),
            LeakyReLU(name=f"{self.name}.b1.act1"),
            Conv2D(f, (3, 1), name=f"{self.name}.b1.conv"),
            LeakyReLU(name=f"{self.name}.b1.act2"),
        ]
        self._branch2 = [
            Conv2D(f, (1, 1), name=f"{self.name}.b2.reduce"),
            LeakyReLU(name=f"{self.name}.b2.act1"),
            Conv2D(f, (5, 1), name=f"{self.name}.b2.conv"),
            LeakyReLU(name=f"{self.name}.b2.act2"),
        ]
        self._branch3 = [
            Conv2D(f, (1, 1), name=f"{self.name}.b3.conv"),
            LeakyReLU(name=f"{self.name}.b3.act"),
        ]

    @property
    def branches(self) -> list[list[Layer]]:
        """The three branch pipelines (pool in branch 3 is implicit)."""
        return [self._branch1, self._branch2, self._branch3]

    def _build(
        self, input_shape: tuple[int, ...], rng: np.random.Generator
    ) -> tuple[int, ...]:
        if len(input_shape) != 3 or input_shape[2] != 1:
            raise ModelError(f"{self.name}: expects (C, T, 1), got {input_shape}")
        shapes: list[tuple[int, ...]] = []
        for branch in (self._branch1, self._branch2):
            shape = input_shape
            for layer in branch:
                shape = layer.build(shape, rng)
            shapes.append(shape)
        # Branch 3's max-pool is 'same' (stride 1), so shape is unchanged.
        shape = input_shape
        for layer in self._branch3:
            shape = layer.build(shape, rng)
        shapes.append(shape)
        if len({s[1:] for s in shapes}) != 1:
            raise ModelError(f"{self.name}: branch shapes diverge: {shapes}")
        channels = sum(s[0] for s in shapes)
        return (channels, *shapes[0][1:])

    def _forward(self, x: np.ndarray) -> np.ndarray:
        out1 = self._run(self._branch1, x)
        out2 = self._run(self._branch2, x)
        pooled = self._same_maxpool_time(x, size=3)
        out3 = self._run(self._branch3, pooled)
        return np.concatenate([out1, out2, out3], axis=1)

    @staticmethod
    def _run(branch: list[Layer], x: np.ndarray) -> np.ndarray:
        for layer in branch:
            x = layer.forward(x)
        return x

    @staticmethod
    def _same_maxpool_time(x: np.ndarray, size: int) -> np.ndarray:
        """Stride-1 'same' max pool along the time (H) axis.

        Each output step is the maximum over the ``size`` input steps
        centred on it; steps past either edge are left out, as if padded
        with ``-inf``.
        """
        before = size // 2
        out = x.copy()
        for shift in range(-before, size - before):
            if shift < 0:
                np.maximum(out[:, :, -shift:], x[:, :, :shift], out=out[:, :, -shift:])
            elif shift > 0:
                np.maximum(out[:, :, :-shift], x[:, :, shift:], out=out[:, :, :-shift])
        return out

    def _macs(self) -> int:
        return sum(
            layer.macs() for branch in self.branches for layer in branch
        )

    def _aux_ops(self) -> int:
        pool = 2 * int(np.prod(self.input_shape))
        return pool + sum(
            layer.aux_ops() for branch in self.branches for layer in branch
        )

    def param_count(self) -> int:
        return sum(layer.param_count() for branch in self.branches for layer in branch)
