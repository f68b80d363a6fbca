"""Normalisation layers."""

from __future__ import annotations

import numpy as np

from repro.nn.initializers import zeros
from repro.nn.layers.base import Layer


class LayerNorm(Layer):
    """Layer normalisation over the last axis with learnable gain/bias."""

    def __init__(self, epsilon: float = 1e-5, name: str | None = None) -> None:
        super().__init__(name)
        self.epsilon = epsilon

    def _build(
        self, input_shape: tuple[int, ...], rng: np.random.Generator
    ) -> tuple[int, ...]:
        features = input_shape[-1]
        self.params["gamma"] = np.ones((features,), dtype=np.float32)
        self.params["beta"] = zeros((features,))
        return input_shape

    def _forward(self, x: np.ndarray) -> np.ndarray:
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        normed = (x - mean) / np.sqrt(var + self.epsilon)
        return normed * self.params["gamma"] + self.params["beta"]

    def _aux_ops(self) -> int:
        # mean, variance, normalise, scale+shift: ~5 elementwise passes.
        return 5 * int(np.prod(self.output_shape))


class BatchNormInference(Layer):
    """Batch normalisation in inference mode (fixed statistics).

    Running statistics are initialised to the identity transform; loading
    trained statistics is a matter of assigning ``params`` directly.
    """

    def __init__(self, epsilon: float = 1e-5, name: str | None = None) -> None:
        super().__init__(name)
        self.epsilon = epsilon

    def _build(
        self, input_shape: tuple[int, ...], rng: np.random.Generator
    ) -> tuple[int, ...]:
        channels = input_shape[0]
        self.params["gamma"] = np.ones((channels,), dtype=np.float32)
        self.params["beta"] = zeros((channels,))
        self.params["running_mean"] = zeros((channels,))
        self.params["running_var"] = np.ones((channels,), dtype=np.float32)
        return input_shape

    def _forward(self, x: np.ndarray) -> np.ndarray:
        shape = (1, -1) + (1,) * (x.ndim - 2)
        mean = self.params["running_mean"].reshape(shape)
        var = self.params["running_var"].reshape(shape)
        gamma = self.params["gamma"].reshape(shape)
        beta = self.params["beta"].reshape(shape)
        return (x - mean) / np.sqrt(var + self.epsilon) * gamma + beta

    def _aux_ops(self) -> int:
        return 4 * int(np.prod(self.output_shape))
