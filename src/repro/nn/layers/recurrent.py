"""Recurrent layers: LSTM (the DeepLOB temporal head)."""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.nn.initializers import glorot_uniform, orthogonal, zeros
from repro.nn.layers.base import Layer


class LSTM(Layer):
    """Single-layer LSTM over ``(T, F)`` inputs.

    Gate order in the fused kernels is (input, forget, cell, output).
    ``return_sequences`` selects between the full hidden sequence
    ``(T, H)`` and the last hidden state ``(H,)``.
    """

    def __init__(
        self, units: int, return_sequences: bool = False, name: str | None = None
    ) -> None:
        super().__init__(name)
        if units <= 0:
            raise ModelError(f"units must be positive, got {units}")
        self.units = units
        self.return_sequences = return_sequences

    def _build(
        self, input_shape: tuple[int, ...], rng: np.random.Generator
    ) -> tuple[int, ...]:
        if len(input_shape) != 2:
            raise ModelError(f"{self.name}: LSTM expects (T, F), got {input_shape}")
        __, features = input_shape
        h = self.units
        self.params["kernel"] = glorot_uniform(
            rng, (features, 4 * h), fan_in=features, fan_out=4 * h
        )
        self.params["recurrent"] = np.concatenate(
            [orthogonal(rng, (h, h)) for __ in range(4)], axis=1
        )
        bias = zeros((4 * h,))
        bias[h : 2 * h] = 1.0  # forget-gate bias init
        self.params["bias"] = bias
        if self.return_sequences:
            return (input_shape[0], h)
        return (h,)

    def _forward(self, x: np.ndarray) -> np.ndarray:
        n, timesteps, __ = x.shape
        h_units = self.units
        kernel = self.params["kernel"]
        recurrent = self.params["recurrent"]
        bias = self.params["bias"]

        h = np.zeros((n, h_units), dtype=np.float32)
        c = np.zeros((n, h_units), dtype=np.float32)
        # Input projections for all timesteps in one matmul.
        projected = x @ kernel + bias  # (N, T, 4H)
        outputs = np.empty((n, timesteps, h_units), dtype=np.float32) if self.return_sequences else None
        for t in range(timesteps):
            gates = projected[:, t, :] + h @ recurrent
            i = _sigmoid(gates[:, :h_units])
            f = _sigmoid(gates[:, h_units : 2 * h_units])
            g = np.tanh(gates[:, 2 * h_units : 3 * h_units])
            o = _sigmoid(gates[:, 3 * h_units :])
            c = f * c + i * g
            h = o * np.tanh(c)
            if outputs is not None:
                outputs[:, t, :] = h
        return outputs if outputs is not None else h

    def _macs(self) -> int:
        timesteps, features = self.input_shape
        h = self.units
        return timesteps * (features * 4 * h + h * 4 * h)

    def _aux_ops(self) -> int:
        timesteps, __ = self.input_shape
        # 3 sigmoids + 2 tanh + 3 hadamard products + adds per unit per step.
        return timesteps * self.units * 10


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Clip to keep exp() in range; sigmoid saturates far inside ±60 anyway.
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))
