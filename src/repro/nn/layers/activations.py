"""Element-wise activation layers (EPE work on the accelerator)."""

from __future__ import annotations

import numpy as np

from repro.nn.layers.base import Layer


class _Activation(Layer):
    """Shared plumbing: shape-preserving, parameter-free."""

    def _build(
        self, input_shape: tuple[int, ...], rng: np.random.Generator
    ) -> tuple[int, ...]:
        return input_shape

    def _aux_ops(self) -> int:
        return int(np.prod(self.output_shape))


class ReLU(_Activation):
    """max(x, 0)."""

    def _forward(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)


class LeakyReLU(_Activation):
    """x for x>0 else alpha*x (DeepLOB uses alpha=0.01)."""

    def __init__(self, alpha: float = 0.01, name: str | None = None) -> None:
        super().__init__(name)
        self.alpha = alpha

    def _forward(self, x: np.ndarray) -> np.ndarray:
        return np.where(x > 0, x, self.alpha * x)


class Tanh(_Activation):
    """Hyperbolic tangent."""

    def _forward(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x)


class Sigmoid(_Activation):
    """Logistic sigmoid."""

    def _forward(self, x: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-x))


class GELU(_Activation):
    """Gaussian error linear unit (tanh approximation)."""

    def _forward(self, x: np.ndarray) -> np.ndarray:
        return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)))


class Softmax(_Activation):
    """Numerically stable softmax over the last axis."""

    def _forward(self, x: np.ndarray) -> np.ndarray:
        shifted = x - x.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=-1, keepdims=True)

    def _aux_ops(self) -> int:
        # exp + sum + divide per element, approximately 3 special-function ops.
        return 3 * int(np.prod(self.output_shape))


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Functional stable softmax (used inside attention)."""
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)
