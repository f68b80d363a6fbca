"""Layer abstraction for the numpy inference library.

A :class:`Layer` is built once against a concrete per-sample input shape
(shapes never include the batch dimension), after which it can run
``forward`` on ``(batch, *input_shape)`` arrays and report its compute
footprint — multiply-accumulates (:meth:`Layer.macs`, tensor-engine work
on the CGRA) and auxiliary element-wise operations (:meth:`Layer.aux_ops`,
extended-PE work such as activations and normalisation).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import ModelError


class Layer(abc.ABC):
    """Base class for all layers."""

    def __init__(self, name: str | None = None) -> None:
        self.name = name or type(self).__name__
        # Empty until build(); ``_built`` says whether they are real.
        self.input_shape: tuple[int, ...] = ()
        self.output_shape: tuple[int, ...] = ()
        self.params: dict[str, np.ndarray] = {}
        self._built = False

    # -- lifecycle ---------------------------------------------------------------

    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator) -> tuple[int, ...]:
        """Allocate parameters for ``input_shape``; returns the output shape."""
        if self._built:
            raise ModelError(f"layer {self.name} already built")
        self.input_shape = tuple(input_shape)
        self.output_shape = self._build(self.input_shape, rng)
        self._built = True
        return self.output_shape

    @abc.abstractmethod
    def _build(
        self, input_shape: tuple[int, ...], rng: np.random.Generator
    ) -> tuple[int, ...]:
        """Subclass hook: validate shape, create params, return output shape."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the layer on a batch ``(N, *input_shape)``."""
        self._require_built()
        if x.shape[1:] != self.input_shape:
            raise ModelError(
                f"{self.name}: expected input {self.input_shape}, got {x.shape[1:]}"
            )
        return self._forward(np.asarray(x, dtype=np.float32))

    @abc.abstractmethod
    def _forward(self, x: np.ndarray) -> np.ndarray:
        """Subclass hook: the actual computation."""

    # -- accounting ---------------------------------------------------------------

    def macs(self) -> int:
        """Multiply-accumulate count for ONE sample (tensor-engine work)."""
        self._require_built()
        return self._macs()

    def _macs(self) -> int:
        return 0

    def aux_ops(self) -> int:
        """Element-wise/special-function ops for ONE sample (EPE work)."""
        self._require_built()
        return self._aux_ops()

    def _aux_ops(self) -> int:
        return 0

    def param_count(self) -> int:
        """Total learnable scalars in this layer."""
        return sum(int(np.prod(p.shape)) for p in self.params.values())

    def weight_bytes(self, bytes_per_param: int = 2) -> int:
        """Parameter footprint (default BF16: 2 bytes per scalar)."""
        return self.param_count() * bytes_per_param

    def _require_built(self) -> None:
        if not self._built:
            raise ModelError(f"layer {self.name} used before build()")

    def __repr__(self) -> str:
        shape = f"{self.input_shape}->{self.output_shape}" if self._built else "unbuilt"
        return f"<{type(self).__name__} {self.name} {shape}>"


def conv_output_length(length: int, kernel: int, stride: int, padding: str, dilation: int = 1) -> int:
    """Output length of a 1-D convolution along one axis."""
    effective = (kernel - 1) * dilation + 1
    if padding == "same":
        return -(-length // stride)  # ceil division
    if padding == "valid":
        if length < effective:
            raise ModelError(
                f"input length {length} shorter than effective kernel {effective}"
            )
        return (length - effective) // stride + 1
    if padding == "causal":
        return -(-length // stride)
    raise ModelError(f"unknown padding {padding!r}")
