"""Convolution layers (2-D and dilated causal 1-D), im2col based.

Conventions: 2-D inputs are ``(channels, height, width)`` per sample with
height = time and width = LOB features, matching the DeepLOB layout.
1-D inputs are ``(timesteps, channels)``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.nn.initializers import he_uniform, zeros
from repro.nn.layers.base import Layer, conv_output_length


def _pad_amounts(length: int, kernel: int, stride: int, dilation: int = 1) -> tuple[int, int]:
    """'same' padding (before, after) along one axis."""
    effective = (kernel - 1) * dilation + 1
    out_len = -(-length // stride)
    total = max((out_len - 1) * stride + effective - length, 0)
    return total // 2, total - total // 2


class Conv2D(Layer):
    """2-D convolution over ``(C, H, W)`` inputs via im2col + matmul.

    Per-call work is the matmul plus a few array-header operations: the
    "same" padding offsets and the patch-window strides are fixed at
    build, the padded input is a zeroed buffer filled by one slice
    assignment, and the patch matrix is a strided view over that buffer.
    The view keeps the strides the matmul has always seen — for a
    single-channel full-width kernel it is a transposed, row-overlapping
    view — because a C-contiguous copy of the same values takes a
    different matmul kernel and moves outputs in the last bits.  Inputs
    not in C order are copied to C order first, so the output does not
    depend on the caller's memory layout.
    """

    def __init__(
        self,
        filters: int,
        kernel_size: tuple[int, int],
        stride: tuple[int, int] = (1, 1),
        padding: str = "same",
        name: str | None = None,
    ) -> None:
        super().__init__(name)
        if filters <= 0:
            raise ModelError(f"filters must be positive, got {filters}")
        if min(kernel_size) <= 0 or min(stride) <= 0:
            raise ModelError(
                f"Conv2D kernel_size and stride must be positive, got {kernel_size}, {stride}"
            )
        if padding not in ("same", "valid"):
            raise ModelError(f"Conv2D padding must be same/valid, got {padding!r}")
        self.filters = filters
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self._padded_shape: tuple[int, int, int] = (0, 0, 0)
        self._interior: tuple[slice, slice] | None = None
        self._window_shape: tuple[int, ...] = ()
        self._window_strides: tuple[int, ...] = ()

    def _build(
        self, input_shape: tuple[int, ...], rng: np.random.Generator
    ) -> tuple[int, ...]:
        if len(input_shape) != 3:
            raise ModelError(f"{self.name}: Conv2D expects (C, H, W), got {input_shape}")
        channels, height, width = input_shape
        kh, kw = self.kernel_size
        sh, sw = self.stride
        fan_in = channels * kh * kw
        self.params["weight"] = he_uniform(
            rng, (self.filters, channels, kh, kw), fan_in=fan_in
        )
        self.params["bias"] = zeros((self.filters,))
        out_h = conv_output_length(height, kh, sh, self.padding)
        out_w = conv_output_length(width, kw, sw, self.padding)
        if self.padding == "same":
            top, bottom = _pad_amounts(height, kh, sh)
            left, right = _pad_amounts(width, kw, sw)
            self._interior = (slice(top, top + height), slice(left, left + width))
            height, width = height + top + bottom, width + left + right
        self._padded_shape = (channels, height, width)
        # Patch windows over a C-contiguous (N, C, H, W) float32 buffer,
        # minus the batch axis: (C, out_h, out_w, kh, kw).
        item = np.dtype(np.float32).itemsize
        row, col = width * item, item
        self._window_shape = (channels, out_h, out_w, kh, kw)
        self._window_strides = (height * row, row * sh, col * sw, row, col)
        return (self.filters, out_h, out_w)

    def _forward(self, x: np.ndarray) -> np.ndarray:
        n = x.shape[0]
        if self._interior is not None:
            rows, cols = self._interior
            padded = np.zeros((n, *self._padded_shape), dtype=np.float32)
            padded[:, :, rows, cols] = x
            x = padded
        else:
            x = np.ascontiguousarray(x)
        windows = np.ndarray(
            (n, *self._window_shape),
            dtype=np.float32,
            buffer=x,
            strides=(x.strides[0], *self._window_strides),
        )
        # (N, C, out_h, out_w, kh, kw) -> (N, C*kh*kw, out_h*out_w); a view
        # where the axes merge, a copy otherwise — as the matmul expects.
        channels, out_h, out_w, kh, kw = self._window_shape
        patches = windows.transpose(0, 1, 4, 5, 2, 3).reshape(
            n, channels * kh * kw, out_h * out_w
        )
        weight = self.params["weight"].reshape(self.filters, -1)
        out = weight @ patches + self.params["bias"][:, None]
        return out.reshape(n, self.filters, out_h, out_w)

    def _macs(self) -> int:
        out_c, out_h, out_w = self.output_shape
        in_c = self.input_shape[0]
        kh, kw = self.kernel_size
        return out_c * out_h * out_w * in_c * kh * kw

    def _aux_ops(self) -> int:
        return int(np.prod(self.output_shape))  # bias adds


class CausalConv1D(Layer):
    """Dilated causal 1-D convolution over ``(T, C)`` inputs (TransLOB)."""

    def __init__(
        self,
        filters: int,
        kernel_size: int,
        dilation: int = 1,
        name: str | None = None,
    ) -> None:
        super().__init__(name)
        if filters <= 0 or kernel_size <= 0 or dilation <= 0:
            raise ModelError("filters, kernel_size and dilation must be positive")
        self.filters = filters
        self.kernel_size = kernel_size
        self.dilation = dilation

    def _build(
        self, input_shape: tuple[int, ...], rng: np.random.Generator
    ) -> tuple[int, ...]:
        if len(input_shape) != 2:
            raise ModelError(f"{self.name}: CausalConv1D expects (T, C), got {input_shape}")
        timesteps, channels = input_shape
        fan_in = channels * self.kernel_size
        self.params["weight"] = he_uniform(
            rng, (self.kernel_size, channels, self.filters), fan_in=fan_in
        )
        self.params["bias"] = zeros((self.filters,))
        return (timesteps, self.filters)

    def _forward(self, x: np.ndarray) -> np.ndarray:
        n, timesteps, channels = x.shape
        left_pad = (self.kernel_size - 1) * self.dilation
        padded = np.zeros((n, left_pad + timesteps, channels), dtype=np.float32)
        padded[:, left_pad:, :] = x
        out = np.zeros((n, timesteps, self.filters), dtype=np.float32)
        for k in range(self.kernel_size):
            start = k * self.dilation
            out += padded[:, start : start + timesteps, :] @ self.params["weight"][k]
        return out + self.params["bias"]

    def _macs(self) -> int:
        timesteps, __ = self.input_shape
        return timesteps * self.filters * self.input_shape[1] * self.kernel_size

    def _aux_ops(self) -> int:
        return int(np.prod(self.output_shape))
