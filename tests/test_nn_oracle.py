"""Differential oracle: the convolution and pooling layers against the
``np.pad`` / ``as_strided`` reference implementations they replaced.

The helpers below are the earlier per-call code, kept verbatim in
behaviour: "same" padding by ``np.pad``, im2col as an ``as_strided``
window view, max-pooling as a reduction over a strided window view, and
DeepLOB's time pool as ``np.pad(-inf)`` plus ``np.stack``.  Every
comparison is exact (``np.array_equal`` plus dtype and shape): the
rewrite changed no arithmetic and must hand the matmul operands of the
same layout, so not even the last bit may move.
"""

import numpy as np
import pytest

from repro.nn.layers import CausalConv1D, Conv2D, InceptionModule, Layer, MaxPool2D
from repro.nn.models.zoo import benchmark_models, complexity_sweep
from repro.nn.precision import Precision, cast

# -- reference implementations -------------------------------------------------


def _ref_pad_amounts(length, kernel, stride):
    out_len = -(-length // stride)
    total = max((out_len - 1) * stride + kernel - length, 0)
    return total // 2, total - total // 2


def _ref_im2col(x, kh, kw, sh, sw):
    n, c, h, w = x.shape
    out_h = (h - kh) // sh + 1
    out_w = (w - kw) // sw + 1
    strides = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kh, kw),
        strides=(
            strides[0],
            strides[1],
            strides[2] * sh,
            strides[3] * sw,
            strides[2],
            strides[3],
        ),
        writeable=False,
    )
    return (
        windows.transpose(0, 1, 4, 5, 2, 3)
        .reshape(n, c * kh * kw, out_h * out_w)
        .astype(np.float32, copy=False)
    )


def ref_conv2d(layer, x):
    n, __, height, width = x.shape
    kh, kw = layer.kernel_size
    sh, sw = layer.stride
    if layer.padding == "same":
        ph = _ref_pad_amounts(height, kh, sh)
        pw = _ref_pad_amounts(width, kw, sw)
        x = np.pad(x, ((0, 0), (0, 0), ph, pw))
    cols = _ref_im2col(x, kh, kw, sh, sw)
    weight = layer.params["weight"].reshape(layer.filters, -1)
    out = weight @ cols + layer.params["bias"][:, None]
    return out.reshape(n, *layer.output_shape)


def ref_maxpool2d(layer, x):
    n, c, __, __ = x.shape
    ph, pw = layer.pool_size
    sh, sw = layer.stride
    __, out_h, out_w = layer.output_shape
    strides = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, ph, pw),
        strides=(
            strides[0],
            strides[1],
            strides[2] * sh,
            strides[3] * sw,
            strides[2],
            strides[3],
        ),
        writeable=False,
    )
    return windows.max(axis=(4, 5))


def ref_same_maxpool_time(x, size):
    pad = size // 2
    padded = np.pad(
        x, ((0, 0), (0, 0), (pad, size - 1 - pad), (0, 0)), constant_values=-np.inf
    )
    stacked = np.stack([padded[:, :, k : k + x.shape[2], :] for k in range(size)], axis=0)
    return stacked.max(axis=0)


def ref_causal_conv1d(layer, x):
    n, timesteps, __ = x.shape
    left_pad = (layer.kernel_size - 1) * layer.dilation
    padded = np.pad(x, ((0, 0), (left_pad, 0), (0, 0)))
    out = np.zeros((n, timesteps, layer.filters), dtype=np.float32)
    for k in range(layer.kernel_size):
        start = k * layer.dilation
        out += padded[:, start : start + timesteps, :] @ layer.params["weight"][k]
    return out + layer.params["bias"]


def ref_inception(layer, x):
    out1 = ref_layer_forward(layer.branches[0], x)
    out2 = ref_layer_forward(layer.branches[1], x)
    pooled = ref_same_maxpool_time(x, size=3)
    out3 = ref_layer_forward(layer.branches[2], pooled)
    return np.concatenate([out1, out2, out3], axis=1)


_REFERENCES = {
    Conv2D: ref_conv2d,
    MaxPool2D: ref_maxpool2d,
    CausalConv1D: ref_causal_conv1d,
    InceptionModule: ref_inception,
}


def ref_layer_forward(layers, x, precision=Precision.FP32):
    """Run ``layers`` with the reference code wherever the rewrite applies."""
    for layer in layers:
        x = np.asarray(x, dtype=np.float32)
        reference = _REFERENCES.get(type(layer))
        x = reference(layer, x) if reference is not None else layer.forward(x)
        if precision is not Precision.FP32:
            x = cast(x, precision)
    return x


# -- helpers -------------------------------------------------------------------


def assert_identical(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)


def _inputs(model, batch, seed=7):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((batch, *model.input_shape)).astype(np.float32)


def _rewritten_layer_inputs(layers, x):
    """(layer, its input) for every rewritten layer, nested ones included."""
    found = []
    for layer in layers:
        if isinstance(layer, InceptionModule):
            found.append((layer, x))
            branch1, branch2, branch3 = layer.branches
            found.extend(_rewritten_layer_inputs(branch1, x))
            found.extend(_rewritten_layer_inputs(branch2, x))
            found.extend(_rewritten_layer_inputs(branch3, ref_same_maxpool_time(x, 3)))
        elif type(layer) in _REFERENCES:
            found.append((layer, x))
        x = layer.forward(x)
    return found


def _all_models():
    models = dict(benchmark_models())
    models.update(complexity_sweep())
    return models


MODELS = _all_models()


def _build(layer: Layer, shape):
    layer.build(shape, np.random.default_rng(3))
    rng = np.random.default_rng(4)
    for name, value in layer.params.items():  # non-zero biases exercise the add
        layer.params[name] = rng.standard_normal(value.shape).astype(np.float32)
    return layer


# -- tests ---------------------------------------------------------------------


@pytest.mark.parametrize("batch", [1, 3, 8])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_every_conv_and_pool_matches_reference(name, batch):
    model = MODELS[name]
    pairs = _rewritten_layer_inputs(model.layers, _inputs(model, batch))
    assert pairs, f"{name} has no convolution or pooling layer"
    for layer, x in pairs:
        if isinstance(layer, InceptionModule):
            assert_identical(
                InceptionModule._same_maxpool_time(x, size=3),
                ref_same_maxpool_time(x, size=3),
            )
            assert_identical(layer.forward(x), ref_inception(layer, x))
        else:
            assert_identical(layer.forward(x), _REFERENCES[type(layer)](layer, x))


@pytest.mark.parametrize("batch", [1, 3, 8])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_model_forward_matches_reference(name, batch):
    model = MODELS[name]
    x = _inputs(model, batch)
    assert_identical(model.forward(x), ref_layer_forward(model.layers, x))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_bf16_model_forward_matches_reference(name):
    model = MODELS[name]
    x = _inputs(model, 3)
    assert_identical(
        model.forward(x, precision=Precision.BF16),
        ref_layer_forward(model.layers, x, precision=Precision.BF16),
    )


@pytest.mark.parametrize(
    "layer, shape",
    [
        (Conv2D(5, (3, 3), stride=(2, 2), padding="same"), (2, 11, 9)),
        (Conv2D(5, (3, 3), stride=(2, 2), padding="valid"), (2, 11, 9)),
        (Conv2D(4, (4, 2), padding="same"), (3, 10, 6)),  # asymmetric padding
        (Conv2D(4, (2, 5), stride=(3, 1), padding="same"), (1, 7, 8)),
        (Conv2D(6, (1, 1), padding="valid"), (3, 5, 4)),
        (MaxPool2D((3, 2), stride=(1, 1)), (3, 9, 6)),  # overlapping windows
        (MaxPool2D((2, 2), stride=(3, 3)), (2, 11, 10)),  # gaps between windows
        (MaxPool2D((1, 1)), (2, 4, 3)),
        (CausalConv1D(4, 3, dilation=2), (12, 5)),
    ],
    ids=lambda v: repr(v) if isinstance(v, tuple) else type(v).__name__,
)
@pytest.mark.parametrize("batch", [1, 3, 8])
def test_extra_geometries_match_reference(layer, shape, batch):
    if not layer._built:
        _build(layer, shape)
    x = np.random.default_rng(batch).standard_normal((batch, *shape)).astype(np.float32)
    assert_identical(layer.forward(x), _REFERENCES[type(layer)](layer, x))


@pytest.mark.parametrize("timesteps", [1, 2, 3, 7])
def test_same_maxpool_time_edges_match_reference(timesteps):
    x = np.random.default_rng(timesteps).standard_normal((2, 3, timesteps, 1))
    x = x.astype(np.float32)
    assert_identical(
        InceptionModule._same_maxpool_time(x, size=3), ref_same_maxpool_time(x, size=3)
    )


def test_outputs_do_not_alias_inputs():
    conv = _build(Conv2D(2, (3, 1), padding="same"), (1, 6, 1))
    pool = _build(MaxPool2D((2, 1)), (1, 6, 1))
    x = np.random.default_rng(0).standard_normal((1, 1, 6, 1)).astype(np.float32)
    for layer in (conv, pool):
        before = layer.forward(x)
        kept = before.copy()
        x += 1.0
        assert_identical(before, kept)


@pytest.mark.parametrize("name", ["vanilla_cnn", "M5"])
def test_conv_output_does_not_depend_on_input_layout(name):
    """Non-C-ordered inputs are copied to C order before im2col, so the
    matmul sees one operand layout whatever the caller's memory layout.
    A batch-strided slice keeps the per-sample layout and matches the
    reference too."""
    layer = MODELS[name].layers[0]
    batch = _inputs(MODELS[name], 8)
    expected = layer.forward(np.ascontiguousarray(batch))
    assert_identical(layer.forward(np.asfortranarray(batch)), expected)
    assert_identical(layer.forward(batch[::2]), expected[::2])
    assert_identical(layer.forward(batch[::2]), ref_conv2d(layer, batch[::2]))
