"""Unit tests for individual NN layers."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.nn.layers import (
    CausalConv1D,
    Conv2D,
    Dense,
    Flatten,
    InceptionModule,
    LSTM,
    LayerNorm,
    LeakyReLU,
    MaxPool2D,
    MultiHeadSelfAttention,
    PositionalEncoding,
    ReLU,
    Softmax,
    TakeLast,
    ToSequence,
    TransformerBlock,
)

RNG = np.random.default_rng(42)


def build(layer, shape):
    layer.build(shape, np.random.default_rng(0))
    return layer


def batch(shape, n=2, seed=1):
    return np.random.default_rng(seed).standard_normal((n, *shape)).astype(np.float32)


class TestDense:
    def test_shape_and_value(self):
        layer = build(Dense(4), (3,))
        layer.params["weight"][:] = np.eye(3, 4)
        layer.params["bias"][:] = 1.0
        out = layer.forward(np.array([[1.0, 2.0, 3.0]], dtype=np.float32))
        np.testing.assert_allclose(out, [[2.0, 3.0, 4.0, 1.0]])

    def test_timedistributed(self):
        layer = build(Dense(5), (7, 3))
        assert layer.output_shape == (7, 5)
        assert layer.forward(batch((7, 3))).shape == (2, 7, 5)

    def test_macs(self):
        assert build(Dense(4), (3,)).macs() == 12
        assert build(Dense(4), (10, 3)).macs() == 120

    def test_bad_rank_rejected(self):
        with pytest.raises(ModelError):
            build(Dense(4), (2, 3, 4))

    def test_wrong_input_shape_rejected(self):
        layer = build(Dense(4), (3,))
        with pytest.raises(ModelError):
            layer.forward(batch((5,)))

    def test_use_before_build_rejected(self):
        with pytest.raises(ModelError):
            Dense(4).forward(batch((3,)))

    def test_double_build_rejected(self):
        layer = build(Dense(4), (3,))
        with pytest.raises(ModelError):
            layer.build((3,), np.random.default_rng(0))


class TestConv2D:
    def test_valid_shape(self):
        layer = build(Conv2D(8, (4, 40), padding="valid"), (1, 100, 40))
        assert layer.output_shape == (8, 97, 1)

    def test_same_shape(self):
        layer = build(Conv2D(8, (4, 1), padding="same"), (3, 100, 40))
        assert layer.output_shape == (8, 100, 40)

    def test_strided_shape(self):
        layer = build(Conv2D(8, (1, 2), stride=(1, 2), padding="valid"), (1, 100, 40))
        assert layer.output_shape == (8, 100, 20)

    def test_identity_kernel(self):
        layer = build(Conv2D(1, (1, 1), padding="valid"), (1, 4, 4))
        layer.params["weight"][:] = 1.0
        x = batch((1, 4, 4))
        np.testing.assert_allclose(layer.forward(x), x, rtol=1e-5)

    def test_matches_naive_convolution(self):
        layer = build(Conv2D(2, (3, 3), padding="valid"), (2, 6, 5))
        x = batch((2, 6, 5), n=1)
        out = layer.forward(x)
        w, b = layer.params["weight"], layer.params["bias"]
        naive = np.zeros_like(out)
        for f in range(2):
            for i in range(4):
                for j in range(3):
                    patch = x[0, :, i : i + 3, j : j + 3]
                    naive[0, f, i, j] = (patch * w[f]).sum() + b[f]
        np.testing.assert_allclose(out, naive, rtol=1e-4, atol=1e-5)

    def test_macs_formula(self):
        layer = build(Conv2D(8, (3, 3), padding="same"), (4, 10, 10))
        assert layer.macs() == 8 * 10 * 10 * 4 * 3 * 3

    def test_kernel_larger_than_input_rejected(self):
        with pytest.raises(ModelError):
            build(Conv2D(8, (200, 1), padding="valid"), (1, 100, 40))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kernel_size": (0, 1)},
            {"kernel_size": (2, -1)},
            {"kernel_size": (2, 1), "stride": (0, 1)},
            {"kernel_size": (2, 1), "stride": (1, 0)},
        ],
    )
    def test_non_positive_kernel_or_stride_rejected(self, kwargs):
        with pytest.raises(ModelError, match="must be positive"):
            Conv2D(4, **kwargs)


class TestCausalConv1D:
    def test_causality(self):
        """Output at time t must not depend on inputs after t."""
        layer = build(CausalConv1D(4, kernel_size=2, dilation=4), (20, 3))
        x = batch((20, 3), n=1)
        base = layer.forward(x)
        x2 = x.copy()
        x2[0, 10:, :] += 100.0  # perturb the future
        out2 = layer.forward(x2)
        np.testing.assert_allclose(out2[0, :10], base[0, :10], rtol=1e-5)

    def test_shape_preserved(self):
        layer = build(CausalConv1D(7, 2, dilation=8), (100, 40))
        assert layer.output_shape == (100, 7)

    def test_dilation_reach(self):
        """With kernel 2 and dilation d, output at t sees input t-d."""
        layer = build(CausalConv1D(1, 2, dilation=3), (10, 1))
        layer.params["weight"][:] = 0.0
        layer.params["weight"][0, 0, 0] = 1.0  # tap at t-3 only
        x = np.zeros((1, 10, 1), dtype=np.float32)
        x[0, 2, 0] = 5.0
        out = layer.forward(x)
        assert out[0, 5, 0] == pytest.approx(5.0)
        assert abs(out[0, 4, 0]) < 1e-6


class TestPoolingAndShape:
    def test_maxpool_values(self):
        layer = build(MaxPool2D((2, 2)), (1, 4, 4))
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = layer.forward(x)
        np.testing.assert_allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_too_large_rejected(self):
        with pytest.raises(ModelError):
            build(MaxPool2D((8, 1)), (1, 4, 4))

    @pytest.mark.parametrize(
        "pool_size, stride",
        [((2, 0), None), ((0, 2), None), ((2, 1), (0, 1)), ((2, 1), (1, -1))],
    )
    def test_maxpool_non_positive_size_or_stride_rejected(self, pool_size, stride):
        with pytest.raises(ModelError, match="must be positive"):
            MaxPool2D(pool_size, stride=stride)

    def test_flatten(self):
        layer = build(Flatten(), (3, 4, 5))
        assert layer.output_shape == (60,)
        assert layer.forward(batch((3, 4, 5))).shape == (2, 60)

    def test_to_sequence(self):
        layer = build(ToSequence(), (16, 100, 1))
        x = batch((16, 100, 1), n=1)
        out = layer.forward(x)
        assert out.shape == (1, 100, 16)
        np.testing.assert_allclose(out[0, 7, :], x[0, :, 7, 0])

    def test_take_last(self):
        layer = build(TakeLast(), (9, 5))
        x = batch((9, 5))
        np.testing.assert_allclose(layer.forward(x), x[:, -1, :])


class TestActivations:
    def test_relu(self):
        layer = build(ReLU(), (4,))
        out = layer.forward(np.array([[-1.0, 0.0, 2.0, -3.0]], dtype=np.float32))
        np.testing.assert_allclose(out, [[0, 0, 2, 0]])

    def test_leaky_relu(self):
        layer = build(LeakyReLU(alpha=0.1), (2,))
        out = layer.forward(np.array([[-10.0, 10.0]], dtype=np.float32))
        np.testing.assert_allclose(out, [[-1.0, 10.0]])

    def test_softmax_rows_sum_to_one(self):
        layer = build(Softmax(), (5,))
        out = layer.forward(batch((5,), n=4))
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(4), rtol=1e-6)
        assert (out >= 0).all()

    def test_softmax_stability(self):
        layer = build(Softmax(), (3,))
        out = layer.forward(np.array([[1000.0, 1000.0, -1000.0]], dtype=np.float32))
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out[0, :2], [0.5, 0.5], rtol=1e-5)


class TestNormalisation:
    def test_layernorm_zero_mean_unit_var(self):
        layer = build(LayerNorm(), (32,))
        out = layer.forward(batch((32,), n=3) * 10 + 5)
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-5)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, rtol=1e-2)


class TestLSTM:
    def test_output_shapes(self):
        assert build(LSTM(8), (10, 4)).output_shape == (8,)
        assert build(LSTM(8, return_sequences=True), (10, 4)).output_shape == (10, 8)

    def test_sequences_last_equals_vector_output(self):
        seq = build(LSTM(8, return_sequences=True, name="a"), (10, 4))
        last = LSTM(8, return_sequences=False, name="b")
        last.build((10, 4), np.random.default_rng(0))
        # Copy weights so both compute the same recurrence.
        for key in seq.params:
            last.params[key][:] = seq.params[key]
        x = batch((10, 4))
        np.testing.assert_allclose(seq.forward(x)[:, -1, :], last.forward(x), rtol=1e-5)

    def test_state_bounded(self):
        layer = build(LSTM(16), (50, 8))
        out = layer.forward(batch((50, 8)) * 100)
        assert (np.abs(out) <= 1.0 + 1e-6).all()  # h = o * tanh(c)

    def test_macs(self):
        layer = build(LSTM(8), (10, 4))
        assert layer.macs() == 10 * (4 * 32 + 8 * 32)


class TestAttention:
    def test_mhsa_shape_preserved(self):
        layer = build(MultiHeadSelfAttention(heads=2), (12, 8))
        assert layer.forward(batch((12, 8))).shape == (2, 12, 8)

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ModelError):
            build(MultiHeadSelfAttention(heads=3), (12, 8))

    def test_permutation_equivariance(self):
        """Self-attention without positions commutes with permutation."""
        layer = build(MultiHeadSelfAttention(heads=2), (6, 4))
        x = batch((6, 4), n=1)
        perm = np.array([3, 1, 5, 0, 2, 4])
        out_perm = layer.forward(x[:, perm, :])
        np.testing.assert_allclose(out_perm, layer.forward(x)[:, perm, :], rtol=1e-4, atol=1e-5)

    def test_positional_encoding_breaks_equivariance(self):
        layer = build(PositionalEncoding(), (6, 4))
        x = np.zeros((1, 6, 4), dtype=np.float32)
        out = layer.forward(x)
        assert not np.allclose(out[0, 0], out[0, 3])

    def test_transformer_block_shape(self):
        layer = build(TransformerBlock(heads=2), (10, 8))
        assert layer.forward(batch((10, 8))).shape == (2, 10, 8)

    def test_transformer_param_count_counts_children(self):
        layer = build(TransformerBlock(heads=2), (10, 8))
        assert layer.param_count() > 4 * 8 * 8


class TestInception:
    def test_output_channels_triple(self):
        layer = build(InceptionModule(filters=32), (16, 100, 1))
        assert layer.output_shape == (96, 100, 1)

    def test_forward_shape(self):
        layer = build(InceptionModule(filters=8), (4, 20, 1))
        assert layer.forward(batch((4, 20, 1))).shape == (2, 24, 20, 1)

    def test_requires_collapsed_width(self):
        with pytest.raises(ModelError):
            build(InceptionModule(filters=8), (4, 20, 5))
