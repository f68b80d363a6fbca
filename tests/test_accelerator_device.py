"""Tests for accelerator devices, clusters, C2C links and the interpreter."""

import numpy as np
import pytest

from repro.accelerator import (
    Accelerator,
    AcceleratorCluster,
    C2CLinkConfig,
    CGRAInterpreter,
    DVFSTable,
    DVFS_SWITCH_NS,
    InterlakenLinkConfig,
    PowerModel,
    WatermarkFifo,
    bandwidth_ratio,
    simulate_flow_control,
)
from repro import paperdata
from repro.errors import AcceleratorError
from repro.units import us_to_ns


@pytest.fixture
def table():
    return DVFSTable(cap_hz=2.0e9)


@pytest.fixture
def device(table):
    return Accelerator(0, table, PowerModel(), initial_point=table.at_ghz(2.0))


class TestAccelerator:
    def test_idle_initially(self, device):
        assert device.is_idle(0)

    def test_issue_makes_busy_until_completion(self, device):
        record = device.issue(100, us_to_ns(50), batch_size=1, activity=1.5)
        assert not device.is_idle(record.completion_time - 1)
        assert device.is_idle(record.completion_time)

    def test_finish_before_completion_rejected(self, device):
        device.issue(0, 1000, 1, 1.5)
        with pytest.raises(AcceleratorError):
            device.finish(500)

    def test_finish_counts(self, device):
        device.issue(0, 1000, 1, 1.5)
        device.finish(1000)
        assert device.completed == 1
        assert device.current is None

    def test_issue_while_busy_rejected(self, device):
        device.issue(0, 1000, 1, 1.5)
        with pytest.raises(AcceleratorError):
            device.issue(500, 1000, 1, 1.5)

    def test_issue_over_unfinished_batch_rejected(self, device):
        # At completion_time the device reads idle, but until finish()
        # the batch is still in flight: issuing would overwrite it.
        device.issue(0, 1000, 1, 1.5)
        with pytest.raises(AcceleratorError, match="unfinished batch"):
            device.issue(1000, 1000, 1, 1.5)
        device.finish(1000)
        assert device.issue(1000, 1000, 1, 1.5).issue_time == 1000

    def test_dvfs_switch_delay(self, device, table):
        ready = device.set_point(table.at_ghz(1.0), now=0)
        assert ready == DVFS_SWITCH_NS
        with pytest.raises(AcceleratorError):
            device.issue(0, 1000, 1, 1.5)  # not ready until the switch settles

    def test_same_point_is_free(self, device, table):
        assert device.set_point(table.at_ghz(2.0), now=0) == 0

    def test_dvfs_change_while_busy_rejected(self, device, table):
        device.issue(0, 1000, 1, 1.5)
        with pytest.raises(AcceleratorError):
            device.set_point(table.at_ghz(1.0), now=500)

    def test_power_during_and_after(self, device):
        record = device.issue(0, 1000, 2, 1.5)
        assert device.power_now(500) == pytest.approx(record.power_w)
        assert device.power_now(2000) < record.power_w  # idle leakage


class TestCluster:
    @pytest.fixture
    def cluster(self, table):
        return AcceleratorCluster(
            n_accelerators=4, table=table, power_model=PowerModel(), budget_w=20.0
        )

    def test_budget_split(self, cluster):
        assert cluster.per_accel_budget_w == pytest.approx(5.0)

    def test_idle_and_busy_partition(self, cluster):
        cluster.devices[0].issue(0, 1000, 1, 1.5)
        assert len(cluster.idle_devices(500)) == 3
        assert len(cluster.busy_devices(500)) == 1

    def test_next_completion(self, cluster):
        cluster.devices[0].issue(0, 1000, 1, 1.5)
        cluster.devices[1].issue(0, 3000, 1, 1.5)
        assert cluster.next_completion(0) == 1000
        assert cluster.next_completion(5000) is None

    def test_total_power_sums_devices(self, cluster):
        before = cluster.total_power(0)
        cluster.devices[0].issue(0, 1000, 1, 1.5)
        assert cluster.total_power(500) > before

    def test_headroom(self, cluster):
        assert cluster.headroom(0) <= 20.0
        assert cluster.headroom(0) > 0

    def test_invalid_cluster_rejected(self, table):
        with pytest.raises(AcceleratorError):
            AcceleratorCluster(0, table, PowerModel(), budget_w=10.0)
        with pytest.raises(AcceleratorError):
            AcceleratorCluster(2, table, PowerModel(), budget_w=0.0)


class TestC2CLink:
    def test_bandwidth_ratio_near_paper(self):
        ratio = bandwidth_ratio()
        assert ratio == pytest.approx(
            paperdata.FIG9_C2C_VS_INTERLAKEN_BANDWIDTH, rel=0.05
        )

    def test_c2c_efficiency_higher_than_interlaken(self):
        assert C2CLinkConfig().protocol_efficiency > InterlakenLinkConfig().protocol_efficiency

    def test_transfer_time_linear(self):
        link = C2CLinkConfig()
        assert link.transfer_ns(2_000_000) == pytest.approx(
            2 * link.transfer_ns(1_000_000), rel=0.01
        )

    def test_negative_transfer_rejected(self):
        with pytest.raises(AcceleratorError):
            C2CLinkConfig().transfer_ns(-1)
        with pytest.raises(AcceleratorError):
            InterlakenLinkConfig().transfer_ns(-1)


class TestWatermarkFlowControl:
    def test_no_overflow_with_adequate_margin(self):
        fifo = WatermarkFifo(depth=32, high_watermark=24, low_watermark=8, delay_cycles=4)
        stats = simulate_flow_control(500, fifo, consumer_period=2)
        assert stats.overflows == 0
        assert stats.words_sent == 500

    def test_fast_consumer_no_stalls(self):
        fifo = WatermarkFifo(depth=32, high_watermark=24, low_watermark=8)
        stats = simulate_flow_control(200, fifo, consumer_period=1)
        assert stats.stall_cycles == 0

    def test_slow_consumer_throughput_matches_consumer(self):
        fifo = WatermarkFifo(depth=32, high_watermark=24, low_watermark=8)
        stats = simulate_flow_control(300, fifo, consumer_period=3)
        assert stats.throughput == pytest.approx(1 / 3, rel=0.1)
        assert stats.stall_cycles > 0

    def test_tiny_margin_overflows(self):
        """High watermark at the very top + signal delay -> overflow risk."""
        fifo = WatermarkFifo(depth=8, high_watermark=8, low_watermark=1, delay_cycles=6)
        stats = simulate_flow_control(200, fifo, consumer_period=4)
        assert stats.overflows > 0

    def test_invalid_watermarks_rejected(self):
        with pytest.raises(AcceleratorError):
            WatermarkFifo(depth=8, high_watermark=9, low_watermark=1)
        with pytest.raises(AcceleratorError):
            WatermarkFifo(depth=8, high_watermark=4, low_watermark=6)


class TestInterpreter:
    def test_matmul_matches_numpy(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((9, 33)).astype(np.float32)
        b = rng.standard_normal((33, 21)).astype(np.float32)
        interp = CGRAInterpreter()
        np.testing.assert_allclose(interp.matmul(a, b), a @ b, rtol=1e-4, atol=1e-5)
        assert interp.stats.mac_instructions > 0

    def test_matmul_shape_mismatch_rejected(self):
        interp = CGRAInterpreter()
        with pytest.raises(AcceleratorError):
            interp.matmul(np.zeros((2, 3)), np.zeros((4, 5)))

    def test_elementwise_matches_numpy(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0.1, 2.0, size=(7, 11)).astype(np.float32)
        interp = CGRAInterpreter()
        np.testing.assert_allclose(interp.elementwise("exp", x), np.exp(x), rtol=1e-5)
        np.testing.assert_allclose(interp.elementwise("tanh", x), np.tanh(x), rtol=1e-5)

    def test_unknown_function_rejected(self):
        with pytest.raises(AcceleratorError):
            CGRAInterpreter().elementwise("sinh", np.ones(3))

    def test_conv_via_lowering_matches_layer(self):
        """FMT lowering + grid matmul equals the nn Conv2D (valid, no bias)."""
        from repro.nn.layers import Conv2D

        rng = np.random.default_rng(2)
        layer = Conv2D(3, (3, 3), padding="valid")
        layer.build((2, 8, 7), np.random.default_rng(5))
        layer.params["bias"][:] = 0.0
        x = rng.standard_normal((1, 2, 8, 7)).astype(np.float32)
        expected = layer.forward(x)[0]
        got = CGRAInterpreter().conv2d_via_lowering(x[0], layer.params["weight"])
        np.testing.assert_allclose(got, expected, rtol=1e-4, atol=1e-5)


class TestFmt:
    def test_lowering_shape(self):
        from repro.accelerator import lower_conv2d

        x = np.arange(2 * 5 * 4, dtype=np.float32).reshape(2, 5, 4)
        result = lower_conv2d(x, (2, 2))
        assert result.data.shape == (2 * 2 * 2, 4 * 3)
        assert result.cycles > 0

    def test_transpose_roundtrip(self):
        from repro.accelerator import transpose2d

        x = np.arange(12, dtype=np.float32).reshape(3, 4)
        np.testing.assert_array_equal(transpose2d(transpose2d(x).data).data, x)

    def test_shuffle_validates_permutation(self):
        from repro.accelerator import shuffle_channels

        x = np.zeros((4, 2, 2), dtype=np.float32)
        with pytest.raises(AcceleratorError):
            shuffle_channels(x, np.array([0, 1, 1, 2]))

    def test_flatten_orders_differ(self):
        from repro.accelerator import flatten_hw

        x = np.arange(2 * 3 * 4, dtype=np.float32).reshape(2, 3, 4)
        chw = flatten_hw(x, "chw").data
        hwc = flatten_hw(x, "hwc").data
        assert not np.array_equal(chw, hwc)
        assert sorted(chw.tolist()) == sorted(hwc.tolist())
