"""Integration tests for the back-testing simulator."""

import pytest

from repro import paperdata
from repro.baselines import fpga_profile, gpu_profile, lighttrader_profile
from repro.core.scheduler import SCHEDULER_METRICS
from repro.errors import SimulationError
from repro.market import generate_session
from repro.sim import (
    Backtester,
    FixedDeadline,
    QueryWorkload,
    SimConfig,
    synthetic_workload,
)


@pytest.fixture(scope="module")
def workload():
    return synthetic_workload(duration_s=20.0, seed=7)


@pytest.fixture(scope="module")
def lt():
    return lighttrader_profile()


class TestSimConfig:
    def test_scheme_names(self):
        assert SimConfig().scheme == "baseline"
        assert SimConfig(workload_scheduling=True).scheme == "ws"
        assert SimConfig(dvfs_scheduling=True).scheme == "ds"
        assert SimConfig(workload_scheduling=True, dvfs_scheduling=True).scheme == "ws+ds"

    def test_budgets(self):
        assert SimConfig(power_condition="sufficient").budget_w == 55.0
        assert SimConfig(power_condition="limited").budget_w == 20.0

    def test_invalid_config_rejected(self):
        with pytest.raises(SimulationError):
            SimConfig(power_condition="unlimited")
        with pytest.raises(SimulationError):
            SimConfig(n_accelerators=0)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"max_batch": 0}, "max_batch must be positive"),
            ({"max_batch": -3}, "max_batch must be positive"),
            ({"scheduler_metric": "bogus"}, "unknown scheduler metric 'bogus'"),
        ],
    )
    @pytest.mark.parametrize(
        "make_profile", [gpu_profile, fpga_profile, lighttrader_profile]
    )
    def test_malformed_scheduler_fields_fail_for_every_profile(
        self, make_profile, bad, message
    ):
        # Fixed profiles never build a WorkloadScheduler, so the config
        # itself must refuse these fields, with a one-line error.
        workload = synthetic_workload(duration_s=0.2, seed=3)
        with pytest.raises(SimulationError, match=message) as info:
            Backtester(workload, make_profile(), SimConfig(**bad)).run()
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("metric", SCHEDULER_METRICS)
    def test_every_scheduler_metric_accepted(self, metric):
        assert SimConfig(scheduler_metric=metric).scheduler_metric == metric


class TestConservation:
    @pytest.mark.parametrize("scheme", ["baseline", "ws", "ds", "ws+ds"])
    def test_every_query_accounted(self, workload, lt, scheme):
        config = SimConfig(
            model="vanilla_cnn",
            n_accelerators=2,
            workload_scheduling="w" in scheme and scheme != "ds",
            dvfs_scheduling="ds" in scheme,
        )
        bt = Backtester(workload, lt, config)
        result = bt.run()
        accounted = result.responded + result.completed_late + result.dropped
        accounted += bt.last_metrics.unscored
        assert accounted == len(workload)

    def test_deterministic_runs(self, workload, lt):
        config = SimConfig(model="deeplob", n_accelerators=4, workload_scheduling=True)
        a = Backtester(workload, lt, config).run()
        b = Backtester(workload, lt, config).run()
        assert a.responded == b.responded
        assert a.mean_latency_us == b.mean_latency_us


class TestPowerInvariant:
    @pytest.mark.parametrize("scheme_flags", [(False, True), (True, True)])
    def test_peak_power_within_budget(self, workload, lt, scheme_flags):
        ws, ds = scheme_flags
        config = SimConfig(
            model="deeplob",
            n_accelerators=8,
            power_condition="limited",
            workload_scheduling=ws,
            dvfs_scheduling=ds,
        )
        result = Backtester(workload, lt, config).run()
        # Small tolerance: the DS fallback may transiently issue one batch
        # at the worst-case-safe static point while boosts drain.
        assert result.peak_power_w <= config.budget_w * 1.10

    def test_baseline_power_within_static_envelope(self, workload, lt):
        config = SimConfig(model="deeplob", n_accelerators=8, power_condition="limited")
        result = Backtester(workload, lt, config).run()
        assert result.peak_power_w <= config.budget_w + 1e-6


class TestLatency:
    def test_lighttrader_latency_near_profile(self, workload, lt):
        result = Backtester(workload, lt, SimConfig(model="vanilla_cnn")).run()
        # Fastest responses: pipeline + inference with no queueing (~122 µs).
        assert 100 <= result.p50_latency_us <= 400

    def test_gpu_latency_an_order_slower(self, workload):
        result = Backtester(workload, gpu_profile(), SimConfig(model="vanilla_cnn")).run()
        assert result.p50_latency_us > 1_500

    def test_response_ordering_across_systems(self, workload, lt):
        rates = {}
        for name, profile in (
            ("lt", lt),
            ("gpu", gpu_profile()),
            ("fpga", fpga_profile()),
        ):
            # vanilla_cnn separates the baselines cleanly (on DeepLOB the
            # GPU and FPGA latencies nearly coincide, as in the paper).
            rates[name] = (
                Backtester(workload, profile, SimConfig(model="vanilla_cnn"))
                .run()
                .response_rate
            )
        assert rates["lt"] > rates["fpga"] > rates["gpu"]


class TestScaling:
    def test_more_accelerators_more_responses(self, workload, lt):
        r1 = Backtester(workload, lt, SimConfig(model="deeplob", n_accelerators=1)).run()
        r8 = Backtester(workload, lt, SimConfig(model="deeplob", n_accelerators=8)).run()
        assert r8.response_rate >= r1.response_rate

    def test_workload_scheduling_batches_under_load(self, workload, lt):
        config = SimConfig(model="deeplob", n_accelerators=1, workload_scheduling=True)
        result = Backtester(workload, lt, config).run()
        assert result.mean_batch_size > 1.0

    def test_baseline_never_batches(self, workload, lt):
        result = Backtester(workload, lt, SimConfig(model="deeplob")).run()
        assert result.mean_batch_size == pytest.approx(1.0)


class TestTapeWorkload:
    def test_backtest_from_recorded_tape(self, lt):
        tape = generate_session(duration_s=2.0, seed=5)
        workload = QueryWorkload.from_tape(tape, FixedDeadline(budget_ns=5_000_000))
        result = Backtester(workload, lt, SimConfig(model="vanilla_cnn")).run()
        assert result.n_queries == len(tape)
        assert result.response_rate > 0.5
