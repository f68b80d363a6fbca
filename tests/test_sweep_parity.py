"""Grid sweep ⇔ line-for-line Algorithm-1 loop: decision-for-decision parity.

The grid sweep is only allowed to change *how fast* Algorithm 1 runs,
never *what* it decides.  These property-style tests drive it and the
scalar loop (:class:`tests.sweep_oracle.ReferenceScheduler`) through
randomized profiles, deadline mixes, power budgets and frequency floors
and require

- identical :class:`ScheduleDecision` objects (point, batch, timings,
  and the exact score bits), including the None case, and
- identical decision-log streams (considered / feasible /
  rejected_deadline / rejected_power counts, floor relaxation).
"""

import numpy as np
import pytest

from repro import envcfg
from repro.accelerator.power import DVFSTable
from repro.baselines.modelcosts import ModelCost
from repro.baselines.profiles import lighttrader_profile
from repro.core.scheduler import WorkloadScheduler
from repro.telemetry.decisions import DecisionLog
from tests.sweep_oracle import ReferenceScheduler

NOW = 5_000_000  # ns


@pytest.fixture(scope="module")
def profile():
    profile = lighttrader_profile()
    # Synthetic zoo models stretch the grids beyond the calibrated trio.
    rng = np.random.default_rng(11)
    for i in range(3):
        profile.register(
            ModelCost(
                name=f"synthetic_{i}",
                cycles_batch1=float(rng.uniform(5e4, 5e6)),
                batch_utilisation=float(rng.uniform(0.2, 0.95)),
                activity=float(rng.uniform(0.5, 3.0)),
                total_ops=1e8,
                weight_bytes=1 << 20,
            )
        )
    return profile


def _random_case(rng):
    depth = int(rng.integers(1, 17))
    slack = rng.lognormal(mean=np.log(1.5e6), sigma=1.2, size=depth)
    deadlines = [NOW - 2_000_000 + int(s) for s in slack]  # some already missed
    budget = float(rng.uniform(2.0, 70.0))
    floor = float(rng.choice([0.0, 0.8e9, 1.4e9, 2.0e9]))
    return deadlines, budget, floor


@pytest.mark.parametrize("metric", ["ppw", "latency", "throughput"])
@pytest.mark.parametrize("max_batch", [4, 16])
def test_randomized_sweep_parity(profile, metric, max_batch):
    table = DVFSTable(cap_hz=2.2e9)
    models = ["deeplob", "translob", "vanilla_cnn", "synthetic_0", "synthetic_1"]
    vec_log, ref_log = DecisionLog(), DecisionLog()
    vec = WorkloadScheduler(
        profile, table, max_batch=max_batch, metric=metric, log=vec_log
    )
    ref = ReferenceScheduler(
        profile, table, max_batch=max_batch, metric=metric, log=ref_log
    )
    seed = {"ppw": 1, "latency": 2, "throughput": 3}[metric] * 100 + max_batch
    rng = np.random.default_rng(seed)
    decided = 0
    for trial in range(150):
        model = models[int(rng.integers(0, len(models)))]
        deadlines, budget, floor = _random_case(rng)
        got = vec.decide(model, NOW, deadlines, budget, floor)
        want = ref.decide(model, NOW, deadlines, budget, floor)
        assert got == want, (
            f"trial {trial}: grid {got} != reference {want} "
            f"(model={model}, budget={budget}, floor={floor}, deadlines={deadlines})"
        )
        decided += want is not None
    # The mix must exercise both outcomes to mean anything.
    assert 0 < decided < 150 * 0.999
    assert vec_log.events == ref_log.events


def test_parity_without_decision_log(profile):
    """The uninstrumented sweep picks the same candidates."""
    table = DVFSTable(cap_hz=2.0e9)
    vec = WorkloadScheduler(profile, table)
    ref = ReferenceScheduler(profile, table)
    rng = np.random.default_rng(42)
    for _ in range(100):
        deadlines, budget, floor = _random_case(rng)
        assert vec.decide("deeplob", NOW, deadlines, budget, floor) == ref.decide(
            "deeplob", NOW, deadlines, budget, floor
        )


def test_scores_are_bit_identical(profile):
    """Not just the same argmax: the reported score has the same bits."""
    table = DVFSTable(cap_hz=2.2e9)
    vec = WorkloadScheduler(profile, table)
    ref = ReferenceScheduler(profile, table)
    rng = np.random.default_rng(7)
    compared = 0
    for _ in range(120):
        deadlines, budget, floor = _random_case(rng)
        got = vec.decide("translob", NOW, deadlines, budget, floor)
        want = ref.decide("translob", NOW, deadlines, budget, floor)
        if want is None:
            assert got is None
            continue
        assert got.ppw.hex() == want.ppw.hex()
        assert got.power_w.hex() == want.power_w.hex()
        compared += 1
    assert compared > 10


def test_reference_env_flag(profile, monkeypatch):
    """The retired REPRO_SWEEP_REFERENCE selects nothing any more."""
    assert not envcfg.is_declared("REPRO_SWEEP_REFERENCE")
    table = DVFSTable(cap_hz=2.0e9)
    deadlines = [NOW + 3_000_000, NOW + 2_500_000]
    plain = WorkloadScheduler(profile, table).decide("deeplob", NOW, deadlines, 30.0)
    monkeypatch.setenv("REPRO_SWEEP_REFERENCE", "1")
    flagged = WorkloadScheduler(profile, table).decide("deeplob", NOW, deadlines, 30.0)
    assert plain is not None
    assert flagged == plain


def test_vectorized_falls_back_without_grid_support(profile):
    """Profiles without sweep_grid() get a grid built from their scalar
    oracle (SweepGrid.build) and decide exactly as the scalar loop."""

    class Oracle:
        def t_total_ns(self, model, point, batch_size):
            return profile.t_total_ns(model, point, batch_size)

        def power_w(self, model, point, batch_size):
            return profile.power_w(model, point, batch_size)

    table = DVFSTable(cap_hz=2.0e9)
    bare = WorkloadScheduler(Oracle(), table)
    full = WorkloadScheduler(profile, table)
    oracle = ReferenceScheduler(Oracle(), table)
    decision = bare.decide("deeplob", NOW, [NOW + 3_000_000], 55.0)
    assert decision == full.decide("deeplob", NOW, [NOW + 3_000_000], 55.0)
    assert decision == oracle.decide("deeplob", NOW, [NOW + 3_000_000], 55.0)
    assert decision is not None
    rng = np.random.default_rng(5)
    for _ in range(40):
        deadlines, budget, floor = _random_case(rng)
        assert bare.decide("deeplob", NOW, deadlines, budget, floor) == (
            oracle.decide("deeplob", NOW, deadlines, budget, floor)
        )


def test_thermal_cap_parity(profile):
    """cap_freq_hz (thermal throttling) prunes both sweeps identically."""
    table = DVFSTable(cap_hz=2.2e9)
    vec_log, ref_log = DecisionLog(), DecisionLog()
    vec = WorkloadScheduler(profile, table, log=vec_log)
    ref = ReferenceScheduler(profile, table, log=ref_log)
    rng = np.random.default_rng(77)
    committed_below_cap = 0
    for trial in range(120):
        deadlines, budget, floor = _random_case(rng)
        cap = float(rng.choice([0.6e9, 1.0e9, 1.4e9, 2.0e9]))
        got = vec.decide("deeplob", NOW, deadlines, budget, floor, cap_freq_hz=cap)
        want = ref.decide("deeplob", NOW, deadlines, budget, floor, cap_freq_hz=cap)
        assert got == want, f"trial {trial}: cap={cap}: {got} != {want}"
        if got is not None:
            assert got.point.freq_hz <= cap + 1e-3
            committed_below_cap += 1
    assert committed_below_cap > 10
    assert vec_log.events == ref_log.events


def test_cap_below_every_point_yields_none(profile):
    table = DVFSTable(cap_hz=2.2e9)
    for scheduler_cls in (WorkloadScheduler, ReferenceScheduler):
        scheduler = scheduler_cls(profile, table)
        decision = scheduler.decide(
            "deeplob", NOW, [NOW + 5_000_000], 55.0, cap_freq_hz=1.0
        )
        assert decision is None
