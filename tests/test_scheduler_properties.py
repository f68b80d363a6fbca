"""Property tests for the paper's two scheduling algorithms.

Algorithm 1 (:class:`WorkloadScheduler`): every committed decision, from
``decide`` or from the memoized ``decide_memo``, must

- finish by the tightest deadline inside its batch
  (``now + t_total <= min(deadlines[:batch])``),
- fit the power budget (``power <= budget``),
- respect the thermal cap (``freq <= cap``) always, and the frequency
  floor unless no candidate at or above the floor is feasible (the
  documented floor relaxation),
- report the profile's own scalar ``t_total_ns``/``power_w`` values.

Algorithm 2 (:class:`DVFSScheduler`): after ``redistribute`` the
cluster's total device power stays within its budget (less the held-back
reserve, when the start state left room for it).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.accelerator.device import AcceleratorCluster
from repro.accelerator.power import DVFSTable
from repro.baselines.profiles import lighttrader_profile
from repro.core.dvfs import DVFSScheduler
from repro.core.scheduler import WorkloadScheduler

PROFILE = lighttrader_profile()
MODELS = ("vanilla_cnn", "translob", "deeplob")
TABLE = DVFSTable(cap_hz=2.2e9)
NOW = 5_000_000  # ns

situations = st.fixed_dictionaries(
    {
        "model": st.sampled_from(MODELS),
        "max_batch": st.sampled_from((1, 4, 16)),
        "slack_ns": st.lists(
            st.one_of(
                st.integers(min_value=2_000_000, max_value=40_000_000),
                st.integers(min_value=-200_000, max_value=2_000_000),
            ),
            min_size=1,
            max_size=16,
        ),
        "budget_w": st.floats(min_value=0.5, max_value=60.0),
        "floor_hz": st.sampled_from((0.0, 0.8e9, 1.4e9, 2.0e9)),
        "cap_hz": st.sampled_from((None, 0.6e9, 1.2e9, 1.8e9)),
    }
)


def _feasible(model, point, batch, now, tightest, budget_w) -> bool:
    return (
        now + PROFILE.t_total_ns(model, point, batch) <= tightest[batch - 1]
        and PROFILE.power_w(model, point, batch) <= budget_w
    )


def _check_decision(decision, case, now, deadlines) -> None:
    if decision is None:
        return
    model, budget_w = case["model"], case["budget_w"]
    floor_hz, cap_hz = case["floor_hz"], case["cap_hz"]
    depth = min(len(deadlines), case["max_batch"])
    tightest = list(np.minimum.accumulate(deadlines[:depth]))
    point, batch = decision.point, decision.batch_size
    assert 1 <= batch <= depth
    assert decision.t_total_ns == PROFILE.t_total_ns(model, point, batch)
    assert decision.power_w == PROFILE.power_w(model, point, batch)
    assert now + decision.t_total_ns <= tightest[batch - 1]
    assert decision.power_w <= budget_w
    if cap_hz is not None:
        assert point.freq_hz <= cap_hz + 1e-3
    if point.freq_hz < floor_hz:
        # Floor relaxation: nothing at or above the floor was feasible.
        for candidate in TABLE:
            if candidate.freq_hz < floor_hz:
                continue
            if cap_hz is not None and candidate.freq_hz > cap_hz + 1e-3:
                continue
            for b in range(1, depth + 1):
                assert not _feasible(model, candidate, b, now, tightest, budget_w)


@settings(max_examples=200, deadline=None)
@given(case=situations)
def test_decide_meets_deadline_power_and_frequency_bounds(case):
    scheduler = WorkloadScheduler(PROFILE, TABLE, max_batch=case["max_batch"])
    deadlines = [NOW + s for s in case["slack_ns"]]
    decision = scheduler.decide(
        case["model"],
        NOW,
        deadlines,
        case["budget_w"],
        floor_freq_hz=case["floor_hz"],
        cap_freq_hz=case["cap_hz"],
    )
    _check_decision(decision, case, NOW, deadlines)


@settings(max_examples=100, deadline=None)
@given(
    case=situations,
    steps=st.lists(
        st.integers(min_value=0, max_value=3_000_000), min_size=1, max_size=6
    ),
)
def test_decide_memo_meets_the_same_bounds_as_time_advances(case, steps):
    # One scheduler replays the same queue at later and later times, so
    # memo hits are checked against the *current* clock as the slack
    # shrinks.
    scheduler = WorkloadScheduler(PROFILE, TABLE, max_batch=case["max_batch"])
    deadlines = [NOW + s for s in case["slack_ns"]]
    now = NOW
    for step in steps:
        now += step
        decision = scheduler.decide_memo(
            case["model"],
            now,
            deadlines,
            case["budget_w"],
            floor_freq_hz=case["floor_hz"],
            cap_freq_hz=case["cap_hz"],
        )
        _check_decision(decision, case, now, deadlines)


devices = st.lists(
    st.fixed_dictionaries(
        {
            "busy": st.booleans(),
            "point": st.integers(min_value=0, max_value=len(TABLE) - 1),
            "batch": st.integers(min_value=1, max_value=16),
            "remaining_ns": st.integers(min_value=1_000, max_value=3_000_000),
            "slack_ns": st.integers(min_value=0, max_value=5_000_000),
            "cap_hz": st.sampled_from((None, None, 1.2e9)),
        }
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(
    specs=devices,
    model=st.sampled_from(MODELS),
    headroom_factor=st.floats(min_value=1.0, max_value=3.0),
    reserve_w=st.sampled_from((0.0, 0.0, 2.0, 8.0)),
)
def test_redistribute_keeps_total_power_within_budget(
    specs, model, headroom_factor, reserve_w
):
    activity = PROFILE.cost(model).activity
    points = TABLE.points
    cluster = AcceleratorCluster(
        n_accelerators=len(specs),
        table=TABLE,
        power_model=PROFILE.power_model,
        budget_w=1.0,  # set below, once the start state's draw is known
    )
    now = 1_000_000
    for device, spec in zip(cluster.devices, specs):
        device.set_point(points[spec["point"]], 0)
        if spec["cap_hz"] is not None:
            device.throttle(spec["cap_hz"])
        if spec["busy"]:
            start = now - 500
            device.issue(
                start,
                500 + spec["remaining_ns"],
                spec["batch"],
                activity,
                deadline_ns=now + spec["remaining_ns"] + spec["slack_ns"],
            )
    before = cluster.total_power(now)
    cluster.budget_w = before * headroom_factor
    DVFSScheduler(PROFILE, TABLE).redistribute(cluster, now, reserve_w=reserve_w)
    after = cluster.total_power(now)
    assert after <= cluster.budget_w + 1e-9
    assert after <= max(before, cluster.budget_w - reserve_w) + 1e-9
    for device, spec in zip(cluster.devices, specs):
        if device.cap_hz is not None and device.point != points[spec["point"]]:
            assert device.point.freq_hz <= device.cap_hz + 1e-3
