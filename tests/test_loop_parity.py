"""Back-test event pumps pinned by golden digests.

Every case below replays a seeded workload through :class:`Backtester`
with full telemetry and compares the run against
``tests/data/backtest_golden.json``:

- ``dataclasses.asdict(RunResult)``, stored verbatim so a mismatch
  reads as a field-by-field diff;
- sha256 digests of the decision-log events, the telemetry registry
  snapshot, the per-query traces and ``MetricRegistry.public_snapshot()``;
- sha256 digests of the inputs (workload arrays, fault plan), checked
  first, so a changed generator is reported apart from a changed pump.

The matrix covers the four scheduling schemes on calm and bursty
traffic, the GPU and FPGA profiles, queue-overflow pressure, seeded
fault plans (LightTrader and a fixed profile) and trace levels 0 and 1.
Wide clusters (N=8 and N=16, ``ds`` and ``ws+ds`` under both power
conditions) and a thermal-throttle-only plan at N=4 pin the cluster
power and Algorithm-2 bookkeeping where many devices are busy at once.

Regression anchor: a saturated single accelerator under DVFS scheduling,
where Algorithm-2 redistribution must run at every arrival — the
batched-admission drain must not swallow those passes (see the drain
gate in ``Backtester._run_lighttrader_fast``).

Regenerating the golden file (only for an intended behaviour change,
never to make a failing run pass)::

    PYTHONPATH=src python -m tests.test_loop_parity

rewrites ``tests/data/backtest_golden.json`` from the current code.
Review the ``result`` diffs in the commit: they are the behaviour change.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.accelerator.power import DVFSTable
from repro.baselines.profiles import fpga_profile, gpu_profile, lighttrader_profile
from repro.core.scheduler import WorkloadScheduler
from repro.faults.plan import FaultPlan, seeded_plan
from repro.metrics import IMPL_PREFIX, MetricRegistry
from repro.sim.backtest import Backtester, SimConfig
from repro.sim.workload import QueryWorkload, Regime, TrafficSpec, synthetic_workload
from repro.telemetry import Telemetry

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "backtest_golden.json"

# Sustained micro-burst traffic: keeps every device saturated so the
# batched-admission drain and the redistribution tail interact.
BURST = TrafficSpec(
    calm=Regime("calm", rate_hz=800.0, mean_dwell_s=1.0),
    episodes=(
        Regime("burst", rate_hz=40_000.0, mean_dwell_s=0.03),
        Regime("active", rate_hz=9_000.0, mean_dwell_s=0.08),
    ),
    episode_weights=(0.5, 0.5),
)

_SCHEME_FLAGS = {
    "baseline": (False, False),
    "ws": (True, False),
    "ds": (False, True),
    "ws+ds": (True, True),
}

_PROFILES = {
    "lighttrader": lighttrader_profile,
    "gpu": gpu_profile,
    "fpga": fpga_profile,
}


@lru_cache(maxsize=None)
def _workload(preset: str) -> QueryWorkload:
    if preset == "burst":
        return synthetic_workload(duration_s=1.5, spec=BURST, seed=42)
    if preset == "calm":
        return synthetic_workload(duration_s=2.0, spec=TrafficSpec(), seed=42)
    if preset == "overflow":
        return synthetic_workload(duration_s=1.0, spec=BURST, seed=7)
    seeds = {"faults": (2.0, 11), "levels": (1.5, 13), "fixed_faults": (2.0, 1)}
    duration_s, seed = seeds[preset]
    return synthetic_workload(duration_s=duration_s, seed=seed)


def _lighttrader_fault_plan(workload: QueryWorkload) -> FaultPlan:
    return seeded_plan(
        duration_s=2.0,
        n_accelerators=2,
        n_ticks=len(workload),
        seed=3,
        device_failure_rate_hz=1.5,
        failure_downtime_s=0.3,
        corruption_rate_hz=1.0,
        throttle_rate_hz=1.5,
        throttle_duration_s=0.2,
        stall_rate_hz=1.0,
        stall_duration_us=200.0,
        duplicate_prob=0.01,
        reorder_prob=0.01,
    )


def _throttle_fault_plan(workload: QueryWorkload) -> FaultPlan:
    # Overlapping throttle windows (8 throttles, 7 releases) on busy
    # devices: exercises idle repoints and in-flight rescales to a cap.
    return seeded_plan(
        duration_s=1.5,
        n_accelerators=4,
        n_ticks=len(workload),
        seed=6,
        throttle_rate_hz=4.0,
        throttle_duration_s=0.15,
    )


def _fixed_fault_plan(workload: QueryWorkload) -> FaultPlan:
    return seeded_plan(
        2.0,
        4,
        n_ticks=len(workload),
        seed=9,
        device_failure_rate_hz=1.0,
        failure_downtime_s=0.3,
        corruption_rate_hz=1.0,
        stall_rate_hz=1.0,
        packet_loss_prob=0.02,
        duplicate_prob=0.01,
        reorder_prob=0.01,
    )


@dataclasses.dataclass(frozen=True)
class Case:
    """One pinned back-test: inputs by name, so the golden file stays small."""

    preset: str
    profile: str
    config: SimConfig
    faults: str | None = None  # 'lighttrader' | 'throttle' | 'fixed' plan builder
    level: int = 2

    def inputs(self) -> tuple[QueryWorkload, FaultPlan | None]:
        workload = _workload(self.preset)
        plan = None
        if self.faults == "lighttrader":
            plan = _lighttrader_fault_plan(workload)
        elif self.faults == "throttle":
            plan = _throttle_fault_plan(workload)
        elif self.faults == "fixed":
            plan = _fixed_fault_plan(workload)
        return workload, plan


def _cases() -> dict[str, Case]:
    cases: dict[str, Case] = {}
    for preset in ("calm", "burst"):
        for scheme, (ws, ds) in _SCHEME_FLAGS.items():
            cases[f"lighttrader/{scheme}/{preset}"] = Case(
                preset,
                "lighttrader",
                SimConfig(
                    workload_scheduling=ws,
                    dvfs_scheduling=ds,
                    n_accelerators=2,
                    power_condition="limited" if preset == "burst" else "sufficient",
                ),
            )
        cases[f"gpu/{preset}"] = Case(preset, "gpu", SimConfig(n_accelerators=2))
        cases[f"fpga/{preset}"] = Case(preset, "fpga", SimConfig())
    cases["lighttrader/single-device-drain"] = Case(
        "burst",
        "lighttrader",
        SimConfig(
            model="vanilla_cnn",
            n_accelerators=1,
            workload_scheduling=True,
            dvfs_scheduling=True,
        ),
    )
    for n in (8, 16):
        for scheme in ("ds", "ws+ds"):
            ws, ds = _SCHEME_FLAGS[scheme]
            for condition in ("sufficient", "limited"):
                cases[f"lighttrader/{scheme}/n{n}/{condition}"] = Case(
                    "burst",
                    "lighttrader",
                    SimConfig(
                        model="deeplob",
                        workload_scheduling=ws,
                        dvfs_scheduling=ds,
                        n_accelerators=n,
                        power_condition=condition,
                    ),
                )
    cases["lighttrader/overflow"] = Case(
        "overflow",
        "lighttrader",
        SimConfig(workload_scheduling=True, max_pending=8, power_condition="limited"),
    )
    cases["gpu/overflow"] = Case("overflow", "gpu", SimConfig(max_pending=4))
    for scheme, (ws, ds) in _SCHEME_FLAGS.items():
        cases[f"lighttrader/{scheme}/faults"] = Case(
            "faults",
            "lighttrader",
            SimConfig(workload_scheduling=ws, dvfs_scheduling=ds, n_accelerators=2),
            faults="lighttrader",
        )
    cases["lighttrader/ws+ds/throttle-n4"] = Case(
        "burst",
        "lighttrader",
        SimConfig(
            model="deeplob",
            workload_scheduling=True,
            dvfs_scheduling=True,
            n_accelerators=4,
            power_condition="limited",
        ),
        faults="throttle",
    )
    cases["gpu/faults"] = Case(
        "fixed_faults",
        "gpu",
        SimConfig(model="deeplob", n_accelerators=4),
        faults="fixed",
    )
    for level in (0, 1):
        cases[f"lighttrader/ws+ds/level{level}"] = Case(
            "levels",
            "lighttrader",
            SimConfig(workload_scheduling=True, dvfs_scheduling=True, n_accelerators=2),
            level=level,
        )
        cases[f"gpu/level{level}"] = Case("levels", "gpu", SimConfig(), level=level)
    return cases


CASES = _cases()


def _plain(value):
    """JSON-stable form: tuples become lists, NaN becomes the string 'NaN'."""
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    return value


def _sha256(value) -> str:
    text = json.dumps(_plain(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _workload_sha256(workload: QueryWorkload) -> str:
    digest = hashlib.sha256()
    for array in (workload.timestamps, workload.deadlines):
        digest.update(str(array.dtype).encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def run_case(case: Case) -> dict:
    """Run one case and reduce it to its golden record."""
    workload, plan = case.inputs()
    telemetry = Telemetry(keep_traces=True, keep_events=True, level=case.level)
    metrics = MetricRegistry()
    result = Backtester(
        workload,
        _PROFILES[case.profile](),
        case.config,
        telemetry=telemetry,
        faults=plan,
        metrics=metrics,
    ).run()
    telemetry.close()
    public = metrics.public_snapshot()
    # The public snapshot must carry real traffic and no impl. names
    # (memo/sweep/redistribute bookkeeping is not behaviour).
    assert public["counters"], "registry saw no counter traffic"
    assert not any(
        name.startswith(IMPL_PREFIX) for section in public.values() for name in section
    )
    traces = [trace.to_event() for trace in (telemetry.traces or [])]
    return {
        "workload_sha256": _workload_sha256(workload),
        "faults_sha256": None if plan is None else _sha256(
            [dataclasses.asdict(event) for event in plan.events]
        ),
        "result": _plain(dataclasses.asdict(result)),
        "decision_events": len(telemetry.decisions.events),
        "decisions_sha256": _sha256(telemetry.decisions.events),
        "telemetry_sha256": _sha256(telemetry.registry.snapshot()),
        "query_traces": len(traces),
        "traces_sha256": _sha256(traces),
        "metrics_sha256": _sha256(public),
    }


@lru_cache(maxsize=1)
def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())["cases"]


def _assert_golden(name: str) -> dict:
    want = _golden()[name]
    got = run_case(CASES[name])
    for key in ("workload_sha256", "faults_sha256"):
        assert got[key] == want[key], (
            f"{name}: input {key} changed — the workload generator or "
            "fault-plan sampler moved, not the event pump"
        )
    assert got["result"] == want["result"], name
    assert got == want, name
    return want


class TestSchemePresetMatrix:
    @pytest.mark.parametrize("preset", ["calm", "burst"])
    @pytest.mark.parametrize("scheme", sorted(_SCHEME_FLAGS))
    def test_lighttrader_schemes(self, preset, scheme):
        golden = _assert_golden(f"lighttrader/{scheme}/{preset}")
        assert golden["result"]["n_queries"] > 0

    @pytest.mark.parametrize("preset", ["calm", "burst"])
    def test_fixed_profiles(self, preset):
        _assert_golden(f"gpu/{preset}")
        _assert_golden(f"fpga/{preset}")

    @pytest.mark.parametrize("condition", ["sufficient", "limited"])
    @pytest.mark.parametrize("scheme", ["ds", "ws+ds"])
    @pytest.mark.parametrize("n", [8, 16])
    def test_wide_clusters(self, n, scheme, condition):
        golden = _assert_golden(f"lighttrader/{scheme}/n{n}/{condition}")
        assert golden["result"]["n_queries"] > 0

    def test_single_device_redistribute_drain(self):
        # Regression: one saturated accelerator under ws+ds.  Algorithm 2
        # boosts the in-flight batch one step per event, so boosting
        # continues across consecutive arrivals; a batched drain that
        # swallows those arrival events loses boosts and the miss rate
        # drifts.  This configuration diverged before the drain was
        # gated on redistribution convergence.
        _assert_golden("lighttrader/single-device-drain")


class TestPressureAndFaults:
    def test_overflow_pressure(self):
        _assert_golden("lighttrader/overflow")
        _assert_golden("gpu/overflow")

    @pytest.mark.parametrize("scheme", sorted(_SCHEME_FLAGS))
    def test_seeded_fault_plan(self, scheme):
        _assert_golden(f"lighttrader/{scheme}/faults")

    def test_thermal_throttle_plan(self):
        # Throttles land on busy and idle devices of a 4-card ws+ds
        # cluster: in-flight rescales to the cap, idle repoints, and
        # releases that let Algorithm 2 boost past the old cap again.
        golden = _assert_golden("lighttrader/ws+ds/throttle-n4")
        assert golden["result"]["n_queries"] > 0

    def test_fixed_profile_under_faults(self):
        # The fixed-profile pump with queues, failures, corruption,
        # stalls and feed perturbations (the only fixed-profile path
        # that runs under a fault plan).
        golden = _assert_golden("gpu/faults")
        assert golden["result"]["n_queries"] > 0

    @pytest.mark.parametrize("level", [0, 1])
    def test_trace_levels(self, level):
        _assert_golden(f"lighttrader/ws+ds/level{level}")
        _assert_golden(f"gpu/level{level}")


def test_golden_file_covers_exactly_the_cases():
    assert sorted(_golden()) == sorted(CASES)


class TestDecisionMemo:
    """decide_memo() must be a transparent cache over decide()."""

    def _situations(self, n=250, seed=5):
        rng = np.random.default_rng(seed)
        budgets = (7.5, 22.0, 45.0)  # few distinct values so the memo hits
        floors = (0.0, 1.2e9, 2.0e9)
        caps = (None, None, 1.8e9)
        out = []
        now = 1_000_000
        for _ in range(n):
            depth = int(rng.integers(1, 17))
            if rng.random() < 0.25:
                # Tight deadlines: outside the memo's slack regime, so
                # the fallback-to-decide path is exercised too.
                slack = rng.integers(1_000, 50_000, size=depth)
            else:
                slack = rng.integers(5_000_000, 50_000_000, size=depth)
            deadlines = [int(now + s) for s in np.sort(slack)[::-1]]
            out.append(
                (
                    now,
                    deadlines,
                    budgets[int(rng.integers(len(budgets)))],
                    floors[int(rng.integers(len(floors)))],
                    caps[int(rng.integers(len(caps)))],
                )
            )
            now += int(rng.integers(1_000, 200_000))
        return out

    def test_memo_matches_decide(self):
        profile = lighttrader_profile()
        table = DVFSTable(cap_hz=2.2e9)
        memoized = WorkloadScheduler(profile, table)
        plain = WorkloadScheduler(profile, table)
        for now, deadlines, budget, floor, cap in self._situations():
            got = memoized.decide_memo(
                "deeplob", now, deadlines, budget,
                floor_freq_hz=floor, cap_freq_hz=cap,
            )
            want = plain.decide(
                "deeplob", now, deadlines, budget,
                floor_freq_hz=floor, cap_freq_hz=cap,
            )
            assert got == want
        assert memoized.memo_stats["hits"] > 0
        assert memoized.memo_stats["misses"] > 0

    def test_invalidation_refills_with_identical_decisions(self):
        # The fast loop flushes the memo on every FAULT event (failure,
        # recovery, throttle: any of them voids the cached floor/cap/
        # budget context).  Decisions after a flush must re-derive to the
        # same values — the memo carries no state beyond pure caching.
        profile = lighttrader_profile()
        table = DVFSTable(cap_hz=2.2e9)
        scheduler = WorkloadScheduler(profile, table)
        now = 10_000_000
        deadlines = [now + 40_000_000] * 4
        first = scheduler.decide_memo("deeplob", now, deadlines, 30.0)
        again = scheduler.decide_memo("deeplob", now + 1_000, deadlines, 30.0)
        assert scheduler.memo_stats["hits"] == 1
        assert again == first

        scheduler.invalidate_memo()
        assert not scheduler._memo
        refilled = scheduler.decide_memo("deeplob", now + 2_000, deadlines, 30.0)
        assert refilled == first
        assert scheduler.memo_stats["misses"] == 2


def write_golden() -> None:
    """Rewrite the golden file from the current code (see module doc)."""
    cases = {name: run_case(case) for name, case in CASES.items()}
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps({"format": 1, "cases": cases}, indent=1, sort_keys=True) + "\n"
    )


if __name__ == "__main__":
    write_golden()
