"""DVFS scheduling — Algorithm 2 of the paper plus the power-saving step.

The DVFS scheduler manages the card's shared power budget in two phases:

1. **Save power** (before workload scheduling): busy accelerators are
   scaled down as far as their in-flight batch's deadline allows — with a
   slack margin, and only when no backlog is waiting (stretching batches
   under queue pressure would trade throughput for nothing).
2. **Redistribute** (after workload scheduling): leftover budget is
   handed out greedily — each round, evaluate re-pointing every busy
   accelerator to any faster operating point (one PMIC transition reaches
   any point, so a "step" is a single transition); if the power increase
   fits the remaining headroom and the transition nets a latency
   improvement after the switch delay, score it by marginal PPW; commit
   the best candidate and repeat until nothing fits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.accelerator.device import DVFS_SWITCH_NS, Accelerator, AcceleratorCluster
from repro.accelerator.power import DVFSTable, OperatingPoint
from repro.baselines.profiles import LightTraderProfile
from repro.core.ppw import ppw
from repro.hotpath import hot_path

if TYPE_CHECKING:
    from repro.telemetry.decisions import DecisionLog

# Fraction of a batch's remaining deadline slack the power-save step may
# consume by slowing the clock; the rest stays as safety margin.
SAVE_SLACK_FRACTION = 0.6

# Candidate-scan frequency limit of a device with no thermal cap.
_UNCAPPED = float("inf")

# One Algorithm-2 candidate table: (point, freq_hz, power_w) per faster
# table point, slowest first.
_Candidates = tuple[tuple[OperatingPoint, float, float], ...]


@dataclass(frozen=True)
class DVFSScheduler:
    """Algorithm 2: greedy marginal-PPW power distribution."""

    profile: LightTraderProfile
    table: DVFSTable
    # Telemetry decision log; None keeps the hot path uninstrumented.
    log: "DecisionLog | None" = field(default=None, compare=False)
    # Per-operating-point boost floor: once a batch's remaining time is at
    # or below this, no faster table point can pass the switch-delay test
    # (round(remaining·f/f') ≥ remaining − switch for every f' > f), so the
    # device can be skipped without scanning the table.  The bound uses the
    # uncapped fastest point, which only ever makes it conservative.
    _boost_floor_ns: dict[float, float] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    # Algorithm-2 candidate tables keyed (device freq_hz, activity, batch).
    # power_w is a pure function, so the cached floats are bit-identical
    # to recomputation.
    _candidates: dict[tuple[float, float, int], _Candidates] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    # Observability: lifetime counts folded into the run's MetricRegistry.
    # reclaims / boost_transitions / save_transitions are behaviour;
    # redistribute_calls is an ``impl.`` diagnostic (the event pump gates
    # redistribution by cluster epoch).
    stats: dict[str, int] = field(
        compare=False,
        repr=False,
        default_factory=lambda: {
            "reclaims": 0,
            "redistribute_calls": 0,
            "boost_transitions": 0,
            "save_transitions": 0,
        },
    )

    def __post_init__(self) -> None:
        fmax = max(point.freq_hz for point in self.table)
        floors = {}
        for point in self.table:
            f = point.freq_hz
            if f >= fmax:
                floors[f] = float("inf")  # nothing faster exists
            else:
                # round(y) ≥ y − 0.5 makes the rejection certain whenever
                # remaining ≤ (switch − 0.5)/(1 − f/fmax); the extra −0.5
                # absorbs float rounding in the comparison itself.
                floors[f] = (DVFS_SWITCH_NS - 1.0) / (1.0 - f / fmax)
        object.__setattr__(self, "_boost_floor_ns", floors)

    # -- phase 1: save power --------------------------------------------------

    def save_power(
        self, cluster: AcceleratorCluster, now: int, queue_pressure: bool = False
    ) -> int:
        """Scale busy accelerators down within their deadline slack.

        Skipped entirely under ``queue_pressure`` — with a backlog
        waiting, stretching in-flight batches costs throughput exactly
        when it hurts most.  Idle devices are left alone; their operating
        point is chosen at the next issue.  Returns transitions applied.
        """
        if queue_pressure:
            return 0
        transitions = 0
        for device in cluster.busy_devices(now):
            transitions += self._scale_down_busy(device, now)
        self.stats["save_transitions"] += transitions
        if transitions and self.log is not None:
            self.log.record_save_power(now, transitions)
        return transitions

    def _scale_down_busy(self, device: Accelerator, now: int) -> int:
        record = device.current
        if record is None or record.deadline_ns is None:
            return 0
        remaining = device.busy_until - now
        slack = record.deadline_ns - device.busy_until
        if slack <= DVFS_SWITCH_NS or remaining <= 0:
            return 0
        budget = remaining + round(slack * SAVE_SLACK_FRACTION) - DVFS_SWITCH_NS
        # Lowest point whose stretched remaining time still fits the budget
        # (single PMIC transition).
        best: OperatingPoint | None = None
        best_stretched = 0
        for point in self.table:
            if point.freq_hz >= device.point.freq_hz:
                break
            stretched = round(remaining * device.point.freq_hz / point.freq_hz)
            if stretched <= budget:
                best = point
                best_stretched = stretched
                break  # table iterates slowest-first; first fit is lowest
        if best is None:
            return 0
        device.rescale_inflight(now, best, best_stretched)
        return 1

    def reclaim(self, cluster: AcceleratorCluster, now: int, needed_w: float) -> bool:
        """Free at least ``needed_w`` of headroom for a new batch issue.

        This is the paper's "saving power before the scheduler executes
        the workload scheduling to make room for a new batch issue":
        busy accelerators are slowed (within their deadline margins)
        until the requested headroom exists.  Returns True on success.
        """
        self.stats["reclaims"] += 1
        if cluster.headroom(now) >= needed_w:
            return True
        # Slow the fastest (most boosted) devices first.
        for device in sorted(
            cluster.busy_devices(now), key=lambda d: -d.point.freq_hz
        ):
            self._scale_down_busy(device, now)
            if cluster.headroom(now) >= needed_w:
                break
        satisfied = cluster.headroom(now) >= needed_w
        if self.log is not None:
            self.log.record_reclaim(now, needed_w, cluster.headroom(now), satisfied)
        return satisfied

    # -- phase 2: redistribute --------------------------------------------------

    def redistribute(
        self, cluster: AcceleratorCluster, now: int, reserve_w: float = 0.0
    ) -> int:
        """Greedy Algorithm-2 rounds; returns DVFS transitions applied.

        ``reserve_w`` holds back headroom for imminent issues (one static
        share when idle devices exist), so boosting in-flight batches
        never starves the next batch of power.
        """
        self.stats["redistribute_calls"] += 1
        transitions = 0
        adjusted: set[int] = set()
        floors = self._boost_floor_ns
        while True:
            headroom = None
            best_gain = -float("inf")
            best: tuple[Accelerator, OperatingPoint, int, float] | None = None
            for device in cluster.devices:
                # Filter on the O(1) boost floor before paying for a
                # headroom sum or a table scan: a device whose remaining
                # time is under the floor cannot yield a candidate, so
                # skipping it never changes the chosen transition.
                busy_until = device.busy_until
                if (
                    not device.healthy
                    or busy_until <= now  # busy_devices(), inlined
                    or device.accel_id in adjusted  # one transition per event
                    or busy_until - now <= floors.get(device.point.freq_hz, 0.0)
                ):
                    continue
                if headroom is None:
                    headroom = cluster.headroom(now) - reserve_w
                candidate = self._speed_up_candidate(device, now, headroom)
                if candidate is None:
                    continue
                point, remaining, power, gain = candidate
                if gain > best_gain:
                    best_gain = gain
                    best = (device, point, remaining, power)
            if best is None:
                self.stats["boost_transitions"] += transitions
                if transitions and self.log is not None:
                    self.log.record_redistribute(
                        now, transitions, cluster.headroom(now)
                    )
                return transitions
            device, point, remaining, __ = best
            device.rescale_inflight(now, point, remaining)
            adjusted.add(device.accel_id)
            transitions += 1

    @hot_path
    def _speed_up_candidate(self, device: Accelerator, now: int, headroom: float):
        """Best single transition to a faster point for ``device``.

        Returns (point, new_remaining, new_power, ppw_inc) or None.  The
        marginal PPW is usually negative (energy per op rises with V²);
        Algorithm 2 still commits — its goal is to spend the whole budget
        on speed — and the ranking picks the least costly candidate.
        ``ppw_inc`` is :func:`~repro.core.ppw.ppw_increase`'s float
        expression with the old-point term computed once per device.
        """
        record = device.current
        if record is None:
            return None
        remaining = device.busy_until - now
        if remaining <= 0:
            return None
        freq = device.point.freq_hz
        activity = record.activity
        batch = record.batch_size
        table = self._candidates.get((freq, activity, batch))
        if table is None:
            table = self._candidate_table(device, freq, activity, batch)
        cap = device.cap_hz
        limit = _UNCAPPED if cap is None else cap + 1e-3
        old_power = record.power_w
        old_total = record.completion_time - record.issue_time
        old_ppw = None
        best = None
        best_gain = 0.0
        for point, point_freq, new_power in table:
            if point_freq > limit:
                break  # thermally throttled: nothing faster is programmable
            if new_power - old_power > headroom:
                # power_w never falls along a table (voltage rises with
                # frequency), so no faster point fits either.
                break
            new_remaining = round(remaining * freq / point_freq)
            if DVFS_SWITCH_NS + new_remaining >= remaining:
                continue  # the switch delay would eat the gain
            if old_ppw is None:
                old_ppw = ppw(batch, old_total, old_power)
            new_total = old_total - remaining + DVFS_SWITCH_NS + new_remaining
            gain = batch / ((new_total / 1e9) * new_power) - old_ppw
            if best is None or gain > best_gain:
                best_gain = gain
                best = (point, new_remaining, new_power, gain)
        return best

    def _candidate_table(
        self, device: Accelerator, freq: float, activity: float, batch: int
    ) -> _Candidates:
        """Build and cache the faster points for a device at ``freq``
        (off-table frequencies included) running (activity, batch)."""
        power_w = device.power_model.power_w
        table = tuple(
            (point, point.freq_hz, power_w(point, activity, batch))
            for point in self.table
            if point.freq_hz > freq
        )
        self._candidates[(freq, activity, batch)] = table
        return table
