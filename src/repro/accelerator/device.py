"""Accelerator device and multi-accelerator cluster timing models.

An :class:`Accelerator` is a time-stamped state machine: it is idle or
busy until a completion time, runs at a DVFS operating point (changing
the point costs a PMIC/PLL relock delay — the "power switching delay"
the paper warns makes frequent DVFS hazardous), and reports its
instantaneous power draw.  The :class:`AcceleratorCluster` aggregates N
devices behind the shared card power budget.

Cluster bookkeeping is incremental: every device mutation bumps the
owning cluster's ``epoch``, each device caches its idle draw for its
current point, and :meth:`AcceleratorCluster.total_power` reuses its last
sum while that sum is provably unchanged (see its docstring).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.accelerator.config import DEFAULT_CONFIG, AcceleratorConfig
from repro.accelerator.power import DVFSTable, OperatingPoint, PowerModel
from repro.errors import AcceleratorError
from repro.hotpath import hot_path
from repro.units import us_to_ns

# PMIC reconfiguration + PLL relock time for a DVFS transition.
DVFS_SWITCH_NS = us_to_ns(4.0)

# total_power's validity bound when no batch is in flight.
_NEVER = float("inf")


@dataclass
class IssueRecord:
    """One batch issued to an accelerator (for traces and power audits)."""

    accel_id: int
    issue_time: int
    completion_time: int
    batch_size: int
    point: OperatingPoint
    activity: float
    power_w: float
    deadline_ns: int | None = None


class _Ledger:
    """Mutation epoch and active-draw memo shared by a cluster's devices.

    A standalone :class:`Accelerator` keeps its own; an
    :class:`AcceleratorCluster` hands one ledger to all its devices (a
    separate object, so devices hold no reference back to the cluster).
    """

    __slots__ = ("epoch", "draw_memo")

    def __init__(self) -> None:
        self.epoch = 0
        self.draw_memo: dict[tuple[float, float, float, int], float] = {}


class Accelerator:
    """Timing/power state machine for one AI accelerator."""

    def __init__(
        self,
        accel_id: int,
        table: DVFSTable,
        power_model: PowerModel,
        initial_point: OperatingPoint | None = None,
    ) -> None:
        self.accel_id = accel_id
        self.table = table
        self.power_model = power_model
        self._ledger = _Ledger()
        self._point = initial_point or table.min_point
        # Leakage draw at ``point``; refreshed by the ``point`` setter.
        self._idle_w = power_model.idle_power_w(self._point)
        self.busy_until = 0
        self.available_at = 0  # includes any in-flight DVFS switch
        self.current: IssueRecord | None = None
        self.completed: int = 0
        # Health state (fault injection): a failed device is quarantined —
        # it accepts no work, draws no power, and stays out of every
        # cluster view until re-admitted.  A thermal cap (Hz) bounds the
        # operating points the schedulers may program.
        self.healthy = True
        self.failures = 0
        # PMIC transitions actually applied (idle repoints, re-admission
        # reprogramming, in-flight rescales) — counted whether or not the
        # on_transition telemetry hook is bound.
        self.transitions = 0
        self.cap_hz: float | None = None
        # Monotone state epoch: bumped on every mutation that can change
        # scheduling-visible state (point, busy window, health, cap).
        # Every bump also bumps the owning cluster's ``epoch``, which the
        # event pump reads to detect whether anything changed since its
        # last power sample / Algorithm-2 redistribution pass.
        self.state_version = 0
        # Telemetry hook: called as (now, accel_id, old_point, new_point,
        # reason) on every PMIC transition.  None = uninstrumented.
        self.on_transition = None

    @property
    def point(self) -> OperatingPoint:
        """The programmed DVFS operating point."""
        return self._point

    @point.setter
    def point(self, point: OperatingPoint) -> None:
        # Every assignment (methods below, the event pump's initial
        # programming, tests) refreshes the idle draw and bumps the epoch,
        # so no cached cluster power can outlive a point change.
        self._point = point
        self._idle_w = self.power_model.idle_power_w(point)
        self.state_version += 1
        self._ledger.epoch += 1

    def is_idle(self, now: int) -> bool:
        """True when no batch is in flight at time ``now``."""
        return now >= self.busy_until

    def ready_time(self, now: int) -> int:
        """Earliest time a new batch could start (busy + switch barriers)."""
        return max(now, self.busy_until, self.available_at)

    def set_point(
        self, point: OperatingPoint, now: int, reason: str = "idle_repoint"
    ) -> int:
        """Change the DVFS operating point.

        Returns the time the new point is stable.  Changing the point of
        a busy accelerator is rejected — the hardware applies DVFS
        between batches only.
        """
        if not self.healthy:
            raise AcceleratorError(
                f"accel {self.accel_id}: cannot program a failed device"
            )
        if not self.is_idle(now):
            raise AcceleratorError(
                f"accel {self.accel_id}: cannot change DVFS point while busy"
            )
        if self.cap_hz is not None and point.freq_hz > self.cap_hz + 1e-3:
            raise AcceleratorError(
                f"accel {self.accel_id}: {point} exceeds thermal cap "
                f"{self.cap_hz / 1e9:.1f} GHz"
            )
        if point == self.point:
            return now
        self.transitions += 1
        if self.on_transition is not None:
            self.on_transition(now, self.accel_id, self.point, point, reason)
        self.point = point
        self.available_at = max(self.available_at, now + DVFS_SWITCH_NS)
        return self.available_at

    # -- health (fault injection) ----------------------------------------------

    def fail(self, now: int) -> IssueRecord | None:
        """Hard-fail the device: quarantine it and surrender its batch.

        Returns the in-flight record (the caller decides what to do with
        the queries it carried), or None when the device was idle or
        already failed.  A failed device draws no power and is excluded
        from every cluster scheduling view until :meth:`recover`.
        """
        if not self.healthy:
            return None
        self.healthy = False
        self.failures += 1
        record = self.current
        self.current = None
        self.busy_until = now
        self.available_at = now
        self.state_version += 1
        self._ledger.epoch += 1
        return record

    def recover(self, now: int, point: OperatingPoint | None = None) -> None:
        """Re-admit a quarantined device at ``point`` (default: slowest).

        Re-admission reprograms the PMIC, so the device only becomes
        schedulable one DVFS switch delay after ``now``.
        """
        if self.healthy:
            return
        target = point if point is not None else self.table.min_point
        if self.cap_hz is not None and target.freq_hz > self.cap_hz + 1e-3:
            target = fastest_capped(self.table, self.cap_hz)
        if target != self.point:
            self.transitions += 1
            if self.on_transition is not None:
                self.on_transition(
                    now, self.accel_id, self.point, target, "readmission"
                )
        self.healthy = True
        self.point = target
        self.busy_until = now
        self.available_at = max(self.available_at, now + DVFS_SWITCH_NS)

    def throttle(self, cap_hz: float) -> None:
        """Impose a thermal frequency cap (enforced on future programming)."""
        if cap_hz < self.table.min_point.freq_hz:
            raise AcceleratorError(
                f"accel {self.accel_id}: thermal cap below the slowest DVFS point"
            )
        self.cap_hz = cap_hz
        self.state_version += 1
        self._ledger.epoch += 1

    def release_throttle(self) -> None:
        """Lift the thermal cap (schedulers repoint at the next issue)."""
        self.cap_hz = None
        self.state_version += 1
        self._ledger.epoch += 1

    @hot_path
    def issue(
        self,
        now: int,
        duration_ns: int,
        batch_size: int,
        activity: float,
        deadline_ns: int | None = None,
    ) -> IssueRecord:
        """Start a batch at ``now`` lasting ``duration_ns``.

        ``deadline_ns`` (the oldest query's t_avail boundary) rides along
        so the DVFS scheduler knows how far the batch may be slowed.
        """
        if (
            not self.healthy
            or self.current is not None
            or self.busy_until > now
            or self.available_at > now
            or duration_ns <= 0
        ):
            raise self._issue_error(now, duration_ns)
        point = self._point
        record = IssueRecord(
            accel_id=self.accel_id,
            issue_time=now,
            completion_time=now + duration_ns,
            batch_size=batch_size,
            point=point,
            activity=activity,
            power_w=self._active_power_w(point, activity, batch_size),
            deadline_ns=deadline_ns,
        )
        self.busy_until = record.completion_time
        self.current = record
        self.state_version += 1
        self._ledger.epoch += 1
        return record

    def _error(self, reason: str) -> AcceleratorError:
        return AcceleratorError(f"accel {self.accel_id}: {reason}")

    def _issue_error(self, now: int, duration_ns: int) -> AcceleratorError:
        """The one-line reason :meth:`issue` refuses (first failed check)."""
        if not self.healthy:
            return self._error("cannot issue to a failed device")
        if self.current is not None:
            return self._error(f"issue at {now} over an unfinished batch")
        start = self.ready_time(now)
        if start > now:
            return self._error(f"issue at {now} before ready time {start}")
        return AcceleratorError(f"duration must be positive, got {duration_ns}")

    def _active_power_w(
        self, point: OperatingPoint, activity: float, batch_size: int
    ) -> float:
        """``power_w`` through the shared memo (a pure function, so a hit is
        bit-identical to recomputing)."""
        memo = self._ledger.draw_memo
        # Keyed by the point's fields: hashing floats stays in C, where the
        # dataclass __hash__ would be a Python call.
        key = (point.freq_hz, point.voltage, activity, batch_size)
        power_w = memo.get(key)
        if power_w is None:
            power_w = memo[key] = self.power_model.power_w(point, activity, batch_size)
        return power_w

    @hot_path
    def rescale_inflight(
        self, now: int, point: OperatingPoint, new_remaining_ns: int
    ) -> IssueRecord:
        """Apply a DVFS change to the batch currently in flight.

        The DVFS scheduler (Algorithm 2) may speed up or slow down a busy
        accelerator; the caller computes the remaining work's duration at
        the new point, and the switch delay is charged on top.  Returns
        the updated in-flight record.
        """
        record = self.current
        if record is None or now >= self.busy_until:
            raise self._error("no batch in flight")
        if new_remaining_ns < 0:
            raise AcceleratorError("remaining time cannot be negative")
        old = self._point
        switch = DVFS_SWITCH_NS if point != old else 0
        if switch:
            self.transitions += 1
        if switch and self.on_transition is not None:
            reason = "inflight_boost" if point.freq_hz > old.freq_hz else "inflight_save"
            self.on_transition(now, self.accel_id, old, point, reason)
        self.point = point
        record = IssueRecord(
            accel_id=record.accel_id,
            issue_time=record.issue_time,
            completion_time=now + switch + new_remaining_ns,
            batch_size=record.batch_size,
            point=point,
            activity=record.activity,
            power_w=self._active_power_w(point, record.activity, record.batch_size),
            deadline_ns=record.deadline_ns,
        )
        self.current = record
        self.busy_until = record.completion_time
        return record

    def finish(self, now: int) -> IssueRecord:
        """Mark the in-flight batch complete (must be at/after completion)."""
        if self.current is None:
            raise AcceleratorError(f"accel {self.accel_id}: nothing to finish")
        if now < self.current.completion_time:
            raise AcceleratorError(
                f"accel {self.accel_id}: finish at {now} before completion "
                f"{self.current.completion_time}"
            )
        record = self.current
        self.current = None
        self.completed += 1
        self.state_version += 1
        self._ledger.epoch += 1
        return record

    def power_now(self, now: int) -> float:
        """Instantaneous power draw at ``now`` (a failed device draws 0)."""
        if not self.healthy:
            return 0.0
        if self.current is not None and now < self.current.completion_time:
            return self.current.power_w
        return self._idle_w


def fastest_capped(table: DVFSTable, cap_hz: float) -> OperatingPoint:
    """The fastest table point at or below ``cap_hz`` (min point fallback)."""
    best = table.min_point
    for point in table:
        if point.freq_hz <= cap_hz + 1e-3:
            best = point
        else:
            break
    return best


@dataclass
class AcceleratorCluster:
    """N accelerators behind one shared accelerator power budget."""

    n_accelerators: int
    table: DVFSTable
    power_model: PowerModel
    budget_w: float
    config: AcceleratorConfig = DEFAULT_CONFIG
    devices: list[Accelerator] = field(init=False)
    _ledger: _Ledger = field(
        init=False, repr=False, compare=False, default_factory=_Ledger
    )
    # total_power memo: the sum, the epoch and time it was taken at, and
    # the earliest in-flight completion it counted as active.
    _power_w: float = field(init=False, repr=False, compare=False, default=0.0)
    _power_epoch: int = field(init=False, repr=False, compare=False, default=-1)
    _power_from: int = field(init=False, repr=False, compare=False, default=0)
    _power_until: int | float = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        if self.n_accelerators <= 0:
            raise AcceleratorError("cluster needs at least one accelerator")
        if self.budget_w <= 0:
            raise AcceleratorError("power budget must be positive")
        self.devices = [
            Accelerator(i, self.table, self.power_model)
            for i in range(self.n_accelerators)
        ]
        for device in self.devices:
            device._ledger = self._ledger

    def __iter__(self):
        return iter(self.devices)

    def __len__(self) -> int:
        return self.n_accelerators

    @property
    def epoch(self) -> int:
        """Bumped by every mutation of any member device (alongside that
        device's ``state_version``): equal epochs mean an unchanged cluster."""
        return self._ledger.epoch

    @property
    def per_accel_budget_w(self) -> float:
        """Even static split of the budget (the no-DS baseline policy)."""
        return self.budget_w / self.n_accelerators

    @property
    def n_healthy(self) -> int:
        """Devices currently admitted to scheduling."""
        return sum(1 for d in self.devices if d.healthy)

    def healthy_devices(self) -> list[Accelerator]:
        """Devices not in quarantine."""
        return [d for d in self.devices if d.healthy]

    def failed_devices(self) -> list[Accelerator]:
        """Devices currently quarantined by a hard fault."""
        return [d for d in self.devices if not d.healthy]

    def idle_devices(self, now: int) -> list[Accelerator]:
        """Healthy devices able to accept a new batch at ``now``."""
        return [d for d in self.devices if d.healthy and d.ready_time(now) <= now]

    def busy_devices(self, now: int) -> list[Accelerator]:
        """Healthy devices with a batch in flight at ``now``."""
        return [d for d in self.devices if d.healthy and d.busy_until > now]

    def next_completion(self, now: int) -> int | None:
        """Earliest in-flight completion time, or None if all idle."""
        times = [d.busy_until for d in self.busy_devices(now)]
        return min(times) if times else None

    @hot_path
    def total_power(self, now: int) -> float:
        """Instantaneous cluster draw.

        A device's draw is a pure function of its state and of whether
        ``now < current.completion_time``.  So while the epoch is unchanged
        and ``computed_at <= now < earliest counted completion``, every
        device draws what it drew at ``computed_at`` and the memoised sum
        is exact.  Otherwise the sum is recomputed.
        """
        epoch = self._ledger.epoch
        if epoch == self._power_epoch and self._power_from <= now < self._power_until:
            return self._power_w
        # power_now inlined, summed with an explicit left-to-right loop in
        # device order (never sum(): its float result differs across
        # Python versions).  A failed device draws 0.0, which addition
        # leaves bit-exact, so it is skipped.
        total = 0.0
        until = _NEVER
        for device in self.devices:
            if not device.healthy:
                continue
            current = device.current
            if current is not None and now < current.completion_time:
                total += current.power_w
                if current.completion_time < until:
                    until = current.completion_time
            else:
                total += device._idle_w
        self._power_w = total
        self._power_epoch = epoch
        self._power_from = now
        self._power_until = until
        return total

    def headroom(self, now: int) -> float:
        """Unused budget at ``now`` (never negative by scheduler contract)."""
        return self.budget_w - self.total_power(now)

    def set_all_points(self, point: OperatingPoint, now: int) -> None:
        """Program every healthy idle device to ``point`` (others skipped)."""
        for device in self.devices:
            if device.healthy and device.is_idle(now):
                device.set_point(point, now)
