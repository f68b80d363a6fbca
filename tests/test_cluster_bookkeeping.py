"""Differential tests for the incremental cluster bookkeeping.

:meth:`AcceleratorCluster.total_power` reuses its last sum while the
cluster epoch is unchanged and no counted batch has completed, devices
cache their idle draw per operating point, and Algorithm 2 reads cached
candidate tables with the old-point PPW term hoisted.  Each shortcut is
checked here against a plain recomputation, compared with ``==``:

- random sequences of every device mutation (issue, finish, in-flight
  rescale, repoint, fail, recover, throttle, release and direct ``point``
  assignment), with time moving forwards and backwards, against a
  left-to-right sum of freshly computed draws;
- ``DVFSScheduler._speed_up_candidate`` against a scan built on
  :func:`~repro.core.ppw.ppw_increase`, over caps, headrooms and
  off-table operating points;
- ``redistribute`` against a greedy loop over that scan, including
  devices tied on gain.
"""

from __future__ import annotations

import random

import pytest

from repro.accelerator.config import DEFAULT_CONFIG
from repro.accelerator.device import DVFS_SWITCH_NS, AcceleratorCluster
from repro.accelerator.power import DVFSTable, OperatingPoint, PowerModel
from repro.baselines.profiles import lighttrader_profile
from repro.core.dvfs import DVFSScheduler
from repro.core.ppw import ppw_increase
from repro.errors import AcceleratorError

TABLE = DVFSTable()
ACTIVITIES = (0.9, 1.5, 2.1)


def _off_table_point(rng: random.Random) -> OperatingPoint:
    """A point between table steps (the table holds 100 MHz multiples)."""
    freq = rng.choice((0.85e9, 1.25e9, 1.55e9, 1.95e9, 2.15e9))
    return OperatingPoint(freq_hz=freq, voltage=DEFAULT_CONFIG.voltage_at(freq))


def _any_point(rng: random.Random) -> OperatingPoint:
    if rng.random() < 0.2:
        return _off_table_point(rng)
    return rng.choice(TABLE.points)


def _reference_total(cluster: AcceleratorCluster, now: int) -> float:
    """Cluster draw recomputed from scratch, in device order."""
    model = cluster.power_model
    total = 0.0
    for device in cluster.devices:
        if not device.healthy:
            continue
        current = device.current
        if current is not None and now < current.completion_time:
            total += model.power_w(current.point, current.activity, current.batch_size)
        else:
            total += model.idle_power_w(device.point)
    return total


def _capped(device, point: OperatingPoint) -> bool:
    return device.cap_hz is None or point.freq_hz <= device.cap_hz + 1e-3


def _step(cluster: AcceleratorCluster, rng: random.Random, now: int) -> None:
    """Apply one random legal mutation to a random device."""
    device = rng.choice(cluster.devices)
    op = rng.choice(
        ("issue", "finish", "rescale", "set_point", "assign", "fail", "recover",
         "throttle", "release")
    )
    if op == "issue":
        if (
            device.healthy
            and device.current is None
            and device.ready_time(now) <= now
        ):
            device.issue(
                now,
                rng.randint(500, 6_000),
                rng.randint(1, 16),
                rng.choice(ACTIVITIES),
                deadline_ns=now + rng.randint(1_000, 50_000),
            )
    elif op == "finish":
        if device.current is not None and now >= device.current.completion_time:
            device.finish(now)
    elif op == "rescale":
        if device.healthy and device.current is not None and not device.is_idle(now):
            point = rng.choice(TABLE.points)
            if _capped(device, point):
                device.rescale_inflight(now, point, rng.randint(0, 6_000))
    elif op == "set_point":
        point = rng.choice(TABLE.points)
        if device.healthy and device.is_idle(now) and _capped(device, point):
            device.set_point(point, now)
    elif op == "assign":
        device.point = _any_point(rng)
    elif op == "fail":
        device.fail(now)
    elif op == "recover":
        device.recover(now, rng.choice((None, rng.choice(TABLE.points))))
    elif op == "throttle":
        device.throttle(rng.uniform(TABLE.min_point.freq_hz, TABLE.max_point.freq_hz))
    else:
        device.release_throttle()


class TestTotalPowerMemo:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_mutations_match_plain_recompute(self, seed):
        rng = random.Random(seed)
        cluster = AcceleratorCluster(
            n_accelerators=rng.choice((1, 3, 8)),
            table=TABLE,
            power_model=PowerModel(),
            budget_w=40.0,
        )
        now = 0
        for _ in range(600):
            now += rng.choice((0, 0, rng.randint(1, 800), rng.randint(800, 5_000)))
            epoch = cluster.epoch
            _step(cluster, rng, now)
            assert cluster.epoch >= epoch  # never moves backwards
            # Query now, later (possibly past a completion), earlier (the
            # memo must not serve a time before it was taken), and now again.
            later = now + rng.randint(0, 3_000)
            earlier = max(0, now - rng.randint(1, 3_000))
            for t in (now, later, earlier, now):
                want = _reference_total(cluster, t)
                assert cluster.total_power(t) == want
                assert cluster.headroom(t) == cluster.budget_w - want

    def test_direct_point_assignment_invalidates(self):
        cluster = AcceleratorCluster(
            n_accelerators=2, table=TABLE, power_model=PowerModel(), budget_w=20.0
        )
        before = cluster.total_power(0)
        epoch = cluster.epoch
        cluster.devices[1].point = TABLE.max_point
        assert cluster.epoch != epoch
        assert cluster.total_power(0) == _reference_total(cluster, 0) > before

    def test_memo_expires_at_earliest_completion(self):
        cluster = AcceleratorCluster(
            n_accelerators=2, table=TABLE, power_model=PowerModel(), budget_w=20.0
        )
        cluster.devices[0].issue(0, 1_000, 4, 1.5)
        cluster.devices[1].issue(0, 3_000, 4, 1.5)
        busy = cluster.total_power(0)
        assert cluster.total_power(999) == busy
        assert cluster.total_power(1_000) == _reference_total(cluster, 1_000) < busy
        assert cluster.total_power(3_000) == _reference_total(cluster, 3_000)

    def test_issue_draw_matches_power_model(self):
        cluster = AcceleratorCluster(
            n_accelerators=2, table=TABLE, power_model=PowerModel(), budget_w=20.0
        )
        point = _off_table_point(random.Random(3))
        for device in cluster.devices:
            device.point = point
            record = device.issue(0, 1_000, 5, 1.5)
            assert record.power_w == PowerModel().power_w(point, 1.5, 5)
        ledger = cluster.devices[0]._ledger
        assert cluster.devices[1]._ledger is ledger
        assert len(ledger.draw_memo) == 1  # shared by both devices


def _reference_candidate(ds: DVFSScheduler, device, now: int, headroom: float):
    """Algorithm 2's single-device scan, written on ppw_increase."""
    record = device.current
    if record is None or device.busy_until - now <= 0:
        return None
    remaining = device.busy_until - now
    freq = device.point.freq_hz
    best = None
    for point in ds.table:
        if point.freq_hz <= freq:
            continue
        if device.cap_hz is not None and point.freq_hz > device.cap_hz + 1e-3:
            break
        new_remaining = round(remaining * freq / point.freq_hz)
        if DVFS_SWITCH_NS + new_remaining >= remaining:
            continue
        new_power = device.power_model.power_w(point, record.activity, record.batch_size)
        if new_power - record.power_w > headroom:
            continue
        old_total = record.completion_time - record.issue_time
        new_total = old_total - remaining + DVFS_SWITCH_NS + new_remaining
        gain = ppw_increase(
            record.batch_size, old_total, record.power_w, new_total, new_power
        )
        if best is None or gain > best[3]:
            best = (point, new_remaining, new_power, gain)
    return best


def _busy_cluster(rng: random.Random, n: int, profile) -> AcceleratorCluster:
    cluster = AcceleratorCluster(
        n_accelerators=n, table=TABLE, power_model=profile.power_model, budget_w=30.0
    )
    for device in cluster.devices:
        device.point = _any_point(rng)
        if rng.random() < 0.3:
            device.throttle(rng.uniform(TABLE.min_point.freq_hz, TABLE.max_point.freq_hz))
        if rng.random() < 0.9:
            device.issue(
                0,
                rng.choice((rng.randint(1_000, 20_000), rng.randint(20_000, 400_000))),
                rng.randint(1, 16),
                rng.choice(ACTIVITIES),
                deadline_ns=500_000,
            )
    return cluster


class TestCandidateTables:
    @pytest.mark.parametrize("seed", range(4))
    def test_candidate_matches_ppw_increase_scan(self, seed):
        rng = random.Random(seed)
        profile = lighttrader_profile()
        ds = DVFSScheduler(profile, TABLE)
        oracle = DVFSScheduler(profile, TABLE)
        checked = found = 0
        for _ in range(40):
            cluster = _busy_cluster(rng, 4, profile)
            for device in cluster.devices:
                for now in (0, rng.randint(0, 30_000)):
                    for headroom in (-1.0, 0.0, rng.uniform(0.0, 3.0), 50.0):
                        got = ds._speed_up_candidate(device, now, headroom)
                        assert got == _reference_candidate(oracle, device, now, headroom)
                        checked += 1
                        found += got is not None
        assert found > checked // 10  # the scan really picks candidates

    def test_tied_candidates_keep_the_first(self):
        # A table holding two equal but distinct 1.1 GHz points: both
        # candidates have the same gain, and the strict '>' of Algorithm 2
        # keeps the one scanned first.
        profile = lighttrader_profile()
        table = DVFSTable()
        first = table.at_ghz(1.1)
        twin = OperatingPoint(first.freq_hz, first.voltage)
        index = table.points.index(first)
        table.points = table.points[: index + 1] + (twin,) + table.points[index + 1 :]
        ds = DVFSScheduler(profile, table)
        cluster = AcceleratorCluster(
            n_accelerators=1, table=table, power_model=profile.power_model, budget_w=30.0
        )
        device = cluster.devices[0]
        device.point = table.at_ghz(1.0)
        device.issue(0, 300_000, 4, 1.5)
        want = _reference_candidate(ds, device, 0, 50.0)
        got = ds._speed_up_candidate(device, 0, 50.0)
        assert got == want
        assert want[0] is first and got[0] is first

    def test_off_table_point_gets_its_own_table(self):
        profile = lighttrader_profile()
        ds = DVFSScheduler(profile, DVFSTable(cap_hz=2.0e9))
        cluster = AcceleratorCluster(
            n_accelerators=1, table=TABLE, power_model=profile.power_model, budget_w=30.0
        )
        device = cluster.devices[0]
        device.point = OperatingPoint(1.55e9, DEFAULT_CONFIG.voltage_at(1.55e9))
        device.issue(0, 200_000, 4, 1.5)
        got = ds._speed_up_candidate(device, 0, 50.0)
        assert got == _reference_candidate(ds, device, 0, 50.0)
        assert got is not None and got[0].freq_hz > 1.55e9
        with pytest.raises(AcceleratorError, match="not in the DVFS table"):
            ds.table.next_up(device.point)


def _reference_redistribute(ds, cluster, now: int, reserve_w: float) -> int:
    """Greedy Algorithm-2 rounds over the reference scan (no floor skip)."""
    adjusted: set[int] = set()
    transitions = 0
    while True:
        headroom = cluster.budget_w - _reference_total(cluster, now) - reserve_w
        best = None
        best_gain = -float("inf")
        for device in cluster.devices:
            if not device.healthy or device.busy_until <= now or device.accel_id in adjusted:
                continue
            candidate = _reference_candidate(ds, device, now, headroom)
            if candidate is not None and candidate[3] > best_gain:
                best_gain = candidate[3]
                best = (device, candidate)
        if best is None:
            return transitions
        device, (point, remaining, __, ___) = best
        device.rescale_inflight(now, point, remaining)
        adjusted.add(device.accel_id)
        transitions += 1


def _state(cluster):
    return [
        (d.point, d.busy_until, d.transitions, d.current and d.current.power_w)
        for d in cluster.devices
    ]


class TestRedistribute:
    @pytest.mark.parametrize("seed", range(4))
    def test_redistribute_matches_reference_greedy(self, seed):
        profile = lighttrader_profile()
        for trial in range(25):
            rng_a = random.Random(seed * 1_000 + trial)
            rng_b = random.Random(seed * 1_000 + trial)
            got_cluster = _busy_cluster(rng_a, 6, profile)
            want_cluster = _busy_cluster(rng_b, 6, profile)
            now = rng_a.randint(0, 20_000)
            rng_b.randint(0, 20_000)
            reserve = rng_a.choice((0.0, 2.0))
            got = DVFSScheduler(profile, TABLE).redistribute(got_cluster, now, reserve)
            want = _reference_redistribute(
                DVFSScheduler(profile, TABLE), want_cluster, now, reserve
            )
            assert got == want
            assert _state(got_cluster) == _state(want_cluster)

    def test_tied_devices_boost_lowest_id_first(self):
        profile = lighttrader_profile()
        cluster = AcceleratorCluster(
            n_accelerators=3, table=TABLE, power_model=profile.power_model, budget_w=30.0
        )
        for device in cluster.devices:
            device.point = TABLE.at_ghz(1.0)
            device.issue(0, 300_000, 4, 1.5, deadline_ns=900_000)
        # Room for exactly one boost: the identical devices tie on gain,
        # and the strict '>' keeps the first one found.
        want = _reference_candidate(
            DVFSScheduler(profile, TABLE), cluster.devices[0], 0, 30.0
        )
        one_boost = cluster.total_power(0) + (want[2] - cluster.devices[0].current.power_w)
        cluster.budget_w = one_boost + 1e-9
        ds = DVFSScheduler(profile, TABLE)
        assert ds.redistribute(cluster, 0) == 1
        assert cluster.devices[0].point == want[0]
        assert cluster.devices[1].point == cluster.devices[2].point == TABLE.at_ghz(1.0)
