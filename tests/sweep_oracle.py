"""The line-for-line Algorithm-1 loop, kept as the sweep's test oracle.

:class:`ReferenceScheduler` overrides only ``WorkloadScheduler._sweep``:
it walks every (DVFS point × batch size) pair in table order, calls the
profile's scalar ``t_total_ns``/``power_w`` oracle per candidate and
keeps the strict-improvement best.  Everything around the sweep (the
floor-relaxation retry, decision logging, the memo) is the production
code, so a parity test against it isolates the grid sweep.
"""

from __future__ import annotations

from repro.core.ppw import ppw
from repro.core.scheduler import ScheduleDecision, WorkloadScheduler


class ReferenceScheduler(WorkloadScheduler):
    """:class:`WorkloadScheduler` with the scalar Algorithm-1 sweep."""

    def _score(self, batch_size: int, t_total: int, power: float) -> float:
        if self.metric == "ppw":
            return ppw(batch_size, t_total, power)
        if self.metric == "latency":
            return -float(t_total)
        return batch_size / (t_total / 1e9)  # throughput

    def _sweep(
        self,
        model: str,
        now: int,
        tightest: "list[int]",
        power_budget_w: float,
        floor_freq_hz: float,
        cap_freq_hz: "float | None",
        stats: "dict[str, int] | None" = None,
    ) -> ScheduleDecision | None:
        best: ScheduleDecision | None = None
        for point in self.table:
            if point.freq_hz < floor_freq_hz:
                continue
            if cap_freq_hz is not None and point.freq_hz > cap_freq_hz + 1e-3:
                continue
            for batch_size in range(1, len(tightest) + 1):
                if stats is not None:
                    stats["considered"] += 1
                t_total = self.profile.t_total_ns(model, point, batch_size)
                if now + t_total > tightest[batch_size - 1]:
                    if stats is not None:
                        stats["deadline"] += 1
                    continue  # would miss a deadline inside the batch
                power = self.profile.power_w(model, point, batch_size)
                if power > power_budget_w:
                    if stats is not None:
                        stats["power"] += 1
                    continue
                if stats is not None:
                    stats["feasible"] += 1
                score = self._score(batch_size, t_total, power)
                if best is None or score > best.ppw:
                    best = ScheduleDecision(
                        point=point,
                        batch_size=batch_size,
                        t_total_ns=t_total,
                        power_w=power,
                        ppw=score,
                    )
        return best
