"""System profiles: LightTrader, GPU-based and FPGA-based baselines.

A :class:`SystemProfile` answers the three questions the simulator asks
per batch issue — how long inference takes, how long the data movement
takes, and how much power it draws — exactly the profiled quantities the
paper's back-testing framework consumes (§IV-A).

Baseline anchoring: the paper publishes *average* speed-ups (13.92× GPU,
7.28× FPGA).  We distribute those averages per model according to each
architecture's character — the GPU is launch-overhead-dominated (its
disadvantage shrinks as the model grows), the FPGA is compute-throughput-
limited (its disadvantage grows with model size) — with per-model ratios
chosen so each baseline's mean equals the published figure.  The split is
documented in EXPERIMENTS.md.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from functools import lru_cache

from repro import paperdata
from repro.accelerator.power import DVFSTable, OperatingPoint, PowerModel
from repro.baselines.modelcosts import ModelCost, benchmark_costs
from repro.errors import SchedulingError
from repro.pipeline.dma import DMAModel
from repro.pipeline.latency import DEFAULT_STAGES, StageLatencies

# Per-model latency ratios vs LightTrader, averaging to the published
# 13.92× (GPU) and 7.28× (FPGA).
GPU_RATIO = {"vanilla_cnn": 18.0, "translob": 14.0, "deeplob": 9.76}
FPGA_RATIO = {"vanilla_cnn": 5.0, "translob": 7.0, "deeplob": 9.84}

# Batch-utilisation factors of the baselines: the GPU amortises its large
# launch overhead superbly; the FPGA pipeline is already near-saturated.
GPU_BATCH_UTILISATION = 0.06
FPGA_BATCH_UTILISATION = 0.85


@lru_cache(maxsize=1)
def nominal_point() -> OperatingPoint:
    """The 2.0 GHz nominal operating point used by Fig. 8/11 anchoring."""
    return DVFSTable(cap_hz=2.0e9).max_point


class SystemProfile(abc.ABC):
    """Latency/power oracle for one system architecture."""

    name: str
    stages: StageLatencies
    system_power_w: float  # average wall power (Fig. 11(c) metric)
    supports_dvfs: bool

    @abc.abstractmethod
    def t_infer_ns(
        self, model: str, point: OperatingPoint | None, batch_size: int
    ) -> int:
        """Inference latency for one batch."""

    @abc.abstractmethod
    def t_trans_ns(self, batch_size: int) -> int:
        """Data-movement latency charged to one batch."""

    def t_total_ns(
        self, model: str, point: OperatingPoint | None, batch_size: int
    ) -> int:
        """DNN-pipeline latency: inference + transfers (Algorithm 1's
        ``t_total``)."""
        return self.t_infer_ns(model, point, batch_size) + self.t_trans_ns(batch_size)

    def tick_to_trade_ns(
        self, model: str, point: OperatingPoint | None, batch_size: int
    ) -> int:
        """Full tick-to-trade including the conventional pipeline stages."""
        return self.stages.total_ns + self.t_total_ns(model, point, batch_size)

    def effective_tflops_per_watt(self, model: str, ops: float) -> float:
        """Ops per second per watt at batch 1 (Fig. 11(c) metric)."""
        latency_s = self.t_total_ns(model, None, 1) / 1e9
        return ops / latency_s / self.system_power_w / 1e12


@dataclass
class LightTraderProfile(SystemProfile):
    """The proposed system: CGRA accelerators behind the FPGA hub."""

    costs: dict[str, ModelCost] = field(default_factory=benchmark_costs)
    dma: DMAModel = field(default_factory=DMAModel)
    power_model: PowerModel = field(default_factory=PowerModel)
    stages: StageLatencies = DEFAULT_STAGES
    system_power_w: float = paperdata.SYSTEM_POWER_W["lighttrader"]
    name: str = "lighttrader"
    supports_dvfs: bool = True
    # (model, table points, max_batch) -> SweepGrid; decision tables the
    # Algorithm-1 grid sweep evaluates instead of the scalar oracle.
    _sweep_grids: dict = field(default_factory=dict, repr=False, compare=False)

    def cost(self, model: str) -> ModelCost:
        """The cost profile for ``model`` (must be registered)."""
        try:
            return self.costs[model]
        except KeyError:
            raise SchedulingError(
                f"model {model!r} not registered; known: {sorted(self.costs)}"
            ) from None

    def register(self, cost: ModelCost) -> None:
        """Add a model cost (e.g. from :func:`cost_from_model`)."""
        self.costs[cost.name] = cost
        # Re-registering a name invalidates any grids built from the old cost.
        for key in [k for k in self._sweep_grids if k[0] == cost.name]:
            del self._sweep_grids[key]

    def sweep_grid(self, model: str, table: DVFSTable, max_batch: int):
        """Cached :class:`~repro.core.sweepgrid.SweepGrid` for ``model``.

        Grids are built once per (model, DVFS table, max batch) from the
        profile's own scalar ``t_total_ns``/``power_w`` calls, so the
        cached values are bit-identical to on-the-fly ones.
        """
        from repro.core.sweepgrid import SweepGrid

        key = (model, table.points, max_batch)
        grid = self._sweep_grids.get(key)
        if grid is None:
            grid = SweepGrid.build(self, model, table, max_batch)
            self._sweep_grids[key] = grid
        return grid

    def t_infer_ns(self, model, point, batch_size):
        if point is None:
            raise SchedulingError("LightTrader requires a DVFS operating point")
        return self.cost(model).infer_ns(point, batch_size)

    def t_trans_ns(self, batch_size):
        return self.dma.round_trip_ns(batch_size)

    def power_w(
        self, model: str, point: OperatingPoint, batch_size: int = 1
    ) -> float:
        """Accelerator power for a batch of ``model`` at ``point``."""
        return self.power_model.power_w(point, self.cost(model).activity, batch_size)

    def effective_tflops_per_watt(self, model, ops):
        latency_s = self.t_total_ns(model, nominal_point(), 1) / 1e9
        return ops / latency_s / self.system_power_w / 1e12


@dataclass
class _AnchoredBaseline(SystemProfile):
    """Shared plumbing of the GPU/FPGA baselines (fixed clocks, no DVFS)."""

    latency_ns: dict[str, int]
    batch_utilisation: float
    transfer_ns_fixed: int
    name: str = "baseline"
    stages: StageLatencies = DEFAULT_STAGES
    system_power_w: float = 100.0
    supports_dvfs: bool = False

    def t_infer_ns(self, model, point, batch_size):
        if batch_size <= 0:
            raise SchedulingError(f"batch size must be positive, got {batch_size}")
        try:
            base = self.latency_ns[model]
        except KeyError:
            raise SchedulingError(f"model {model!r} not profiled for {self.name}") from None
        u = self.batch_utilisation
        return round(base * ((1.0 - u) + u * batch_size))

    def t_trans_ns(self, batch_size):
        return self.transfer_ns_fixed * batch_size


def gpu_profile() -> _AnchoredBaseline:
    """The CPU + NIC + V100 baseline of §IV-A."""
    return _AnchoredBaseline(
        latency_ns={
            model: round(paperdata.FIG11_LATENCY_NS[model] * ratio)
            for model, ratio in GPU_RATIO.items()
        },
        batch_utilisation=GPU_BATCH_UTILISATION,
        transfer_ns_fixed=12_000,  # PCIe hop + host pre/post-processing
        name="gpu",
        system_power_w=paperdata.SYSTEM_POWER_W["gpu"],
    )


def fpga_profile() -> _AnchoredBaseline:
    """The CPU + Alveo U250 baseline of §IV-A."""
    return _AnchoredBaseline(
        latency_ns={
            model: round(paperdata.FIG11_LATENCY_NS[model] * ratio)
            for model, ratio in FPGA_RATIO.items()
        },
        batch_utilisation=FPGA_BATCH_UTILISATION,
        transfer_ns_fixed=1_500,  # on-board, no host round trip
        name="fpga",
        system_power_w=paperdata.SYSTEM_POWER_W["fpga"],
    )


def lighttrader_profile() -> LightTraderProfile:
    """The default LightTrader profile over the benchmark trio."""
    return LightTraderProfile()
