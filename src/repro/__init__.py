"""LightTrader reproduction: an AI-enabled HFT system simulator.

Reproduces "LightTrader: A Standalone High-Frequency Trading System with
Deep Learning Inference Accelerators and Proactive Scheduler" (HPCA 2023)
as a pure-Python library: limit-order-book and matching-engine substrate,
synthetic bursty market data, wire protocols (SBE / FIX / iLink3), a
numpy DNN inference library with the paper's benchmark models, a CGRA
accelerator model with compiler and calibrated power/DVFS behaviour, the
paper's workload (Algorithm 1) and DVFS (Algorithm 2) schedulers, and a
deterministic back-testing framework regenerating every table and figure
of the paper's evaluation.

Quick start::

    from repro import configure_logging, generate_session, lighttrader_profile
    from repro import Backtester, QueryWorkload, SimConfig, OpportunityDeadline

    log = configure_logging()  # module-level logging, not bare print()
    tape = generate_session(duration_s=10.0, seed=42)
    workload = QueryWorkload.from_tape(tape, OpportunityDeadline())
    result = Backtester(workload, lighttrader_profile(),
                        SimConfig(model="deeplob")).run()
    log.info("%s", result.describe())

Observability: set ``REPRO_TRACE_DIR`` (or pass ``telemetry=`` to the
:class:`Backtester`) to stream per-query span traces, scheduler decision
logs and the power/DVFS timeline to JSONL, then render them with
``python -m repro.telemetry.report <dir>``.
"""

import logging as _logging

from repro.accelerator import (
    AcceleratorCluster,
    AcceleratorConfig,
    CGRAInterpreter,
    DVFSTable,
    OperatingPoint,
    PowerModel,
    bandwidth_ratio,
    fit_activity_coefficients,
)
from repro.baselines import (
    LightTraderProfile,
    ModelCost,
    benchmark_costs,
    cost_from_model,
    fpga_profile,
    gpu_profile,
    lighttrader_profile,
)
from repro.compiler import CompiledProgram, compile_model
from repro.core import DVFSScheduler, WorkloadScheduler, ppw
from repro.lob import ArrayMatchingEngine, DepthSnapshot, LimitOrderBook, Order, Side
from repro.market import (
    HawkesParams,
    MarketSimulator,
    TickTape,
    generate_session,
    traffic_stats,
)
from repro.nn import (
    Model,
    Precision,
    benchmark_models,
    build_deeplob,
    build_model,
    build_translob,
    build_vanilla_cnn,
    complexity_sweep,
)
from repro.pipeline import (
    NormalizationStats,
    OffloadEngine,
    RiskLimits,
    TradingEngine,
)
from repro.sim import (
    Backtester,
    FixedDeadline,
    HorizonDeadline,
    OpportunityDeadline,
    QueryWorkload,
    RunResult,
    SimConfig,
    synthetic_workload,
)
from repro.telemetry import Registry, Telemetry, TraceWriter, configure_logging

logger = _logging.getLogger(__name__)

__version__ = "1.0.0"

__all__ = [
    "AcceleratorCluster",
    "AcceleratorConfig",
    "ArrayMatchingEngine",
    "Backtester",
    "CGRAInterpreter",
    "CompiledProgram",
    "DVFSScheduler",
    "DVFSTable",
    "DepthSnapshot",
    "FixedDeadline",
    "HawkesParams",
    "HorizonDeadline",
    "LightTraderProfile",
    "LimitOrderBook",
    "MarketSimulator",
    "Model",
    "ModelCost",
    "NormalizationStats",
    "OffloadEngine",
    "OperatingPoint",
    "OpportunityDeadline",
    "Order",
    "PowerModel",
    "Precision",
    "QueryWorkload",
    "Registry",
    "RiskLimits",
    "RunResult",
    "Side",
    "SimConfig",
    "Telemetry",
    "TickTape",
    "TraceWriter",
    "TradingEngine",
    "WorkloadScheduler",
    "bandwidth_ratio",
    "benchmark_costs",
    "benchmark_models",
    "build_deeplob",
    "build_model",
    "build_translob",
    "build_vanilla_cnn",
    "compile_model",
    "complexity_sweep",
    "configure_logging",
    "cost_from_model",
    "fit_activity_coefficients",
    "fpga_profile",
    "generate_session",
    "gpu_profile",
    "lighttrader_profile",
    "ppw",
    "synthetic_workload",
    "traffic_stats",
]
