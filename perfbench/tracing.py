"""Per-layer spans for the traced run, recorded from the benchmark's side.

:class:`Tracer` wraps the public entry points of each ``src/repro`` layer
(:data:`TARGETS`) before a pass builds its objects and restores them
afterwards; the program itself is not edited.  Each span records its
name, start, end, parent span, process and a run or tick id.  Spans stay
in memory and are written out when the run ends.

Sub-microsecond callees that run millions of times (for example
``PowerModel.idle_power_w``, ~1.4M calls in one N=16 back-test) are not
wrapped; their cost lands in the enclosing span's self time.

Pool workers are forked, so they inherit the wrappers.  A worker appends
the spans and counts of each work item to a per-process spool file when
the item ends; :meth:`Tracer.collect_workers` reads them back.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path


@dataclasses.dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``module``'s ``attr`` ("Class.method" or a
    function), recorded as span ``name`` of ``layer``."""

    layer: str
    name: str
    module: str
    attr: str
    span: bool = True
    before: str | None = None  # Tracer method name, called with args
    after: str | None = None  # Tracer method name, called with (token, args, result)

    @property
    def metric(self) -> str:
        return f"{self.layer}.{self.name}"


TARGETS = (
    Target("core.scheduler", "decide", "repro.core.scheduler", "WorkloadScheduler.decide"),
    Target("core.scheduler", "decide", "repro.core.scheduler", "WorkloadScheduler.decide_memo"),
    Target(
        "core.scheduler",
        "init",
        "repro.core.scheduler",
        "WorkloadScheduler.__post_init__",
        span=False,
        after="_keep_scheduler",
    ),
    Target(
        "core.dvfs",
        "redistribute",
        "repro.core.dvfs",
        "DVFSScheduler.redistribute",
        before="_cluster_version",
        after="_count_useful",
    ),
    Target("core.dvfs", "save_power", "repro.core.dvfs", "DVFSScheduler.save_power"),
    Target(
        "accelerator.device",
        "total_power",
        "repro.accelerator.device",
        "AcceleratorCluster.total_power",
    ),
    Target("accelerator.device", "issue", "repro.accelerator.device", "Accelerator.issue"),
    Target(
        "accelerator.device",
        "rescale_inflight",
        "repro.accelerator.device",
        "Accelerator.rescale_inflight",
    ),
    Target("sim.backtest", "run", "repro.sim.backtest", "Backtester.run"),
    Target("pipeline.offload", "admit_run", "repro.pipeline.offload", "PendingIndexStore.admit_run"),
    Target("pipeline.offload", "drop_stale", "repro.pipeline.offload", "PendingIndexStore.drop_stale"),
    Target("pipeline.offload", "drop_stale", "repro.pipeline.offload", "OffloadEngine.drop_stale"),
    Target("pipeline.offload", "on_tick", "repro.pipeline.offload", "OffloadEngine.on_tick"),
    Target("sim.metrics", "record", "repro.sim.metrics", "MetricsCollector.record_completion_ids"),
    Target("sim.metrics", "record", "repro.sim.metrics", "MetricsCollector.sample_power"),
    Target("sim.metrics", "result", "repro.sim.metrics", "MetricsCollector.result"),
    Target(
        "sim.workload", "synth", "repro.sim.workload", "synthetic_workload", after="_count_synth"
    ),
    Target(
        "sim.workload",
        "cached",
        "repro.sim.workload_cache",
        "cached_synthetic_workload",
        before="_synth_calls",
        after="_count_cache_hit",
    ),
    Target(
        "market",
        "generate",
        "repro.market.generator",
        "MarketSimulator.generate",
        after="_count_ticks",
    ),
    Target("lob", "mirror_apply", "repro.pipeline.feed_handler", "LocalBookMirror.apply"),
    Target("lob", "snapshot", "repro.pipeline.feed_handler", "LocalBookMirror.snapshot"),
    Target("protocol", "parse_frame", "repro.protocol.parser", "PacketParser.parse_frame"),
    Target("protocol", "ilink3_encode", "repro.protocol.ilink3", "ILink3Order.encode"),
    Target("pipeline.feed_handler", "on_frame", "repro.pipeline.feed_handler", "FeedHandler.on_frame"),
    Target(
        "pipeline.trading_engine",
        "on_inference",
        "repro.pipeline.trading_engine",
        "TradingEngine.on_inference",
        after="_count_acted",
    ),
    Target("nn", "forward", "repro.nn.model", "Model.forward"),
    Target("compiler", "compile", "repro.compiler.program", "compile_model"),
    Target("telemetry", "write", "repro.telemetry.writer", "TraceWriter.write"),
    Target("telemetry", "read", "repro.telemetry.writer", "read_events"),
    Target("campaign", "evaluate", "repro.campaign.invariants", "evaluate_run"),
    Target("campaign", "probe", "repro.campaign.probes", "book_integrity_probe"),
    Target("campaign", "probe", "repro.campaign.probes", "feed_sequence_probe"),
    Target("bench.runner", "run_many", "repro.bench.runner", "run_many"),
    Target("bench.runner", "item", "repro.campaign.runner", "execute_campaign_run"),
)

LAYERS = tuple(dict.fromkeys(t.layer for t in TARGETS))

# Spans that open a new run or tick id for everything recorded under or
# after them, and the pool work item whose end ships a worker's records.
_RUN_ROOT = "sim.backtest.run"
_TICK_ROOT = "pipeline.feed_handler.on_frame"
_WORKER_ITEM = "bench.runner.item"
# Top-level packages whose by-name imports of a wrapped function are patched.
_PATCHED_PACKAGES = ("repro", "workloads")

# A span is a plain tuple (cheap to build a million of):
# (span id, parent span id or None, index into TARGETS, start ns, end ns,
#  run or tick id, nested inside another span of the same metric).
# A span id is (pid << 32) | serial, so ids from forked workers never collide.
SPAN_FIELDS = ("span_id", "parent", "target", "start_ns", "end_ns", "ctx", "nested")
SPAN_ID, PARENT, TARGET, START, END, CTX, NESTED = range(7)


def span_pid(span) -> int:
    return span[SPAN_ID] >> 32


class Tracer:
    def __init__(self, spool: Path) -> None:
        self.owner = os.getpid()
        self.spool = spool
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.schedulers: list = []
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._ctx: str | None = None
        self._base = self.owner << 32
        self._serial = 0
        self._ticks = 0
        self._patches: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        # A forked worker starts with a copy of the parent's records.
        self._base = os.getpid() << 32
        self.spans, self.counts, self.schedulers = [], Counter(), []

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        for index, target in enumerate(TARGETS):
            module = importlib.import_module(target.module)
            if "." in target.attr:
                cls_name, method = target.attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                self._patch(owner, method, self._wrap(index, target, original))
            else:
                original = getattr(module, target.attr)
                wrapper = self._wrap(index, target, original)
                # Patch every program or benchmark module that imported the
                # function by name.
                for name, mod in list(sys.modules.items()):
                    if name.split(".")[0] not in _PATCHED_PACKAGES:
                        continue
                    if getattr(mod, target.attr, None) is original:
                        self._patch(mod, target.attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, index: int, target: Target, fn):
        tracer = self
        metric = target.metric
        before = getattr(self, target.before) if target.before else None
        after = getattr(self, target.after) if target.after else None
        clock = time.perf_counter_ns
        depth = self._depth
        stack = self._stack

        if not target.span:

            @functools.wraps(fn)
            def hook(*args, **kwargs):
                result = fn(*args, **kwargs)
                after(None, args, result)
                return result

            return hook

        if not (before or after or metric in (_RUN_ROOT, _TICK_ROOT, _WORKER_ITEM)):

            @functools.wraps(fn)
            def fast(*args, **kwargs):
                tracer._serial += 1
                span_id = tracer._base | tracer._serial
                parent = stack[-1] if stack else None
                level = depth[metric]
                depth[metric] = level + 1
                stack.append(span_id)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    depth[metric] = level
                    tracer.spans.append(
                        (span_id, parent, index, start, end, tracer._ctx, level > 0)
                    )

            return fast

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._serial += 1
            span_id = tracer._base | tracer._serial
            parent = stack[-1] if stack else None
            saved_ctx = tracer._ctx
            if metric == _RUN_ROOT:
                tracer._ctx = f"run:{span_id}"
            elif metric == _TICK_ROOT:
                tracer._ticks += 1
                tracer._ctx = f"tick:{tracer._ticks}"
            elif metric == _WORKER_ITEM:
                tracer._ctx = f"item:{args[0].run_name}"
            ctx = tracer._ctx
            token = before(args) if before else None
            level = depth[metric]
            depth[metric] = level + 1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[metric] = level
                tracer.spans.append((span_id, parent, index, start, end, ctx, level > 0))
                if metric != _TICK_ROOT:
                    tracer._ctx = saved_ctx
            if after:
                after(token, args, result)
            if metric == _WORKER_ITEM and os.getpid() != tracer.owner:
                tracer._flush_worker()
            return result

        return wrapper

    # -- hooks ----------------------------------------------------------------

    def _keep_scheduler(self, token, args, result) -> None:
        self.schedulers.append(args[0])

    @staticmethod
    def _cluster_version(args) -> int:
        return sum(device.state_version for device in args[1].devices)

    def _count_useful(self, token, args, result) -> None:
        if self._cluster_version(args) != token:
            self.counts["core.dvfs.redistribute.useful"] += 1

    def _count_synth(self, token, args, result) -> None:
        self.counts["sim.workload.synth.calls"] += 1

    def _synth_calls(self, args) -> int:
        return self.counts["sim.workload.synth.calls"]

    def _count_cache_hit(self, token, args, result) -> None:
        if self.counts["sim.workload.synth.calls"] == token:
            self.counts["sim.workload.cached.hits"] += 1

    def _count_ticks(self, token, args, result) -> None:
        self.counts["market.generate.ticks"] += len(result)

    def _count_acted(self, token, args, result) -> None:
        self.counts["pipeline.trading_engine.on_inference.acted"] += bool(result.acted)

    def harvest(self) -> None:
        """Fold per-object statistics into the counts."""
        for scheduler in self.schedulers:
            self.counts["core.scheduler.memo.hits"] += scheduler.memo_stats["hits"]
            self.counts["core.scheduler.memo.misses"] += scheduler.memo_stats["misses"]
        self.schedulers.clear()

    # -- worker processes -----------------------------------------------------

    def _flush_worker(self) -> None:
        self.harvest()
        record = {"spans": self.spans, "counts": dict(self.counts)}
        path = self.spool / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        self.spans, self.counts = [], Counter()

    def collect_workers(self) -> None:
        for path in sorted(self.spool.glob("spans-*.jsonl")):
            for line in path.read_text().splitlines():
                record = json.loads(line)
                self.spans += [tuple(span) for span in record["spans"]]
                self.counts.update(record["counts"])
            path.unlink()

    def take(self) -> tuple[list[tuple], Counter]:
        """Hand over and reset what was recorded so far."""
        self.harvest()
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def write_spans(path: Path, spans: list[tuple]) -> None:
    """All spans as gzipped JSON lines: a header, then one list per span."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        handle.write(json.dumps({"fields": SPAN_FIELDS, "targets": [t.metric for t in TARGETS]}))
        handle.write("\n")
        for span in spans:
            handle.write(json.dumps(span))
            handle.write("\n")


# -- per-layer metrics ---------------------------------------------------------


def wrapper_cost_ns(tracer: Tracer, calls: int = 200_000) -> float:
    """Host ns one span wrapper adds around a call, measured on a no-op.

    The part outside a span's own clock reads lands in its parent's self
    time; :func:`self_times` takes it back out per child.
    """

    def noop():
        return None

    wrapped = tracer._wrap(0, Target("perfbench", "noop", "", "noop"), noop)
    saved = tracer.spans
    tracer.spans = []
    t0 = time.perf_counter_ns()
    for _ in range(calls):
        noop()
    bare = time.perf_counter_ns() - t0
    t0 = time.perf_counter_ns()
    for _ in range(calls):
        wrapped()
    traced = time.perf_counter_ns() - t0
    tracer.spans = saved
    return max(0.0, (traced - bare) / calls)


def self_times(spans: list[tuple], child_cost_ns: float = 0.0) -> dict[int, float]:
    """Span id -> duration minus its same-process children's durations and
    the wrapper cost each child added to it."""
    child_ns: dict[int, float] = defaultdict(float)
    for span in spans:
        parent = span[PARENT]
        if parent is not None and parent >> 32 == span[SPAN_ID] >> 32:
            child_ns[parent] += span[END] - span[START] + child_cost_ns
    return {s[SPAN_ID]: s[END] - s[START] - child_ns[s[SPAN_ID]] for s in spans}


def layer_self_times(
    spans: list[tuple], owner_pid: int, child_cost_ns: float
) -> tuple[dict[str, float], dict[str, float]]:
    """Self seconds per layer: (in the owner process, in every process)."""
    own = self_times(spans, child_cost_ns)
    owner: dict[str, float] = defaultdict(float)
    every: dict[str, float] = defaultdict(float)
    for span in spans:
        layer = TARGETS[span[TARGET]].layer
        seconds = own[span[SPAN_ID]] / 1e9
        every[layer] += seconds
        if span_pid(span) == owner_pid:
            owner[layer] += seconds
    return dict(owner), dict(every)


def layer_metrics(
    spans: list[tuple],
    counts: Counter,
    results: list[dict],
    item_s: list[float],
    jobs: int,
    faults_applied: int,
) -> dict[str, float]:
    """The named per-layer counts, inclusive times and ratios."""
    inclusive: dict[str, float] = defaultdict(float)
    calls_of: Counter = Counter()
    for span in spans:
        metric = TARGETS[span[TARGET]].metric
        calls_of[metric] += 1
        if not span[NESTED]:
            inclusive[metric] += (span[END] - span[START]) / 1e9

    def calls(metric: str) -> int:
        return calls_of[metric]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    memo_hits = counts.get("core.scheduler.memo.hits", 0)
    memo_total = memo_hits + counts.get("core.scheduler.memo.misses", 0)
    cached = calls("sim.workload.cached")
    generate_s = inclusive["market.generate"]
    queries = sum(r["n_queries"] for r in results)
    dropped = sum(r["dropped"] for r in results)
    run_many_s = inclusive["bench.runner.run_many"]
    metrics = {
        "core.scheduler.decide_calls": calls("core.scheduler.decide"),
        "core.scheduler.decide_s": inclusive["core.scheduler.decide"],
        "core.scheduler.memo_hit_ratio": ratio(memo_hits, memo_total),
        "core.dvfs.redistribute_calls": calls("core.dvfs.redistribute"),
        "core.dvfs.redistribute_s": inclusive["core.dvfs.redistribute"],
        "core.dvfs.save_power_s": inclusive["core.dvfs.save_power"],
        "core.dvfs.redistribute_useful_ratio": ratio(
            counts.get("core.dvfs.redistribute.useful", 0), calls("core.dvfs.redistribute")
        ),
        "accelerator.device.total_power_calls": calls("accelerator.device.total_power"),
        "accelerator.device.total_power_s": inclusive["accelerator.device.total_power"],
        "accelerator.device.issue_s": inclusive["accelerator.device.issue"],
        "accelerator.device.rescale_inflight_s": inclusive["accelerator.device.rescale_inflight"],
        "sim.backtest.runs": calls("sim.backtest.run"),
        "sim.backtest.run_s": inclusive["sim.backtest.run"],
        "pipeline.offload.admit_run_s": inclusive["pipeline.offload.admit_run"],
        "pipeline.offload.drop_stale_s": inclusive["pipeline.offload.drop_stale"],
        "pipeline.offload.drop_ratio": ratio(dropped, queries),
        "pipeline.offload.on_tick_s": inclusive["pipeline.offload.on_tick"],
        "sim.metrics.record_s": inclusive["sim.metrics.record"],
        "sim.metrics.result_s": inclusive["sim.metrics.result"],
        "sim.workload.synth_s": inclusive["sim.workload.synth"],
        "sim.workload.cache_hit_ratio": ratio(counts.get("sim.workload.cached.hits", 0), cached),
        "market.generate_s": generate_s,
        "market.ticks_per_s": ratio(counts.get("market.generate.ticks", 0), generate_s),
        "lob.mirror_apply_s": inclusive["lob.mirror_apply"],
        "lob.snapshot_s": inclusive["lob.snapshot"],
        "protocol.parse_frame_s": inclusive["protocol.parse_frame"],
        "protocol.ilink3_encode_s": inclusive["protocol.ilink3_encode"],
        "pipeline.trading_engine.on_inference_s": inclusive["pipeline.trading_engine.on_inference"],
        "pipeline.trading_engine.acted_ratio": ratio(
            counts.get("pipeline.trading_engine.on_inference.acted", 0),
            calls("pipeline.trading_engine.on_inference"),
        ),
        "nn.forward_calls": calls("nn.forward"),
        "nn.forward_s": inclusive["nn.forward"],
        "compiler.compile_s": inclusive["compiler.compile"],
        "telemetry.write_s": inclusive["telemetry.write"],
        "telemetry.events_written": calls("telemetry.write"),
        "telemetry.read_s": inclusive["telemetry.read"],
        "faults.events_applied": faults_applied,
        "campaign.evaluate_s": inclusive["campaign.evaluate"],
        "campaign.probe_s": inclusive["campaign.probe"],
        "bench.runner.run_many_s": run_many_s,
        "bench.runner.busy_ratio": ratio(sum(item_s), jobs * run_many_s),
    }
    return metrics
