"""The repository benchmark: one command, four workloads, two clocks.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig13_grid --seed 1 --seconds 20 --trace 0

``--trace 0`` runs untraced passes for ``--seconds`` seconds and prints the
end-to-end metrics, with host times scaled to the reference host by a
calibration kernel run between the passes; ``--trace 1`` runs one
untraced and one traced pass and prints the per-layer metrics, the
residual and the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the run's context (environment, calibration, digests, sample
counts).  The program is imported from ``src/`` of the checkout; the
benchmark refuses to run when a ``REPRO_*`` variable moves the program
off its defaults.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench-scratch"
TRACE_OUT = ROOT / ".perfbench-out"

# Set-up is timed in this many fresh processes; setup_s is their median.
SETUP_PROBES = 5
# Typical time of one calibration kernel run on the reference host, the
# 2-vCPU KVM guest (Xeon, Python 3.11, numpy 2.4) the benchmark was built
# on.  A timed pass or set-up probe is scaled by REFERENCE_CALIBRATION_S
# over the kernel's time around it: what it would have taken on that host.
REFERENCE_CALIBRATION_S = 0.040


class RefuseError(Exception):
    """The benchmark cannot run here as asked."""


def pin_environment() -> None:
    """Refuse any registered REPRO_* variable set off its default."""
    from repro import envcfg

    getters = {
        "bool": envcfg.get_bool,
        "int": envcfg.get_int,
        "float": envcfg.get_float,
        "path": envcfg.get_path,
        "choice": envcfg.get_choice,
    }
    for var in envcfg.declared():
        raw = envcfg.raw(var.name)
        if raw is None:
            continue
        try:
            value = getters[var.kind](var.name)
        except Exception as exc:  # noqa: BLE001 - any parse failure refuses
            raise RefuseError(f"{var.name}={raw!r} does not parse: {exc}") from None
        if value != var.default:
            raise RefuseError(
                f"{var.name}={raw!r} changes what the program runs; unset it "
                f"(default {var.default_text})"
            )


def import_program():
    """Import the program from this checkout's src/ (and nowhere else)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise RefuseError(f"no program source at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise RefuseError(f"imported repro from {repro.__file__}, not {SRC}")
    pin_environment()
    import workloads

    return workloads


class Calibration:
    """A fixed kernel that measures how fast this host runs right now.

    The host the benchmark was built on is a 2-vCPU guest that shares its
    cores: for minutes at a time the same pass runs up to 1.8x slower,
    and longer runs do not average that out.  The kernel's work is a mix
    of what the program spends its time on (a pure-Python integer loop,
    building and sorting Python tuples, small numpy operations called
    from Python, a numpy sort and random reads from a 16 MB array), so
    it slows down with the program.  Each :meth:`sample` runs it three
    times, keeps each time and records their median as the host's speed
    at that point.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.table = rng.standard_normal(1 << 21)
        self.index = rng.integers(0, self.table.size, 1 << 16)
        self.matrices = [rng.standard_normal((32, 32)) / 8.0 for _ in range(8)]
        self.samples: list[float] = []
        self.levels: list[float] = []

    def sample(self) -> None:
        import numpy as np

        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            acc = 0
            for i in range(120_000):
                acc += (i * i) % 7
            rows = sorted(((i * 7919) % 100_003, i, str(i)) for i in range(16_000))
            book = {key: (price, name) for key, price, name in rows}
            m = self.matrices[0]
            for i in range(1_200):
                m = np.tanh(m @ self.matrices[i & 7])
            data = np.sort(self.table[: 1 << 16])
            gathered = sum(float(self.table[self.index].sum()) for _ in range(6))
            times.append(time.perf_counter() - t0)
            if acc < 0 or len(book) != 16_000 or not np.isfinite(m).all() or data.size == 0:
                raise RuntimeError(f"calibration kernel produced no result ({gathered})")
        self.samples += times
        self.levels.append(statistics.median(times))

    def scales(self) -> list[float]:
        """For each interval between two samples, the factor that turns
        this host's seconds into reference-host seconds: the host's speed
        in the interval is taken as the mean of the two samples around it."""
        return [
            2.0 * REFERENCE_CALIBRATION_S / (before + after)
            for before, after in zip(self.levels, self.levels[1:])
        ]


def percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


def item_medians(item_lists: list[list[float]]) -> list[float]:
    """Each work item's host time, as its median over the run's passes.

    A pass repeats the same items in the same order (back-tests, ticks
    that reach a decision, scenario runs sorted by scenario and seed), so
    item ``i`` of every pass is one piece of work.  Taking each item's
    median before any percentile keeps a burst of host contention during
    one pass out of the run's tail.
    """
    counts = {len(items) for items in item_lists}
    if len(counts) != 1:
        from workloads import CheckError

        raise CheckError(f"passes timed different numbers of items: {sorted(counts)}")
    return [statistics.median(times) for times in zip(*item_lists)]


def sim_metrics(results: list[dict]) -> dict[str, float]:
    """Simulated-clock metrics pooled over one pass's RunResults."""
    queries = sum(r["n_queries"] for r in results)
    responded = sum(r["responded"] for r in results)
    p99 = [r["p99_latency_us"] for r in results if not math.isnan(r["p99_latency_us"])]
    return {
        "sim_response_rate": responded / queries,
        "sim_t2t_p99_us": max(p99),
        "sim_energy_per_response_mj": sum(r["energy_j"] for r in results) / responded * 1e3,
        "sim_queries": queries,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process or any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def time_setup(workload: str, seed: int) -> float:
    """Host seconds from process spawn until the workload is set up."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        try:
            child.wait(timeout=60)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            raise
    if line.strip() != "ready" or child.returncode != 0:
        raise RefuseError(f"set-up probe failed (exit {child.returncode}): {line!r}")
    return elapsed


def environment() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
    }


def check_passes(passes) -> None:
    from workloads import CheckError

    digests = {p.digest for p in passes}
    if len(digests) != 1:
        raise CheckError(f"simulated outputs differ between passes: {sorted(digests)}")


def run_untraced(wl_module, args, scratch: Path) -> tuple[dict, dict, dict]:
    workload_cls = wl_module.WORKLOADS[args.workload]
    workload = workload_cls(args.seed, scratch)
    # Every pass and set-up probe lies between two calibration samples.
    calibration = Calibration()
    passes = []
    start = time.perf_counter()
    calibration.sample()
    while not passes or time.perf_counter() - start < args.seconds:
        gc.collect()
        passes.append(workload.run_pass())
        calibration.sample()
    check_passes(passes)
    rss = peak_rss_mb()
    setups = []
    for _ in range(SETUP_PROBES):
        setups.append(time_setup(args.workload, args.seed))
        calibration.sample()
    scales = calibration.scales()
    pass_scales, setup_scales = scales[: len(passes)], scales[len(passes) :]
    first = passes[0]
    sim = sim_metrics(first.results)
    wall = statistics.median(p.wall_s for p in passes)
    items = item_medians([p.item_s for p in passes])
    scaled_items = item_medians(
        [[t * scale for t in p.item_s] for p, scale in zip(passes, pass_scales)]
    )
    p50 = percentile(items, 50)
    p99 = percentile(items, 99)
    measured = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "item_host_p50_us": p50 * 1e6,
        "item_host_p99_us": p99 * 1e6,
    }
    setup_s = statistics.median(t * scale for t, scale in zip(setups, setup_scales))
    wall_s = statistics.median(p.wall_s * scale for p, scale in zip(passes, pass_scales))
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "item_host_p50_us": (percentile(scaled_items, 50) * 1e6, "us"),
        "item_host_p99_us": (percentile(scaled_items, 99) * 1e6, "us"),
        "peak_rss_mb": (rss, "MB"),
        "sim_response_rate": (sim["sim_response_rate"], "fraction"),
        "sim_energy_per_response_mj": (sim["sim_energy_per_response_mj"], "mJ"),
    }
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    # Rates on this host, from the measured (unscaled) times.
    derived = {
        "sim_t2t_p99_us": sim["sim_t2t_p99_us"],
        "sim_queries_per_s": sim["sim_queries"] / wall,
        "failed_ratio": failed / attempted,
    }
    if args.workload == "tick_to_trade":
        derived["ticks_per_s"] = first.extra["ticks"] / statistics.median(
            p.extra["tick_loop_s"] for p in passes
        )
        derived["tick_host_p50_us"] = metrics["item_host_p50_us"][0]
        derived["tick_host_p99_us"] = metrics["item_host_p99_us"][0]
    else:
        derived["ticks_per_s"] = first.extra["ticks"] / wall
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "measured_on_this_host": measured,
        "calibration_scales": scales,
        "calibration_s": statistics.median(calibration.levels),
        "calibration_samples_s": calibration.samples,
        "pass_wall_s": [p.wall_s for p in passes],
        "setup_probes_s": setups,
        "items": len(items),
        "items_beyond_p99": sum(1 for s in items if s > p99),
        "outputs_sha256": first.digest,
        "derived": derived,
        "extra": first.extra,
        "environment": environment(),
    }
    summary = {"attempted": attempted, "failed": failed}
    return metrics, context, summary


def run_traced(wl_module, args, scratch: Path) -> tuple[dict, dict, dict]:
    import tracing

    spool = scratch / "spool"
    spool.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer(spool)
    cost_ns = tracing.wrapper_cost_ns(tracer)
    workload_cls = wl_module.WORKLOADS[args.workload]
    tracer.install()
    try:
        t0 = time.perf_counter()
        workload = workload_cls(args.seed, scratch)
        setup_traced = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    setup_spans, setup_counts = tracer.take()
    calibration = Calibration()
    calibration.sample()
    untraced = workload.run_pass()
    calibration.sample()
    tracer.install()
    try:
        traced = workload.run_pass()
    finally:
        tracer.uninstall()
    tracer.collect_workers()
    check_passes([untraced, traced])
    pass_spans, pass_counts = tracer.take()
    spans = setup_spans + pass_spans
    jobs = getattr(workload_cls, "jobs", 1)
    # Counts and inclusive times cover set-up too (compiling, synthesis and
    # tape generation happen there); self times and shares cover the pass.
    metrics = tracing.layer_metrics(
        spans, setup_counts + pass_counts, traced.results, traced.item_s, jobs,
        traced.extra.get("faults_applied", 0),
    )
    pass_self, pass_self_all = tracing.layer_self_times(pass_spans, os.getpid(), cost_ns)
    explained = sum(pass_self.values())
    wall = traced.wall_s
    owner_spans = sum(1 for span in pass_spans if tracing.span_pid(span) == os.getpid())
    wrapper_s = owner_spans * cost_ns / 1e9
    residual = wall - explained - wrapper_s
    for name in tracing.LAYERS:
        key = {
            "sim.backtest": "sim.backtest.self_s",
            "pipeline.feed_handler": "pipeline.feed_handler.on_frame_self_s",
        }.get(name, f"{name}.self_s")
        metrics[key] = pass_self_all.get(name, 0.0)
    metrics.update({
        "trace.setup_s": setup_traced,
        "trace.untraced_wall_s": untraced.wall_s,
        "trace.traced_wall_s": wall,
        "trace.overhead_s": wall - untraced.wall_s,
        "trace.wrapper_s": wrapper_s,
        "trace.residual_s": residual,
        "trace.explained_ratio": explained / wall,
        "trace.spans": len(spans),
    })
    out = TRACE_OUT / f"{args.workload}-seed{args.seed}.spans.jsonl.gz"
    tracing.write_spans(out, spans)
    print(f"per-layer self time, {args.workload}, traced pass {wall:.3f} s "
          f"(untraced {untraced.wall_s:.3f} s, overhead {wall - untraced.wall_s:+.3f} s)")
    for name, seconds in sorted(pass_self.items(), key=lambda kv: -kv[1]):
        print(f"  {name:26s} {seconds:9.4f} s  {seconds / wall:7.1%} of wall_s")
    print(f"  {'span wrappers':26s} {wrapper_s:9.4f} s  {wrapper_s / wall:7.1%} of wall_s")
    print(f"  {'residual':26s} {residual:9.4f} s  {residual / wall:7.1%} of wall_s")
    workers = {k: v - pass_self.get(k, 0.0) for k, v in pass_self_all.items()}
    if any(v > 0 for v in workers.values()):
        print(f"pool workers' self time ({jobs} processes in parallel, share of {jobs} x wall_s)")
        for name, seconds in sorted(workers.items(), key=lambda kv: -kv[1]):
            if seconds > 0:
                print(f"  {name:26s} {seconds:9.4f} s  {seconds / (jobs * wall):7.1%}")
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "spans_file": str(out.relative_to(ROOT)),
        "wrapper_cost_ns_per_span": cost_ns,
        "peak_rss_mb": peak_rss_mb(),
        "layer_share_of_wall": {k: v / wall for k, v in pass_self.items()},
        "worker_layer_share_of_jobs_wall": {
            k: v / (jobs * wall) for k, v in workers.items() if v > 0
        },
        "calibration_samples_s": calibration.samples,
        "outputs_sha256": traced.digest,
        "environment": environment(),
    }
    units = {"ticks_per_s": "ticks/s", "_s": "s", "_calls": "count", "_ratio": "ratio",
             "runs": "count", "events_written": "count", "events_applied": "count",
             "spans": "count"}
    typed = {}
    for key, value in metrics.items():
        unit = next(u for suffix, u in units.items() if key.endswith(suffix))
        typed[key] = (value, unit)
    summary = {"attempted": untraced.attempted + traced.attempted,
               "failed": untraced.failed + traced.failed}
    return typed, context, summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    scratch = SCRATCH / str(os.getpid())
    try:
        if args.seed < 0:
            raise RefuseError(f"--seed must be non-negative, got {args.seed}")
        wl_module = import_program()
        if args.workload not in wl_module.WORKLOADS:
            raise RefuseError(
                f"unknown workload {args.workload!r}; known: {sorted(wl_module.WORKLOADS)}"
            )
        scratch.mkdir(parents=True, exist_ok=True)
        # Anything the program puts in a temporary directory stays in the checkout.
        os.environ["TMPDIR"] = str(scratch)
        tempfile.tempdir = str(scratch)
        if args.setup_probe:
            wl_module.WORKLOADS[args.workload](args.seed, scratch)
            print("ready", flush=True)
            return 0
        runner = run_traced if args.trace else run_untraced
        try:
            metrics, context, summary = runner(wl_module, args, scratch)
        except wl_module.CheckError as exc:
            print(f"output check failed: {exc}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
            return 1
    except RefuseError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if SCRATCH.is_dir() and not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": True,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if summary["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
