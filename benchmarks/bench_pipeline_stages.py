"""Micro-benchmarks of the functional pipeline stages (wall-clock of our
Python implementations — useful for harness health, not paper numbers).

The LOB section additionally persists ``benchmarks/results/
BENCH_lob_speed.json`` — a run manifest whose deterministic ``lob.*``
metric counters come from a pinned replay (CI diffs it against the
committed baseline) and whose ``perf`` section records the measured
single-book ops/s (the object-per-order test oracle in
``tests/lob_oracle.py`` vs the shipped array engine, per-op vs batch).

The market-generation section persists ``BENCH_market_gen.json`` the
same way: deterministic ``lob.*`` counters from a pinned session
(CI-diffed against its committed baseline), plus measured generation
ticks/s, per-op book ops/s and the depth-snapshot capture cost.  Gate:
array per-op >= 1x the oracle's per-op rate.  Tape bytes are pinned by
``tests/test_market_golden.py``, not here.
"""

import time

import numpy as np
import pytest

from conftest import RESULTS_DIR
from repro.errors import MatchingError, OrderBookError
from repro.lob import (
    ArrayMatchingEngine,
    OpBatch,
    Order,
    OrderType,
    Side,
    TimeInForce,
)
from repro.lob.array_matching import OP_CANCEL, OP_SUBMIT
from repro.lob.snapshot import DepthSnapshot
from repro.market import MarketConfig, MarketSimulator, cached_session, generate_session
from repro.metrics import MetricRegistry
from repro.metrics.manifest import build_manifest, write_manifest
from repro.nn import build_model
from repro.pipeline import NormalizationStats, OffloadEngine
from repro.protocol import (
    PacketParser,
    SecurityDirectory,
    encode_market_events,
    encode_udp_frame,
)
from repro.lob.events import BookUpdate, UpdateAction
from tests.lob_oracle import MatchingEngine


@pytest.fixture(scope="module")
def tape():
    # The two-level tape cache: repeated benchmark invocations in one
    # process (and across processes under REPRO_TAPE_CACHE) reuse the
    # session instead of regenerating it.
    return cached_session(duration_s=2.0, seed=13)


def test_bench_matching_engine(benchmark):
    def run():
        engine = ArrayMatchingEngine()
        rng = np.random.default_rng(0)
        for i in range(2_000):
            side = Side.BID if rng.uniform() < 0.5 else Side.ASK
            price = 18_000 + int(rng.integers(-5, 6))
            engine.submit("ES", Order(side=side, price=price, quantity=3), i)
        return engine

    engine = benchmark(run)
    assert engine.book("ES").mid_price is not None


def test_bench_sbe_decode(benchmark):
    directory = SecurityDirectory()
    directory.register("ESU6")
    events = [
        BookUpdate("ESU6", 1, UpdateAction.NEW, Side.BID, 18_000 - i, 5, i)
        for i in range(8)
    ]
    frame = encode_udp_frame(encode_market_events(events, directory, 1))
    parser = PacketParser(directory)

    packet = benchmark(parser.parse_frame, frame)
    assert packet is not None
    assert len(packet.events) == 8


def test_bench_offload_engine(benchmark, tape):
    stats = NormalizationStats.fit(tape)

    def run():
        engine = OffloadEngine(stats=stats, window=100, store_tensors=True)
        query = None
        for i, tick in enumerate(tape[:300]):
            query = engine.on_tick(tick.snapshot, tick.timestamp, tick.timestamp + 10**9, i) or query
        return query

    query = benchmark(run)
    assert query is not None
    assert query.tensor.shape == (100, 40)


@pytest.mark.parametrize("name", ["vanilla_cnn", "translob", "deeplob"])
def test_bench_model_inference(benchmark, name):
    model = build_model(name)
    x = np.random.default_rng(0).standard_normal((1, *model.input_shape)).astype(np.float32)
    out = benchmark(model.forward, x)
    assert out.shape == (1, 3)


def test_bench_compiler(benchmark):
    from repro.compiler import compile_model
    from repro.nn import build_vanilla_cnn

    program = benchmark(lambda: compile_model(build_vanilla_cnn()))
    assert program.per_sample_cycles > 0


# ---------------------------------------------------------------------------
# LOB: the struct-of-arrays engine, per-op and batch kernel, vs the oracle
# ---------------------------------------------------------------------------

# Pinned stream for BENCH_lob_speed.json: seed and size fixed so the
# deterministic sections (lob.* metric counters, replay stats) are
# byte-stable across machines and the CI diff can gate on them.
LOB_STREAM_SEED = 1
LOB_STREAM_OPS = 20_000

# Pinned session for BENCH_market_gen.json (same discipline: the tape
# digest and lob.* counters are deterministic, CI diffs them).
MARKET_GEN_SEED = 3
MARKET_GEN_DURATION_S = 6.0

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF


def _fold_tape(tape) -> int:
    """Order-sensitive FNV fold of every snapshot checksum in ``tape``."""
    digest = _FNV_OFFSET
    for tick in tape:
        value = tick.snapshot.checksum()
        for _ in range(8):
            digest = ((digest ^ (value & 0xFF)) * _FNV_PRIME) & _U64
            value >>= 8
    return digest


def _lob_stream(seed: int, n_ops: int) -> list[tuple[int, ...]]:
    """A legal seeded submit/cancel stream, pre-filtered by the oracle."""
    rng = np.random.default_rng(seed)
    rows = []
    live = []
    oid = 0
    for _ in range(n_ops):
        if rng.uniform() < 0.8 or not live:
            oid += 1
            tif = int(rng.choice([0, 1], p=[0.7, 0.3]))
            rows.append(
                (
                    OP_SUBMIT,
                    int(rng.integers(0, 2)),
                    0,
                    tif,
                    int(rng.integers(95, 106)),
                    int(rng.integers(1, 10)),
                    oid,
                )
            )
            if tif == int(TimeInForce.DAY):
                live.append(oid)
        else:
            victim = live.pop(int(rng.integers(0, len(live))))
            rows.append((OP_CANCEL, 0, 0, 0, 0, 0, victim))
    engine = MatchingEngine()
    kept = []
    for row in rows:
        try:
            _lob_apply(engine, row)
        except (OrderBookError, MatchingError):
            continue
        kept.append(row)
    return kept


def _lob_apply(engine, row):
    kind, side, otype, tif, price, qty, order_id = row
    if kind == OP_SUBMIT:
        return engine.submit(
            "ES",
            Order(
                side=Side(side),
                price=price,
                quantity=qty,
                order_id=order_id,
                order_type=OrderType(otype),
                tif=TimeInForce(tif),
                owner="bench",
            ),
            0,
        )
    return engine.cancel("ES", order_id, 0)


def _lob_per_op_rate(engine_factory, rows) -> float:
    best = 0.0
    for _ in range(3):
        engine = engine_factory()
        t0 = time.perf_counter()
        for row in rows:
            _lob_apply(engine, row)
        best = max(best, len(rows) / (time.perf_counter() - t0))
    return best


def test_bench_lob_single_book(benchmark, record_table):
    """Oracle per-op vs array per-op vs array batch kernel ops/s.

    Gate: the batch kernel must clear 5x the object-per-order oracle
    (measured ~15x; 5x leaves shared-runner headroom), with per-op/batch
    parity re-asserted on the same stream.
    """
    rows = _lob_stream(LOB_STREAM_SEED, LOB_STREAM_OPS)
    batch = OpBatch.from_rows(rows)
    rates = {}

    def measure():
        rates["reference_per_op"] = _lob_per_op_rate(MatchingEngine, rows)
        rates["array_per_op"] = _lob_per_op_rate(ArrayMatchingEngine, rows)
        best = 0.0
        for _ in range(3):
            engine = ArrayMatchingEngine()
            t0 = time.perf_counter()
            engine.replay_ops("ES", batch)
            best = max(best, len(rows) / (time.perf_counter() - t0))
        rates["array_batch"] = best
        return rates

    benchmark.pedantic(measure, rounds=1, iterations=1)

    # Deterministic manifest run: the array engine's lob.* counters over
    # the pinned stream (per-op, so the high-water gauges see every op).
    registry = MetricRegistry()
    per_op = ArrayMatchingEngine(metrics=registry)
    for row in rows:
        _lob_apply(per_op, row)
    replayed = ArrayMatchingEngine()
    stats = replayed.replay_ops("ES", batch)
    assert stats.final_sequence == per_op._sequence
    assert replayed.book("ES").bids.top(25) == per_op.book("ES").bids.top(25)
    assert replayed.book("ES").asks.top(25) == per_op.book("ES").asks.top(25)

    speedup_batch = rates["array_batch"] / rates["reference_per_op"]
    speedup_per_op = rates["array_per_op"] / rates["reference_per_op"]
    record_table(
        "lob_speed",
        "Single-book LOB ops/s (20k-op seeded submit/cancel stream)\n"
        f"  reference per-op: {rates['reference_per_op']:,.0f}\n"
        f"  array per-op:     {rates['array_per_op']:,.0f}"
        f"  ({speedup_per_op:.1f}x)\n"
        f"  array batch:      {rates['array_batch']:,.0f}"
        f"  ({speedup_batch:.1f}x)",
    )
    manifest = build_manifest(
        run={
            "system": "lob",
            "bench": "lob_speed",
            "stream_seed": LOB_STREAM_SEED,
            "stream_ops": len(rows),
        },
        registry=registry,
        config={"engine": "array", "symbol": "ES"},
        seeds={"stream": LOB_STREAM_SEED},
        perf={
            "reference_ops_per_s": rates["reference_per_op"],
            "array_per_op_ops_per_s": rates["array_per_op"],
            "array_batch_ops_per_s": rates["array_batch"],
            "batch_speedup_vs_reference": speedup_batch,
        },
    )
    manifest["result"] = {
        "n_ops": stats.n_ops,
        "n_fills": stats.n_fills,
        "traded_quantity": stats.traded_quantity,
        "notional": stats.notional,
        "rejected": stats.rejected,
        "final_sequence": stats.final_sequence,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    write_manifest(RESULTS_DIR / "BENCH_lob_speed.json", manifest)
    # Calibrated gate: measured ~15x on the reference container.
    assert speedup_batch >= 5.0, rates


def test_bench_market_gen(benchmark, record_table):
    """Market generation ticks/s, plus book hot paths.

    Gate (calibrated on the reference container): the list-backed array
    book's per-op rate must at least match the object-per-order oracle
    (measured ~1.1x; it was 0.67x before the scalar-tax removal).
    Generation speed is gated end to end by the repository benchmark's
    ``tape_fifo`` wall time; tape bytes by the golden digests.
    """
    rows = _lob_stream(LOB_STREAM_SEED, LOB_STREAM_OPS)
    rates = {}

    def measure():
        gen = []
        for _ in range(5):
            t0 = time.perf_counter()
            tape = generate_session(
                duration_s=MARKET_GEN_DURATION_S, seed=MARKET_GEN_SEED
            )
            gen.append(len(tape) / (time.perf_counter() - t0))
        rates["ticks_per_s"] = max(gen)
        # Interleave oracle/array rounds and gate on the best *paired*
        # ratio: a container-wide load spike slows both halves of a pair
        # about equally, so the ratio survives noise that would sink a
        # best-of-phase comparison.
        per_op = {"reference": [], "array": []}
        for _ in range(3):
            per_op["reference"].append(_lob_per_op_rate(MatchingEngine, rows))
            per_op["array"].append(_lob_per_op_rate(ArrayMatchingEngine, rows))
        rates["reference_per_op"] = max(per_op["reference"])
        rates["array_per_op"] = max(per_op["array"])
        rates["per_op_ratio"] = max(
            arr / ref for arr, ref in zip(per_op["array"], per_op["reference"])
        )
        # Depth-snapshot capture over a populated array book.
        engine = ArrayMatchingEngine()
        for row in rows[:2000]:
            _lob_apply(engine, row)
        book = engine.book("ES")
        t0 = time.perf_counter()
        for _ in range(5_000):
            DepthSnapshot.capture(book, timestamp=0)
        rates["snapshot_capture_us"] = (time.perf_counter() - t0) / 5_000 * 1e6
        return rates

    benchmark.pedantic(measure, rounds=1, iterations=1)

    # Deterministic manifest run: the pinned session's lob.* metrics.
    registry = MetricRegistry()
    tape = MarketSimulator(
        MarketConfig(), seed=MARKET_GEN_SEED, metrics=registry
    ).generate(MARKET_GEN_DURATION_S)
    digest = _fold_tape(tape)

    per_op_ratio = rates["per_op_ratio"]
    record_table(
        "market_gen",
        f"Market generation ({MARKET_GEN_DURATION_S:.0f}s session, "
        f"seed {MARKET_GEN_SEED}, {len(tape)} ticks)\n"
        f"  generation:     {rates['ticks_per_s']:,.0f} ticks/s\n"
        f"  per-op book:    array {rates['array_per_op']:,.0f} vs "
        f"oracle {rates['reference_per_op']:,.0f} ops/s"
        f"  ({per_op_ratio:.2f}x)\n"
        f"  snapshot capture: {rates['snapshot_capture_us']:.1f} us",
    )
    manifest = build_manifest(
        run={
            "system": "market",
            "bench": "market_gen",
            "seed": MARKET_GEN_SEED,
            "duration_s": MARKET_GEN_DURATION_S,
        },
        registry=registry,
        config={"engine": "array", "symbol": "ESU6"},
        seeds={"session": MARKET_GEN_SEED, "lob_stream": LOB_STREAM_SEED},
        perf={
            "ticks_per_s": rates["ticks_per_s"],
            "array_per_op_ops_per_s": rates["array_per_op"],
            "reference_per_op_ops_per_s": rates["reference_per_op"],
            "per_op_ratio_vs_reference": per_op_ratio,
            "snapshot_capture_us": rates["snapshot_capture_us"],
        },
    )
    manifest["result"] = {"ticks": len(tape), "tape_digest": f"{digest:016x}"}
    RESULTS_DIR.mkdir(exist_ok=True)
    write_manifest(RESULTS_DIR / "BENCH_market_gen.json", manifest)
    # Calibrated gate; see the docstring for measured headroom.
    assert per_op_ratio >= 1.0, rates
