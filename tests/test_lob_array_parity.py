"""Differential tests: the shipped array engine vs the test oracle.

The struct-of-arrays engine (``repro.lob.array_book`` /
``repro.lob.array_matching``) must stay bit-exact against the
object-per-order oracle in ``tests/lob_oracle.py``: same fills (prices,
quantities, maker ids and owners), same :class:`MarketEvent` stream with
the same sequence numbers, same books afterwards.  These tests drive
seeded randomized op streams (submit/cancel/replace across order types
and TIFs) through both engines per-op and through ``replay_ops`` as one
batch.  The market generator's end-to-end tapes are pinned separately by
``tests/test_market_golden.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import MatchingError, OrderBookError
from repro.lob import ArrayMatchingEngine, Order, OrderType, Side, TimeInForce
from repro.lob.array_matching import OP_CANCEL, OP_REPLACE, OP_SUBMIT, OpBatch
from tests.lob_oracle import MatchingEngine

SYMBOL = "ES"


def make_stream(seed: int, n_ops: int = 2500) -> list[tuple[int, ...]]:
    """A seeded randomized op stream as (kind, side, otype, tif, price, qty, id).

    Order ids are assigned explicitly so both engines see identical ids.
    Roughly 70% submits (a mix of LIMIT and MARKET across DAY/IOC/FOK),
    15% cancels and 15% replaces of orders that may still be resting.
    """
    rng = np.random.default_rng(seed)
    rows: list[tuple[int, ...]] = []
    live: list[int] = []
    oid = 0
    for _ in range(n_ops):
        r = rng.uniform()
        if r < 0.70 or not live:
            oid += 1
            side = int(rng.integers(0, 2))
            otype = (
                int(OrderType.MARKET)
                if rng.uniform() < 0.12
                else int(OrderType.LIMIT)
            )
            tif = int(rng.choice([0, 1, 2], p=[0.6, 0.3, 0.1]))
            price = int(rng.integers(95, 106)) if otype == int(OrderType.LIMIT) else 1
            qty = int(rng.integers(1, 12))
            rows.append((OP_SUBMIT, side, otype, tif, price, qty, oid))
            if otype == int(OrderType.LIMIT) and tif == int(TimeInForce.DAY):
                live.append(oid)
        elif r < 0.85:
            victim = live.pop(int(rng.integers(0, len(live))))
            rows.append((OP_CANCEL, 0, 0, 0, 0, 0, victim))
        else:
            target = live[int(rng.integers(0, len(live)))]
            new_price = int(rng.integers(95, 106)) if rng.uniform() < 0.7 else 0
            new_qty = (
                int(rng.integers(1, 12))
                if new_price == 0 or rng.uniform() < 0.5
                else 0
            )
            if new_price == 0 and new_qty == 0:
                new_qty = 1
            rows.append((OP_REPLACE, 0, 0, 0, new_price, new_qty, target))
    return rows


def apply_op(engine, row, timestamp=0):
    """Play one stream row into ``engine``; returns its MatchResult."""
    kind, side, otype, tif, price, qty, order_id = row
    if kind == OP_SUBMIT:
        order = Order(
            side=Side(side),
            price=price,
            quantity=qty,
            order_id=order_id,
            order_type=OrderType(otype),
            tif=TimeInForce(tif),
            owner="replay",
        )
        return engine.submit(SYMBOL, order, timestamp)
    if kind == OP_CANCEL:
        return engine.cancel(SYMBOL, order_id, timestamp)
    return engine.replace(
        SYMBOL,
        order_id,
        timestamp,
        new_price=price if price > 0 else None,
        new_quantity=qty if qty > 0 else None,
    )


def valid_rows(rows):
    """Filter ``rows`` to the ops the oracle engine accepts as legal.

    Cancels/replaces of orders that already traded away raise — drop
    those rows so every remaining op is applied by both engines.
    """
    engine = MatchingEngine()
    kept = []
    for row in rows:
        try:
            apply_op(engine, row)
        except (OrderBookError, MatchingError):
            continue
        kept.append(row)
    return kept


@pytest.mark.parametrize("seed", [7, 11, 42])
def test_per_op_differential_parity(seed):
    rows = valid_rows(make_stream(seed))
    reference = MatchingEngine()
    array = ArrayMatchingEngine()
    for i, row in enumerate(rows):
        ref = apply_op(reference, row)
        arr = apply_op(array, row)
        assert arr.accepted == ref.accepted, (i, row)
        assert arr.fills == ref.fills, (i, row)
        assert arr.events == ref.events, (i, row)  # includes sequences
        assert not array.book(SYMBOL).is_crossed()
        if i % 100 == 0:
            ref_book = reference.book(SYMBOL)
            arr_book = array.book(SYMBOL)
            assert arr_book.bids.top(10) == ref_book.bids.top(10)
            assert arr_book.asks.top(10) == ref_book.asks.top(10)
    assert array._sequence == reference._sequence
    assert len(array.book(SYMBOL)) == len(reference.book(SYMBOL))
    assert array.book(SYMBOL).bids.top(25) == reference.book(SYMBOL).bids.top(25)
    assert array.book(SYMBOL).asks.top(25) == reference.book(SYMBOL).asks.top(25)


@pytest.mark.parametrize("seed", [3, 19])
def test_batch_replay_matches_per_op(seed):
    rows = valid_rows(make_stream(seed))
    per_op = ArrayMatchingEngine()
    n_fills = traded = notional = rejected = 0
    for row in rows:
        result = apply_op(per_op, row)
        if not result.accepted:
            rejected += 1
        for fill in result.fills:
            n_fills += 1
            traded += fill.quantity
            notional += fill.price * fill.quantity

    batch = ArrayMatchingEngine()
    stats = batch.replay_ops(SYMBOL, OpBatch.from_rows(rows))
    assert stats.n_ops == len(rows)
    assert stats.n_fills == n_fills
    assert stats.traded_quantity == traded
    assert stats.notional == notional
    assert stats.rejected == rejected
    assert stats.final_sequence == per_op._sequence
    assert batch.book(SYMBOL).bids.top(25) == per_op.book(SYMBOL).bids.top(25)
    assert batch.book(SYMBOL).asks.top(25) == per_op.book(SYMBOL).asks.top(25)
    assert not batch.book(SYMBOL).is_crossed()


def test_per_op_calls_work_after_a_batch():
    # The batch kernel checks arrays out into plain lists and commits
    # them back; per-op calls on the same book must keep working.
    engine = ArrayMatchingEngine()
    engine.replay_ops(SYMBOL, OpBatch.from_rows(valid_rows(make_stream(5))))
    probe = Order(side=Side.BID, price=2, quantity=3, order_id=10**9, owner="after")
    engine.submit(SYMBOL, probe, 1)
    assert probe.order_id in engine.book(SYMBOL)
    engine.cancel(SYMBOL, probe.order_id, 2)
    assert probe.order_id not in engine.book(SYMBOL)


def test_failed_batch_leaves_book_untouched():
    engine = ArrayMatchingEngine()
    engine.submit(
        SYMBOL, Order(side=Side.BID, price=100, quantity=5, order_id=1), 0
    )
    before_bids = engine.book(SYMBOL).bids.top(5)
    bad = OpBatch.from_rows(
        [
            (OP_SUBMIT, int(Side.ASK), 0, 0, 105, 5, 2),
            (OP_CANCEL, 0, 0, 0, 0, 0, 999),  # unknown order: raises
        ]
    )
    with pytest.raises(OrderBookError):
        engine.replay_ops(SYMBOL, bad)
    assert engine.book(SYMBOL).bids.top(5) == before_bids
    assert engine.book(SYMBOL).asks.top(5) == []  # ask from op 1 rolled back
    assert 2 not in engine.book(SYMBOL)

