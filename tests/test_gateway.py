"""Tests for the exchange gateway (order entry → matching → exec reports)."""

import pytest

from repro.lob import ArrayMatchingEngine, Order, Side
from repro.market.gateway import ExchangeGateway, ExecType
from repro.protocol import ILink3Cancel, ILink3Order, SecurityDirectory


@pytest.fixture
def setup():
    engine = ArrayMatchingEngine()
    directory = SecurityDirectory()
    directory.register("ESU6")
    # Resting liquidity: asks 18_002(5), bids 18_000(5).
    engine.submit("ESU6", Order(side=Side.ASK, price=18_002, quantity=5, owner="mm"), 0)
    engine.submit("ESU6", Order(side=Side.BID, price=18_000, quantity=5, owner="mm"), 0)
    return engine, directory, ExchangeGateway(engine, directory)


def order_msg(directory, side=Side.BID, price=18_002, qty=2, cl=1, ioc=True):
    return ILink3Order(
        seq_num=cl,
        sending_time=10,
        cl_ord_id=cl,
        security_id=directory.id_of("ESU6"),
        side=side,
        order_qty=qty,
        price=price,
        ioc=ioc,
    ).encode()


class TestNewOrders:
    def test_marketable_order_fills(self, setup):
        __, directory, gateway = setup
        report = gateway.submit(order_msg(directory), timestamp=10)
        assert report.exec_type is ExecType.FILLED
        assert report.filled_qty == 2
        assert report.avg_price_ticks == pytest.approx(18_002)
        assert report.leaves_qty == 0

    def test_partial_ioc_expires_remainder(self, setup):
        engine, directory, gateway = setup
        report = gateway.submit(order_msg(directory, qty=9), timestamp=10)
        assert report.exec_type is ExecType.PARTIAL
        assert report.filled_qty == 5
        assert report.leaves_qty == 0
        assert engine.book("ESU6").best_bid == 18_000  # nothing rested

    def test_passive_limit_acknowledges_and_rests(self, setup):
        engine, directory, gateway = setup
        report = gateway.submit(
            order_msg(directory, price=18_001, ioc=False), timestamp=10
        )
        assert report.exec_type is ExecType.ACKNOWLEDGED
        assert report.leaves_qty == 2
        assert engine.book("ESU6").best_bid == 18_001

    def test_ioc_away_from_market_expires(self, setup):
        __, directory, gateway = setup
        report = gateway.submit(order_msg(directory, price=17_990), timestamp=10)
        assert report.exec_type is ExecType.EXPIRED
        assert report.filled_qty == 0

    def test_unknown_security_rejected(self, setup):
        __, directory, gateway = setup
        msg = ILink3Order(1, 10, 1, security_id=99, side=Side.BID, order_qty=1, price=10).encode()
        report = gateway.submit(msg, timestamp=10)
        assert report.exec_type is ExecType.REJECTED
        assert gateway.stats.rejects == 1

    def test_garbage_rejected(self, setup):
        __, __, gateway = setup
        report = gateway.submit(b"garbage", timestamp=10)
        assert report.exec_type is ExecType.REJECTED


class TestCancels:
    def test_cancel_resting_order(self, setup):
        engine, directory, gateway = setup
        gateway.submit(order_msg(directory, price=18_001, ioc=False, cl=7), 10)
        cancel = ILink3Cancel(
            seq_num=2,
            sending_time=11,
            cl_ord_id=8,
            orig_cl_ord_id=7,
            security_id=directory.id_of("ESU6"),
            side=Side.BID,
        ).encode()
        report = gateway.submit(cancel, timestamp=11)
        assert report.exec_type is ExecType.CANCELLED
        assert engine.book("ESU6").best_bid == 18_000

    def test_cancel_unknown_rejected(self, setup):
        __, directory, gateway = setup
        cancel = ILink3Cancel(1, 10, 2, 999, directory.id_of("ESU6"), Side.BID).encode()
        report = gateway.submit(cancel, timestamp=10)
        assert report.exec_type is ExecType.REJECTED

    def test_cancel_after_fill_rejected(self, setup):
        engine, directory, gateway = setup
        gateway.submit(order_msg(directory, price=18_001, ioc=False, cl=7), 10)
        # Someone lifts the resting bid entirely.
        engine.submit("ESU6", Order(side=Side.ASK, price=18_001, quantity=2, owner="x"), 11)
        cancel = ILink3Cancel(2, 12, 8, 7, directory.id_of("ESU6"), Side.BID).encode()
        report = gateway.submit(cancel, timestamp=12)
        assert report.exec_type is ExecType.REJECTED
        assert "no longer live" in report.reason


class TestEndToEndLoop:
    def test_trading_engine_to_gateway_fills(self, setup):
        """The full loop: prediction -> TradingEngine -> gateway -> fills."""
        import numpy as np

        from repro.lob import DepthSnapshot
        from repro.pipeline import TradingEngine

        engine, directory, gateway = setup
        trader = TradingEngine(security_id=directory.id_of("ESU6"))
        snapshot = DepthSnapshot.capture(engine.book("ESU6"), timestamp=20)
        decision = trader.on_inference(np.array([0.1, 0.1, 0.8]), snapshot, 20)
        assert decision.acted
        report = gateway.submit(decision.encoded, timestamp=20)
        assert report.exec_type in (ExecType.FILLED, ExecType.PARTIAL)
        assert report.filled_qty >= 1
