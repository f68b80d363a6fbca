"""Unit tests for the order-flow agents."""

import numpy as np
import pytest

from repro.lob import ArrayMatchingEngine, Order, ReplaySession, Side
from repro.market.agents import (
    AgentMix,
    LiquidityTaker,
    MarketContext,
    MarketMaker,
    MomentumTrader,
    default_mix,
)


def make_ctx(reference_price=18_000.0, seed_book=True):
    """A session-backed context over a fresh engine; two-sided if seeded."""
    engine = ArrayMatchingEngine()
    if seed_book:
        engine.submit("ES", Order(side=Side.BID, price=17_998, quantity=10), 0)
        engine.submit("ES", Order(side=Side.ASK, price=18_002, quantity=10), 0)
    return MarketContext("ES", reference_price, ReplaySession(engine, "ES"))


def book_levels(ctx, depth=64):
    """(price, volume) per live level on both sides of the session."""
    return list(ctx.session.top_bids(depth)) + list(ctx.session.top_asks(depth))


@pytest.fixture
def ctx():
    return make_ctx()


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestMarketMaker:
    def test_places_quotes(self, ctx, rng):
        maker = MarketMaker("mm")
        for t in range(20):
            assert maker.act(ctx, t, rng)  # a DAY limit always prints
        ctx.session.commit()
        book = ctx.session.engine.book("ES")
        assert len(book) > 2  # seeded 2 plus maker quotes

    def test_recycles_stale_quotes(self, ctx, rng):
        maker = MarketMaker("mm", max_live_quotes=5)
        for t in range(50):
            maker.act(ctx, t, rng)
        assert len(maker._live) <= 5

    def test_quotes_around_anchor(self, ctx, rng):
        maker = MarketMaker("mm", max_depth=3)
        for t in range(30):
            maker.act(ctx, t, rng)
        for price, __ in book_levels(ctx):
            assert abs(price - 18_000) <= 12


class TestLiquidityTaker:
    def test_crosses_the_spread(self, ctx, rng):
        taker = LiquidityTaker("taker")
        traded_before = ctx.session.traded_quantity
        acted = [taker.act(ctx, t, rng) for t in range(30)]
        assert any(acted)  # some IOC orders executed
        assert ctx.session.traded_quantity > traded_before

    def test_noop_on_empty_book(self, rng):
        context = make_ctx(reference_price=100.0, seed_book=False)
        assert LiquidityTaker("t").act(context, 0, rng) is False

    def test_sets_direction(self, ctx, rng):
        taker = LiquidityTaker("taker")
        for t in range(30):
            taker.act(ctx, t, rng)
        assert ctx.last_direction in (-1, 0, 1)


class TestMomentumTrader:
    def test_idle_without_direction(self, ctx, rng):
        assert MomentumTrader("momo").act(ctx, 0, rng) is False

    def test_chases_direction(self, ctx, rng):
        ctx.last_direction = 1
        best_ask = ctx.session.best_ask()
        assert MomentumTrader("momo").act(ctx, 0, rng)
        # A buy: it lifted the ask side, at the best ask.
        assert ctx.session.op_filled > 0
        assert ctx.session.trade_price == best_ask


class TestAgentMix:
    def test_default_mix_samples_all_archetypes(self, rng):
        mix = default_mix()
        names = {type(mix.sample(rng)).__name__ for __ in range(200)}
        assert names == {"MarketMaker", "LiquidityTaker", "MomentumTrader"}

    def test_invalid_mix_rejected(self):
        with pytest.raises(ValueError):
            AgentMix(agents=(), weights=())
        with pytest.raises(ValueError):
            AgentMix(agents=(MarketMaker("m"),), weights=(1.0, 2.0))
        with pytest.raises(ValueError):
            AgentMix(agents=(MarketMaker("m"),), weights=(-1.0,))
