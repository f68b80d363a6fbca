"""Order-flow agents that generate realistic exchange activity.

The synthetic market is agent-based: at every Hawkes arrival one agent
acts on the shared order book.  The mix below reproduces the three
ingredients the paper's traffic analysis relies on — passive liquidity
(market makers re-quoting), aggressive flow (takers), and order-chasing
behaviour that amplifies bursts (momentum traders) — while keeping the
book two-sided and mean-reverting around a slowly moving reference price.

Agents plan their operations as plain-int records against a checked-out
:class:`~repro.lob.array_matching.ReplaySession` — no
``Order``/``MatchResult`` objects per arrival.  Each agent's RNG draw
sequence is part of the tape's identity: ``tests/data/market_golden.json``
pins the resulting tapes byte for byte.
"""

from __future__ import annotations

import abc
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from repro.lob.array_matching import ReplaySession
from repro.lob.order import OrderType, Side, TimeInForce, next_order_id

# Plain-int encodings of the order enums (== the enum values).
_BID = int(Side.BID)
_ASK = int(Side.ASK)
_LIMIT = int(OrderType.LIMIT)
_MARKET = int(OrderType.MARKET)
_DAY = int(TimeInForce.DAY)
_IOC = int(TimeInForce.IOC)
_SIGN = (1, -1)  # Side.sign by int side


class MarketContext:
    """Mutable state shared between agents while generating a session.

    Reads (best bid/ask, anchor price) come from the checked-out
    :class:`~repro.lob.array_matching.ReplaySession` buffers, writes go
    through the session's integer ops; the live book is only touched at
    commit.
    """

    __slots__ = ("symbol", "reference_price", "last_direction", "session", "_owner_ids")

    def __init__(
        self, symbol: str, reference_price: float, session: ReplaySession
    ) -> None:
        self.symbol = symbol
        self.reference_price = reference_price  # slowly drifting fair value, in ticks
        self.last_direction = 0  # sign of the last trade-driven mid move
        self.session = session
        self._owner_ids: dict[str, int] = {}

    def owner_id(self, name: str) -> int:
        """Dense owner id for ``name`` (memoised interning)."""
        owner = self._owner_ids.get(name)
        if owner is None:
            owner = self.session.intern(name)
            self._owner_ids[name] = owner
        return owner

    def anchor_price(self) -> int:
        """Best integer price to quote around: the mid if the book is
        two-sided, else the drifting reference price."""
        bid = self.session.best_bid()
        ask = self.session.best_ask()
        if bid is not None and ask is not None:
            return round((bid + ask) / 2)
        return round(self.reference_price)


class Agent(abc.ABC):
    """One participant archetype; ``act`` plans session operations."""

    @abc.abstractmethod
    def act(
        self, ctx: MarketContext, timestamp: int, rng: np.random.Generator
    ) -> bool:
        """Plan zero or more operations at ``timestamp`` through
        ``ctx.session``; True when the arrival produced market events."""


class MarketMaker(Agent):
    """Quotes both sides around the anchor and recycles stale quotes.

    Keeps a bounded inventory of live quotes; when over the bound it
    cancels the oldest quote first — generating the cancel/replace churn
    that dominates real tick feeds.
    """

    def __init__(self, name: str, max_live_quotes: int = 40, max_depth: int = 8) -> None:
        self.name = name
        self.max_live_quotes = max_live_quotes
        self.max_depth = max_depth
        self._live: list[int] = []  # order ids, oldest first

    def act(
        self, ctx: MarketContext, timestamp: int, rng: np.random.Generator
    ) -> bool:
        session = ctx.session
        had_events = False
        while len(self._live) >= self.max_live_quotes:
            order_id = self._live.pop(0)
            if session.contains(order_id):
                session.cancel(order_id)
                had_events = True
        anchor = ctx.anchor_price()
        side = _BID if rng.random() < 0.5 else _ASK
        offset = int(rng.integers(1, self.max_depth + 1))
        price = anchor - offset if side == _BID else anchor + offset
        if price <= 0:
            return had_events
        quantity = int(rng.integers(1, 10))
        order_id = next_order_id()
        session.submit(
            side, _LIMIT, _DAY, price, quantity, order_id, timestamp,
            ctx.owner_id(self.name),
        )
        if session.op_rested:
            self._live.append(order_id)
        # A DAY limit always prints (fills and/or a resting update).
        return True


class LiquidityTaker(Agent):
    """Sends aggressive IOC orders that cross the spread (noise flow)."""

    def __init__(self, name: str, aggression: float = 0.5) -> None:
        self.name = name
        self.aggression = aggression

    def act(
        self, ctx: MarketContext, timestamp: int, rng: np.random.Generator
    ) -> bool:
        session = ctx.session
        best_bid = session.best_bid()
        best_ask = session.best_ask()
        if best_bid is None or best_ask is None:
            return False
        side = _BID if rng.random() < 0.5 else _ASK
        touch = best_ask if side == _BID else best_bid
        quantity = int(rng.integers(1, 6))
        session.submit(
            side, _LIMIT, _IOC, touch, quantity, next_order_id(), timestamp,
            ctx.owner_id(self.name),
        )
        if session.op_filled:
            ctx.last_direction = _SIGN[side]
            return True
        # An unfilled IOC leaves no trace (no fills, no resting update).
        return False


class MomentumTrader(Agent):
    """Chases the last move, amplifying bursts into directional cascades."""

    def __init__(self, name: str) -> None:
        self.name = name

    def act(
        self, ctx: MarketContext, timestamp: int, rng: np.random.Generator
    ) -> bool:
        if ctx.last_direction == 0:
            return False
        session = ctx.session
        if session.best_bid() is None or session.best_ask() is None:
            return False
        side = _BID if ctx.last_direction > 0 else _ASK
        quantity = int(rng.integers(1, 4))
        session.submit(
            side, _MARKET, _DAY, 1, quantity, next_order_id(), timestamp,
            ctx.owner_id(self.name),
        )
        return session.op_filled > 0


@dataclass(frozen=True)
class AgentMix:
    """Weighted population of agents sampled per arrival."""

    agents: tuple[Agent, ...]
    weights: tuple[float, ...]
    # Normalized CDF of the weights, cached for sample's bisect.
    _cdf: list[float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.agents) != len(self.weights):
            raise ValueError("agents and weights must align")
        if not self.agents:
            raise ValueError("agent mix cannot be empty")
        if any(w < 0 for w in self.weights) or sum(self.weights) <= 0:
            raise ValueError("weights must be non-negative and sum > 0")
        probs = np.asarray(self.weights, dtype=float)
        probs /= probs.sum()
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        object.__setattr__(self, "_cdf", cdf.tolist())

    def sample(self, rng: np.random.Generator) -> Agent:
        """Draw one agent according to the mix weights.

        Bisecting the cached CDF on one ``rng.random()`` draw selects the
        agent ``rng.choice(n, p=probs)`` would, and leaves the bit-stream
        in the same state (both invert the CDF on a single double).
        """
        return self.agents[bisect_right(self._cdf, rng.random())]


def default_mix() -> AgentMix:
    """The standard population: 60% maker churn, 30% takers, 10% momentum."""
    return AgentMix(
        agents=(
            MarketMaker("mm-0"),
            MarketMaker("mm-1", max_depth=4),
            LiquidityTaker("taker-0"),
            MomentumTrader("momo-0"),
        ),
        weights=(0.35, 0.25, 0.30, 0.10),
    )
