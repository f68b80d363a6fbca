"""Limit order book substrate: orders, books, matching, snapshots, events.

One matching engine lives here: the struct-of-arrays
:class:`ArrayMatchingEngine` over :class:`ArrayBook`, with a per-op API
returning :class:`MatchResult` and the :class:`ReplaySession` batch
kernel the market generator drives.  The object-per-order
:class:`LimitOrderBook` stays as the feed handler's local book mirror.
"""

from repro.lob.array_book import ArrayBook, ArraySide, LevelView, OrderSlab
from repro.lob.array_matching import (
    ArrayMatchingEngine,
    OpBatch,
    ReplaySession,
    ReplayStats,
)
from repro.lob.book import BookSide, LimitOrderBook, PriceLevel
from repro.lob.events import BookUpdate, MarketEvent, TradeTick, UpdateAction
from repro.lob.matching import MatchResult
from repro.lob.order import Fill, Order, OrderType, Side, TimeInForce, next_order_id
from repro.lob.snapshot import CANONICAL_DEPTH, FEATURES_PER_LEVEL, DepthSnapshot

__all__ = [
    "ArrayBook",
    "ArrayMatchingEngine",
    "ArraySide",
    "BookSide",
    "BookUpdate",
    "CANONICAL_DEPTH",
    "DepthSnapshot",
    "FEATURES_PER_LEVEL",
    "Fill",
    "LevelView",
    "LimitOrderBook",
    "MarketEvent",
    "MatchResult",
    "OpBatch",
    "Order",
    "OrderSlab",
    "OrderType",
    "PriceLevel",
    "ReplaySession",
    "ReplayStats",
    "Side",
    "TimeInForce",
    "TradeTick",
    "UpdateAction",
    "next_order_id",
]
