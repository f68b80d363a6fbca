"""Outcome record of one matching-engine operation.

:class:`MatchResult` is what the per-op API of
:class:`~repro.lob.array_matching.ArrayMatchingEngine` returns, and what
:class:`~repro.market.gateway.ExchangeGateway` turns into execution
reports: the (possibly filled) order, its fills in match order and the
market-data events to publish, in publish order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lob.events import MarketEvent
from repro.lob.order import Fill, Order

__all__ = ["MatchResult"]


@dataclass
class MatchResult:
    """Outcome of one matching-engine operation.

    Attributes:
        order: The (possibly filled) incoming or affected order.
        fills: Executions generated, in match order.
        events: Market-data events to publish, in publish order.
        accepted: False when the order was rejected (e.g. unfillable FOK).
    """

    order: Order
    fills: list[Fill] = field(default_factory=list)
    events: list[MarketEvent] = field(default_factory=list)
    accepted: bool = True

    @property
    def filled_quantity(self) -> int:
        """Total quantity executed by this operation."""
        return sum(fill.quantity for fill in self.fills)
