"""Exchange gateway: the order-entry side of the simulated exchange.

Receives the trading engine's encoded iLink3 messages, decodes them,
plays them into the matching engine and returns execution reports —
closing the loop the paper's Fig. 2(b) draws from order transmission back
to the market.  The strategy back-test uses this instead of assumed
fills, so P&L reflects what the book actually had to offer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ProtocolError
from repro.lob.array_matching import ArrayMatchingEngine
from repro.lob.order import Order, OrderType, TimeInForce
from repro.protocol.ilink3 import ILink3Cancel, ILink3Order, unframe_sofh
from repro.protocol.sbe import SecurityDirectory, peek_template_id
from repro.protocol.ilink3 import CANCEL_ORDER_516, NEW_ORDER_SINGLE_514


class ExecType(enum.Enum):
    """Execution-report outcome."""

    FILLED = "filled"
    PARTIAL = "partial"
    ACKNOWLEDGED = "acked"  # rested on the book
    CANCELLED = "cancelled"
    EXPIRED = "expired"  # IOC remainder discarded
    REJECTED = "rejected"


@dataclass(frozen=True)
class ExecutionReport:
    """What the exchange tells the trader about one order message."""

    cl_ord_id: int
    exec_type: ExecType
    filled_qty: int
    avg_price_ticks: float | None
    leaves_qty: int
    exchange_order_id: int | None
    timestamp: int
    reason: str = ""


@dataclass
class GatewayStats:
    """Session counters."""

    orders: int = 0
    cancels: int = 0
    fills: int = 0
    rejects: int = 0


class ExchangeGateway:
    """Order-entry session bound to one matching engine.

    The session only uses the engine's per-op ``submit``/``cancel``/
    ``book`` surface, each call returning a
    :class:`~repro.lob.matching.MatchResult`.
    """

    def __init__(
        self,
        engine: ArrayMatchingEngine,
        directory: SecurityDirectory,
        participant: str = "lighttrader",
    ) -> None:
        self.engine = engine
        self.directory = directory
        self.participant = participant
        self.stats = GatewayStats()
        # Client order id -> exchange order id, for cancels.
        self._by_cl_ord: dict[int, tuple[str, int]] = {}

    def submit(self, message: bytes, timestamp: int) -> ExecutionReport:
        """Process one SOFH-framed iLink3 message."""
        try:
            template = peek_template_id(unframe_sofh(message))
        except ProtocolError as exc:
            self.stats.rejects += 1
            return self._reject(-1, timestamp, f"unparseable: {exc}")
        if template == NEW_ORDER_SINGLE_514.template_id:
            return self._new_order(ILink3Order.decode(message), timestamp)
        if template == CANCEL_ORDER_516.template_id:
            return self._cancel(ILink3Cancel.decode(message), timestamp)
        self.stats.rejects += 1
        return self._reject(-1, timestamp, f"unknown template {template}")

    # -- internals -------------------------------------------------------------

    def _new_order(self, msg: ILink3Order, timestamp: int) -> ExecutionReport:
        self.stats.orders += 1
        try:
            symbol = self.directory.symbol_of(msg.security_id)
        except ProtocolError:
            self.stats.rejects += 1
            return self._reject(msg.cl_ord_id, timestamp, "unknown security id")
        if msg.order_qty <= 0 or (msg.price is not None and msg.price <= 0):
            self.stats.rejects += 1
            return self._reject(msg.cl_ord_id, timestamp, "invalid quantity or price")

        order = Order(
            side=msg.side,
            price=msg.price if msg.price is not None else 1,
            quantity=msg.order_qty,
            order_type=OrderType.LIMIT if msg.price is not None else OrderType.MARKET,
            tif=TimeInForce.IOC if msg.ioc else TimeInForce.DAY,
            owner=self.participant,
        )
        result = self.engine.submit(symbol, order, timestamp)
        if not result.accepted:
            self.stats.rejects += 1
            return self._reject(msg.cl_ord_id, timestamp, "unfillable FOK")

        filled = result.filled_quantity
        self.stats.fills += len(result.fills)
        avg_price = (
            sum(f.price * f.quantity for f in result.fills) / filled if filled else None
        )
        rested = (
            order.remaining > 0
            and order.order_type is OrderType.LIMIT
            and order.tif is TimeInForce.DAY
        )
        if rested:
            self._by_cl_ord[msg.cl_ord_id] = (symbol, order.order_id)
        if filled == msg.order_qty:
            exec_type = ExecType.FILLED
        elif filled > 0:
            exec_type = ExecType.PARTIAL  # rested remainder or expired IOC tail
        elif rested:
            exec_type = ExecType.ACKNOWLEDGED
        else:
            exec_type = ExecType.EXPIRED  # IOC/market with nothing done
        return ExecutionReport(
            cl_ord_id=msg.cl_ord_id,
            exec_type=exec_type,
            filled_qty=filled,
            avg_price_ticks=avg_price,
            leaves_qty=order.remaining if rested else 0,
            exchange_order_id=order.order_id,
            timestamp=timestamp,
        )

    def _cancel(self, msg: ILink3Cancel, timestamp: int) -> ExecutionReport:
        self.stats.cancels += 1
        entry = self._by_cl_ord.pop(msg.orig_cl_ord_id, None)
        if entry is None:
            self.stats.rejects += 1
            return self._reject(msg.cl_ord_id, timestamp, "unknown original order")
        symbol, exchange_id = entry
        book = self.engine.book(symbol)
        if exchange_id not in book:
            # Already fully filled or previously cancelled.
            return self._reject(msg.cl_ord_id, timestamp, "order no longer live")
        result = self.engine.cancel(symbol, exchange_id, timestamp)
        return ExecutionReport(
            cl_ord_id=msg.cl_ord_id,
            exec_type=ExecType.CANCELLED,
            filled_qty=0,
            avg_price_ticks=None,
            leaves_qty=0,
            exchange_order_id=result.order.order_id,
            timestamp=timestamp,
        )

    def _reject(self, cl_ord_id: int, timestamp: int, reason: str) -> ExecutionReport:
        return ExecutionReport(
            cl_ord_id=cl_ord_id,
            exec_type=ExecType.REJECTED,
            filled_qty=0,
            avg_price_ticks=None,
            leaves_qty=0,
            exchange_order_id=None,
            timestamp=timestamp,
            reason=reason,
        )
