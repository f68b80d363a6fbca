"""Market simulator: Hawkes arrivals drive agents through the matching engine.

This produces the synthetic CME-like session used by every experiment:
bursty tick timestamps (Hawkes), realistic two-sided book dynamics
(agent-based order flow through a real price–time-priority matching
engine), and per-tick depth snapshots recorded as a :class:`TickTape`.

The seeded book is checked out into a
:class:`~repro.lob.array_matching.ReplaySession` once per arrival chunk,
and agents plan plain-int ops against it — no per-arrival
``Order``/``MatchResult``/event objects; snapshots are sliced straight
from the session's packed level lists.  Arrivals are consumed in chunks
of ``_ARRIVAL_CHUNK``, so a long session never materialises its full
arrival array as a Python list.  ``tests/data/market_golden.json`` pins
the tapes and metric registries this produces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.lob.array_matching import ArrayMatchingEngine, ReplaySession
from repro.lob.order import Order, Side
from repro.lob.snapshot import CANONICAL_DEPTH, DepthSnapshot
from repro.market.agents import AgentMix, MarketContext, default_mix
from repro.market.hawkes import BURSTY, HawkesParams, HawkesProcess
from repro.market.replay import Tick, TickTape
from repro.metrics import MetricRegistry
from repro.units import sec_to_ns

# Arrival timestamps are converted to Python ints this many at a time —
# bounds peak memory on long sessions and sets the checkout/commit
# cadence of the replay session.
_ARRIVAL_CHUNK = 4096


@dataclass(frozen=True)
class MarketConfig:
    """Configuration of a synthetic market session.

    Attributes:
        symbol: Security symbol stamped on all events.
        initial_price: Starting fair value in integer ticks (E-mini S&P 500
            around 4500.00 points = 18000 quarter-point ticks).
        hawkes: Arrival process parameters (default: the bursty preset).
        seed_levels: Number of price levels pre-seeded on each side.
        seed_volume: Resting volume per pre-seeded level.
        snapshot_depth: Depth recorded in each tick snapshot.
    """

    symbol: str = "ESU6"
    initial_price: int = 18_000
    hawkes: HawkesParams = field(default_factory=lambda: BURSTY)
    seed_levels: int = 12
    seed_volume: int = 25
    snapshot_depth: int = CANONICAL_DEPTH

    def __post_init__(self) -> None:
        if self.snapshot_depth < 1:
            raise ValueError(f"snapshot_depth must be >= 1, got {self.snapshot_depth}")
        if self.seed_levels < 0:
            raise ValueError(f"seed_levels must be >= 0, got {self.seed_levels}")
        if self.seed_volume < 1:
            raise ValueError(f"seed_volume must be >= 1, got {self.seed_volume}")
        if self.initial_price <= self.seed_levels:
            raise ValueError(
                f"initial_price must exceed seed_levels ({self.seed_levels}) so "
                f"every seeded bid is a positive price, got {self.initial_price}"
            )


class MarketSimulator:
    """Generates re-runnable synthetic market sessions."""

    def __init__(
        self,
        config: MarketConfig | None = None,
        mix: AgentMix | None = None,
        seed: int = 0,
        metrics: MetricRegistry | None = None,
    ) -> None:
        self.config = config or MarketConfig()
        self.mix = mix or default_mix()
        self.seed = seed
        self.metrics = metrics

    def _seed_book(self, engine: ArrayMatchingEngine) -> None:
        """Pre-populate a symmetric book so agents have liquidity to act on."""
        cfg = self.config
        for level in range(1, cfg.seed_levels + 1):
            engine.submit(
                cfg.symbol,
                Order(
                    side=Side.BID,
                    price=cfg.initial_price - level,
                    quantity=cfg.seed_volume,
                    owner="seed",
                ),
                0,
            )
            engine.submit(
                cfg.symbol,
                Order(
                    side=Side.ASK,
                    price=cfg.initial_price + level,
                    quantity=cfg.seed_volume,
                    owner="seed",
                ),
                0,
            )

    def generate(self, duration_s: float, max_ticks: int | None = None) -> TickTape:
        """Run a session of ``duration_s`` seconds and return its tick tape.

        Every Hawkes arrival triggers one agent action; each action that
        prints market-data events becomes one tick (timestamp +
        post-event snapshot).  The same (config, mix, seed, duration)
        always produces the identical tape.

        One :class:`ReplaySession` checkout per arrival chunk; commits at
        chunk boundaries (and before an early ``max_ticks`` return) so
        the live book and metric registry end in step with the tape.  An
        exception inside a chunk propagates without committing, leaving
        the book at the last chunk boundary — agent-op atomicity.
        """
        if not math.isfinite(duration_s) or duration_s < 0:
            raise ValueError(f"duration_s must be finite and >= 0, got {duration_s}")
        if max_ticks is not None and max_ticks < 1:
            raise ValueError(f"max_ticks must be None or >= 1, got {max_ticks}")
        cfg = self.config
        symbol = cfg.symbol
        depth = cfg.snapshot_depth
        rng = np.random.default_rng(self.seed)
        engine = ArrayMatchingEngine(metrics=self.metrics)
        self._seed_book(engine)

        process = HawkesProcess(cfg.hawkes, rng)
        arrival_times = process.sample_times_ns(sec_to_ns(duration_s))

        session = ReplaySession(engine, symbol)
        ctx = MarketContext(symbol, float(cfg.initial_price), session)
        sample = self.mix.sample
        normal = rng.normal
        ticks: list[Tick] = []
        sequence = 0
        for start in range(0, arrival_times.shape[0], _ARRIVAL_CHUNK):
            if start:
                session.refresh()
            for timestamp in arrival_times[start : start + _ARRIVAL_CHUNK].tolist():
                agent = sample(rng)
                traded_before = session.traded_quantity
                if not agent.act(ctx, timestamp, rng):
                    continue
                # Random-walk drift of the reference price keeps the market
                # alive even if one side is temporarily swept.
                ctx.reference_price += normal(0.0, 0.05)
                if session.traded_quantity > traded_before:
                    last_price, last_quantity = session.trade_price, session.trade_qty
                else:
                    last_price, last_quantity = None, 0
                sequence += 1
                snapshot = DepthSnapshot.from_ladders(
                    symbol,
                    timestamp,
                    depth,
                    session.top_bids(depth),
                    session.top_asks(depth),
                    last_price,
                    last_quantity,
                    sequence,
                )
                ticks.append(Tick(timestamp=timestamp, snapshot=snapshot))
                if max_ticks is not None and len(ticks) >= max_ticks:
                    session.commit()
                    return TickTape(ticks)
            session.commit()
        return TickTape(ticks)


def generate_session(
    duration_s: float = 10.0,
    seed: int = 0,
    hawkes: HawkesParams | None = None,
    symbol: str = "ESU6",
) -> TickTape:
    """One-call helper used across examples and benchmarks.

    Always generates fresh; :func:`repro.market.tape_cache.cached_session`
    is the memoised front door for callers that replay identical sessions
    (campaign probes, benchmarks).
    """
    config = MarketConfig(symbol=symbol, hawkes=hawkes or BURSTY)
    return MarketSimulator(config, seed=seed).generate(duration_s)
