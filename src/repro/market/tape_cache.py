"""Keyed caching for generated tick tapes.

Campaign probes, benchmarks and examples replay the same synthetic
sessions — and a session is a pure function of (market config, seed,
duration, tick cap), so regenerating one per caller is pure waste.  This
module memoises :func:`~repro.market.generator.MarketSimulator.generate`
behind the same two-level design as :mod:`repro.sim.workload_cache`:

- **in-memory** (always on): one process generates each distinct session
  once, however many probes or benchmarks replay it;
- **on-disk** (opt-in): set ``REPRO_TAPE_CACHE`` to a directory and
  tapes persist across processes as ``.npz`` files — repeated campaign
  and benchmark invocations then skip the generator entirely.

Keys cover the full :class:`~repro.market.generator.MarketConfig`
(frozen dataclasses with deterministic reprs), the seed, the duration
and the tick cap, so a hit is guaranteed byte-identical to what the
generator would produce.  Only default-mix sessions are cacheable — the agent mix is
not part of the key, so callers with a custom mix must use the
generator directly.

:class:`~repro.market.replay.TickTape` is immutable, so sharing one
instance between callers is safe.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path

import numpy as np

from repro import envcfg
from repro.lob.snapshot import DepthSnapshot
from repro.market.generator import MarketConfig, MarketSimulator
from repro.market.hawkes import BURSTY, HawkesParams
from repro.market.replay import Tick, TickTape

__all__ = [
    "TAPE_CACHE_ENV",
    "cached_session",
    "clear_tape_cache",
    "tape_cache_dir",
    "tape_cache_key",
]

TAPE_CACHE_ENV = envcfg.TAPE_CACHE.name

# Bump whenever the generator's RNG stream or the tape layout changes so
# stale on-disk entries can never shadow a regenerated session.
_TAPE_VERSION = 1

_memory: dict[str, TickTape] = {}


def tape_cache_dir() -> Path | None:
    """The on-disk cache directory, or None when disk caching is off."""
    value = envcfg.get_path(TAPE_CACHE_ENV)
    return Path(value) if value else None


def clear_tape_cache() -> None:
    """Drop the in-memory cache (on-disk files are left alone)."""
    _memory.clear()


def tape_cache_key(
    config: MarketConfig,
    seed: int,
    duration_s: float,
    max_ticks: int | None,
) -> str:
    """Stable digest of one session parameterisation."""
    descriptor = repr((_TAPE_VERSION, config, int(seed), float(duration_s), max_ticks))
    return hashlib.sha256(descriptor.encode()).hexdigest()[:24]


def cached_session(
    duration_s: float = 10.0,
    seed: int = 0,
    hawkes: HawkesParams | None = None,
    symbol: str = "ESU6",
    config: MarketConfig | None = None,
    max_ticks: int | None = None,
) -> TickTape:
    """:func:`~repro.market.generator.generate_session` behind the cache.

    ``config`` overrides the (symbol, hawkes) convenience parameters
    when callers already hold a full :class:`MarketConfig`.
    """
    if config is None:
        config = MarketConfig(symbol=symbol, hawkes=hawkes or BURSTY)
    key = tape_cache_key(config, seed, duration_s, max_ticks)
    tape = _memory.get(key)
    if tape is None:
        tape = _load(key, config.symbol)
        if tape is None:
            tape = MarketSimulator(config, seed=seed).generate(duration_s, max_ticks)
            _store(key, tape)
        _memory[key] = tape
    return tape


def _path(key: str, symbol: str) -> Path | None:
    directory = tape_cache_dir()
    if directory is None:
        return None
    return directory / f"tape-{symbol}-{key}.npz"


def _load(key: str, symbol: str) -> TickTape | None:
    path = _path(key, symbol)
    if path is None or not path.exists():
        return None
    try:
        with np.load(path, allow_pickle=False) as data:
            stored_symbol = str(data["symbol"].item())
            depth = int(data["depth"].item())
            ts = data["ts"].tolist()
            seq = data["seq"].tolist()
            ltp = data["ltp"].tolist()  # -1 encodes "no trade this tick"
            ltq = data["ltq"].tolist()
            bid_len = data["bid_len"].tolist()
            ask_len = data["ask_len"].tolist()
            bids = data["bids"].tolist()
            asks = data["asks"].tolist()
    except (OSError, KeyError, ValueError):
        return None  # corrupt/partial entry: fall back to regeneration
    ticks: list[Tick] = []
    for i in range(len(ts)):
        price = ltp[i]
        snapshot = DepthSnapshot.from_ladders(
            stored_symbol,
            ts[i],
            depth,
            tuple((p, v) for p, v in bids[i][: bid_len[i]]),
            tuple((p, v) for p, v in asks[i][: ask_len[i]]),
            None if price < 0 else price,
            ltq[i],
            seq[i],
        )
        ticks.append(Tick(timestamp=ts[i], snapshot=snapshot))
    return TickTape(ticks)


def _store(key: str, tape: TickTape) -> None:
    if len(tape) == 0:
        return  # an empty tape has no depth to record; regeneration is cheap
    symbol = tape[0].snapshot.symbol
    path = _path(key, symbol)
    if path is None:
        return
    n = len(tape)
    depth = tape[0].snapshot.depth
    ts = np.empty(n, dtype=np.int64)
    seq = np.empty(n, dtype=np.int64)
    ltp = np.empty(n, dtype=np.int64)
    ltq = np.empty(n, dtype=np.int64)
    bid_len = np.empty(n, dtype=np.int64)
    ask_len = np.empty(n, dtype=np.int64)
    bids = np.zeros((n, depth, 2), dtype=np.int64)
    asks = np.zeros((n, depth, 2), dtype=np.int64)
    for i, tick in enumerate(tape):
        snapshot = tick.snapshot
        ts[i] = tick.timestamp
        seq[i] = snapshot.sequence
        ltp[i] = -1 if snapshot.last_trade_price is None else snapshot.last_trade_price
        ltq[i] = snapshot.last_trade_quantity
        bid_len[i] = len(snapshot.bids)
        ask_len[i] = len(snapshot.asks)
        for level, (price, volume) in enumerate(snapshot.bids):
            bids[i, level, 0] = price
            bids[i, level, 1] = volume
        for level, (price, volume) in enumerate(snapshot.asks):
            asks[i, level, 0] = price
            asks[i, level, 1] = volume
    path.parent.mkdir(parents=True, exist_ok=True)
    # Write-then-rename so concurrent workers never observe a torn file.
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez_compressed(
                handle,
                symbol=np.array(symbol),
                depth=np.array(depth, dtype=np.int64),
                ts=ts,
                seq=seq,
                ltp=ltp,
                ltq=ltq,
                bid_len=bid_len,
                ask_len=ask_len,
                bids=bids,
                asks=asks,
            )
        os.replace(tmp_name, path)
    except OSError:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
